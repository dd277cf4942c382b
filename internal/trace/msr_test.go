package trace

import (
	"strings"
	"testing"
	"time"
)

const msrSample = `128166372003061629,hm,0,Read,8192,4096,559
128166372004061629,hm,0,Write,12288,8192,930
128166372005061629,hm,1,Write,0,4096,100
128166372006061629,hm,0,Read,4095,2,80
`

func TestDecodeMSRBasic(t *testing.T) {
	reqs, err := DecodeMSR(strings.NewReader(msrSample), MSROptions{Disk: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 4 {
		t.Fatalf("requests = %d", len(reqs))
	}
	if reqs[0].Time != 0 {
		t.Errorf("first timestamp not rebased: %v", reqs[0].Time)
	}
	// Consecutive records are 1e6 FILETIME ticks = 100 ms apart.
	if reqs[1].Time != 100*time.Millisecond {
		t.Errorf("second arrival = %v, want 100ms", reqs[1].Time)
	}
	if reqs[0].Kind != Read || reqs[0].LPN != 2 || reqs[0].Pages != 1 {
		t.Errorf("req0 = %+v", reqs[0])
	}
	// Block-level writes take the direct path.
	if reqs[1].Kind != DirectWrite || reqs[1].LPN != 3 || reqs[1].Pages != 2 {
		t.Errorf("req1 = %+v", reqs[1])
	}
	// A 2-byte read straddling a page boundary covers both pages.
	if reqs[3].LPN != 0 || reqs[3].Pages != 2 {
		t.Errorf("straddling read = %+v", reqs[3])
	}
}

func TestDecodeMSRDiskFilter(t *testing.T) {
	reqs, err := DecodeMSR(strings.NewReader(msrSample), MSROptions{Disk: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || reqs[0].LPN != 0 {
		t.Errorf("disk-1 requests = %+v", reqs)
	}
}

func TestDecodeMSRWrapsLPN(t *testing.T) {
	reqs, err := DecodeMSR(strings.NewReader(msrSample), MSROptions{Disk: -1, MaxLPN: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if r.End() > 3 {
			t.Errorf("req %d beyond MaxLPN: %+v", i, r)
		}
	}
}

func TestDecodeMSRErrors(t *testing.T) {
	bad := []string{
		"notanumber,hm,0,Read,0,4096,1",
		"1,hm,x,Read,0,4096,1",
		"1,hm,0,Fly,0,4096,1",
		"1,hm,0,Read,-5,4096,1",
		"1,hm,0,Read,0,0,1",
		"1,hm,0,Read,0",
		"2,hm,0,Read,0,4096,1\n1,hm,0,Read,0,4096,1", // backwards time
	}
	for i, in := range bad {
		if _, err := DecodeMSR(strings.NewReader(in), MSROptions{Disk: -1}); err == nil {
			t.Errorf("case %d accepted: %q", i, in)
		}
	}
}

func TestDecodeMSRSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n" + msrSample
	reqs, err := DecodeMSR(strings.NewReader(in), MSROptions{Disk: -1})
	if err != nil || len(reqs) != 4 {
		t.Errorf("reqs = %d, err = %v", len(reqs), err)
	}
}
