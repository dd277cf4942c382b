package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecode checks the text trace parser on arbitrary input: it must never
// panic, and any stream it accepts must round-trip Decode → Encode → Decode
// to the same requests.
func FuzzDecode(f *testing.F) {
	f.Add("# jitgc trace v2: time_us kind lpn pages\n0 W 0 8\n150 R 4096 1\n2000 D 77 16\n2500 T 77 16\n")
	f.Add("0 W 0 1")
	f.Add("  \n# comment only\n\n")
	f.Add("0 W 0\n")                              // too few fields
	f.Add("0 X 0 1\n")                            // bad kind
	f.Add("9223372036854775807 W 0 1\n")          // µs→ns conversion overflow
	f.Add("-5 W 0 1\n")                           // negative time
	f.Add("0 W 9223372036854775807 2147483647\n") // LPN+Pages overflow
	f.Add("0 W 0 2147483648\n")                   // 2³¹ pages: past Request.Pages
	f.Add("0 W -1 1\n0 W 0 0\n")
	f.Add("1e3 W 0 1\n")
	f.Add("150.25 W 0 1\n0.001 R 1 1\n7.1 D 2 1\n") // nanosecond decimals
	f.Fuzz(func(t *testing.T, data string) {
		reqs, err := Decode(strings.NewReader(data))
		if err != nil {
			return
		}
		for i, r := range reqs {
			if vErr := r.Validate(); vErr != nil {
				t.Fatalf("Decode accepted invalid request %d: %v", i, vErr)
			}
		}
		var buf bytes.Buffer
		if err := Encode(&buf, reqs); err != nil {
			t.Fatalf("Encode of decoded stream failed: %v", err)
		}
		again, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-Decode of encoded stream failed: %v", err)
		}
		if len(reqs) == 0 && len(again) == 0 {
			return
		}
		if !reflect.DeepEqual(reqs, again) {
			t.Fatalf("round trip mismatch:\nfirst  %v\nsecond %v", reqs, again)
		}
	})
}

// FuzzDecodeMSR checks the MSR-Cambridge CSV importer on arbitrary input:
// it must never panic, malformed input must error rather than yield garbage,
// and any accepted stream must validate — with MaxLPN set, every request
// must land inside [0, MaxLPN).
func FuzzDecodeMSR(f *testing.F) {
	f.Add("128166372003061629,src1,0,Write,8192,4096,1331\n128166372004061629,src1,0,Read,0,512,100\n")
	f.Add("128166372003061629,src1,1,Write,8192,4096,1331\n") // filtered disk
	f.Add("0,h,0,Write,0,1,0\n")
	f.Add("# comment\n\nbad line\n")
	f.Add("0,h,0,Write,-1,4096,0\n")                                 // negative offset
	f.Add("0,h,0,Write,0,0,0\n")                                     // zero size
	f.Add("0,h,0,Write,9223372036854775807,9223372036854775807,0\n") // offset+size overflow
	f.Add("9223372036854775807,h,0,Write,0,4096,0\n0,h,0,Write,0,4096,0\n")
	f.Add("100,h,0,Write,0,4096,0\n9223372036854775807,h,0,Read,0,512,0\n") // ×100 tick overflow
	f.Add("0,h,0,Flush,0,4096,0\n")
	f.Add("0,h,0,Write,0,8796093022208,0\n") // 8 TiB: 2³¹ pages at 4 KiB
	f.Fuzz(func(t *testing.T, data string) {
		for _, opts := range []MSROptions{
			{Disk: -1},
			{Disk: 0, PageSize: 512, MaxLPN: 1 << 20},
		} {
			reqs, err := DecodeMSR(strings.NewReader(data), opts)
			if err != nil {
				continue
			}
			if vErr := ValidateAll(reqs); vErr != nil {
				t.Fatalf("opts %+v: DecodeMSR accepted invalid stream: %v", opts, vErr)
			}
			if opts.MaxLPN > 0 {
				for i, r := range reqs {
					if r.End() > opts.MaxLPN {
						t.Fatalf("opts %+v: request %d [%d, %d) beyond MaxLPN %d",
							opts, i, r.LPN, r.End(), opts.MaxLPN)
					}
				}
			}
		}
	})
}
