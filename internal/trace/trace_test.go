package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// TestRequestLayout pins the request record at 24 bytes: Kind and Pages
// share the word after Time and LPN, so a stream of n requests holds 24n
// bytes.
func TestRequestLayout(t *testing.T) {
	var r Request
	if size := unsafe.Sizeof(r); size != 24 {
		t.Errorf("Request is %d bytes, want 24", size)
	}
	kind, pages := unsafe.Offsetof(r.Kind), unsafe.Offsetof(r.Pages)
	if kind/8 != pages/8 {
		t.Errorf("Kind at offset %d and Pages at offset %d lie in different words", kind, pages)
	}
}

// TestDecodersNarrowPages: the text and MSR decoders accept a request of
// math.MaxInt32 pages and reject one page more, naming the line, instead
// of wrapping the count negative in Request.Pages.
func TestDecodersNarrowPages(t *testing.T) {
	decodeText := func(pages int64) ([]Request, error) {
		return Decode(strings.NewReader(fmt.Sprintf("0 W 0 %d\n", pages)))
	}
	decodeMSR := func(pages int64) ([]Request, error) {
		line := fmt.Sprintf("0,h,0,Write,0,%d,0\n", pages*4096)
		return DecodeMSR(strings.NewReader(line), MSROptions{Disk: -1})
	}
	for _, tc := range []struct {
		name   string
		decode func(pages int64) ([]Request, error)
		line   string
	}{
		{"text", decodeText, "line 1"},
		{"msr", decodeMSR, "msr line 1"},
	} {
		for _, pages := range []int64{math.MaxInt32, math.MaxInt32 + 1} {
			reqs, err := tc.decode(pages)
			switch {
			case pages <= math.MaxInt32 && (err != nil || len(reqs) != 1 || int64(reqs[0].Pages) != pages):
				t.Errorf("%s: %d pages decoded to %+v, %v; want one request of %d pages", tc.name, pages, reqs, err, pages)
			case pages > math.MaxInt32 && (err == nil || !strings.Contains(err.Error(), tc.line)):
				t.Errorf("%s: %d pages decoded to %+v, %v; want an error naming %s", tc.name, pages, reqs, err, tc.line)
			}
		}
	}
}

func TestKindStrings(t *testing.T) {
	if Read.String() != "R" || BufferedWrite.String() != "W" || DirectWrite.String() != "D" {
		t.Error("kind strings wrong")
	}
	if Kind(7).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestRequestValidate(t *testing.T) {
	good := Request{Time: time.Second, Kind: BufferedWrite, LPN: 10, Pages: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
	bad := []Request{
		{Time: -1, Kind: Read, LPN: 0, Pages: 1},
		{Time: 0, Kind: Kind(9), LPN: 0, Pages: 1},
		{Time: 0, Kind: Read, LPN: -1, Pages: 1},
		{Time: 0, Kind: Read, LPN: 0, Pages: 0},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad request %d accepted: %+v", i, r)
		}
	}
}

func TestRequestHelpers(t *testing.T) {
	r := Request{Kind: DirectWrite, LPN: 100, Pages: 4}
	if !r.IsWrite() {
		t.Error("direct write not IsWrite")
	}
	if (Request{Kind: Read}).IsWrite() {
		t.Error("read IsWrite")
	}
	if r.End() != 104 {
		t.Errorf("End = %d, want 104", r.End())
	}
}

func TestValidateAllOrdering(t *testing.T) {
	reqs := []Request{
		{Time: 2 * time.Second, Kind: Read, LPN: 0, Pages: 1},
		{Time: time.Second, Kind: Read, LPN: 0, Pages: 1},
	}
	if err := ValidateAll(reqs); !errors.Is(err, ErrNotSorted) {
		t.Errorf("unsorted trace: err = %v, want ErrNotSorted", err)
	}
	reqs[1].Time = 2 * time.Second // equal timestamps are fine
	if err := ValidateAll(reqs); err != nil {
		t.Errorf("sorted trace rejected: %v", err)
	}
}

func TestSummarize(t *testing.T) {
	reqs := []Request{
		{Time: 0, Kind: Read, LPN: 0, Pages: 2},
		{Time: time.Second, Kind: BufferedWrite, LPN: 10, Pages: 3},
		{Time: 2 * time.Second, Kind: DirectWrite, LPN: 20, Pages: 1},
	}
	st := Summarize(reqs)
	if st.Requests != 3 || st.ReadPages != 2 || st.BufferedPages != 3 || st.DirectPages != 1 {
		t.Errorf("summary = %+v", st)
	}
	if st.WrittenPages != 4 || st.MaxLPN != 21 || st.Duration != 2*time.Second {
		t.Errorf("summary aggregates = %+v", st)
	}
	if math.Abs(st.BufferedRatio-0.75) > 1e-9 || math.Abs(st.DirectRatio-0.25) > 1e-9 {
		t.Errorf("ratios = %v/%v", st.BufferedRatio, st.DirectRatio)
	}
	if math.Abs(st.MeanWritePages-2) > 1e-9 {
		t.Errorf("mean write pages = %v, want 2", st.MeanWritePages)
	}
	if empty := Summarize(nil); empty.Requests != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := []Request{
		{Time: 0, Kind: Read, LPN: 5, Pages: 1},
		{Time: 1500 * time.Microsecond, Kind: BufferedWrite, LPN: 100, Pages: 8},
		{Time: 150250 * time.Nanosecond, Kind: Read, LPN: 6, Pages: 1},
		{Time: time.Nanosecond, Kind: Trim, LPN: 7, Pages: 2},
		{Time: 2 * time.Second, Kind: DirectWrite, LPN: 999, Pages: 3},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, in); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Whole microseconds stay integers; nanoseconds are trimmed decimals.
	for _, line := range []string{"\n1500 W 100 8\n", "\n150.25 R 6 1\n", "\n0.001 T 7 2\n"} {
		if !strings.Contains(buf.String(), line) {
			t.Errorf("encoding lacks %q:\n%s", line[1:], buf.String())
		}
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("request %d: %+v != %+v", i, in[i], out[i])
		}
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	err := Encode(&buf, []Request{{Time: 0, Kind: Read, LPN: -1, Pages: 1}})
	if err == nil {
		t.Error("Encode accepted invalid request")
	}
}

func TestDecodeParsing(t *testing.T) {
	cases := []struct {
		name  string
		input string
		ok    bool
	}{
		{"comments and blanks", "# header\n\n100 W 5 2\n", true},
		{"all kinds", "0 R 1 1\n5 W 2 2\n10 D 3 3\n", true},
		{"wrong field count", "100 W 5\n", false},
		{"bad kind", "100 X 5 2\n", false},
		{"bad time", "x W 5 2\n", false},
		{"bad lpn", "100 W x 2\n", false},
		{"bad pages", "100 W 5 x\n", false},
		{"negative pages", "100 W 5 -2\n", false},
		{"think times need not be sorted", "100 W 5 2\n50 W 5 2\n", true},
		{"nanosecond decimals", "150.25 W 5 2\n0.001 R 1 1\n7.100 D 3 3\n", true},
		{"no decimals after the point", "1. W 5 2\n", false},
		{"four decimals", "1.2345 W 5 2\n", false},
		{"negative with decimals", "-0.5 W 5 2\n", false},
		{"no whole part", ".5 W 5 2\n", false},
		{"signed decimals", "1.+5 W 5 2\n", false},
		{"decimals past the range", "9223372036854775.808 W 5 2\n", false},
	}
	for _, c := range cases {
		_, err := Decode(strings.NewReader(c.input))
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: error expected", c.name)
		}
	}
}

func TestDecodeReportsLineNumbers(t *testing.T) {
	_, err := Decode(strings.NewReader("0 R 1 1\nbroken line here\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line 2 mention", err)
	}
}

// Property: Encode→Decode is the identity on any valid, sorted request
// stream, nanoseconds included.
func TestRoundTripProperty(t *testing.T) {
	f := func(seeds []uint32) bool {
		reqs := make([]Request, 0, len(seeds))
		var tprev time.Duration
		for _, s := range seeds {
			tprev += time.Duration(s%1000000) * time.Nanosecond
			reqs = append(reqs, Request{
				Time:  tprev,
				Kind:  Kind(s % 3),
				LPN:   int64(s % 100000),
				Pages: int32(s%64) + 1,
			})
		}
		var buf bytes.Buffer
		if err := Encode(&buf, reqs); err != nil {
			return false
		}
		out, err := Decode(&buf)
		if err != nil {
			return false
		}
		if len(out) != len(reqs) {
			return false
		}
		for i := range reqs {
			if reqs[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
