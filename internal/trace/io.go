package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// File format: one request per line,
//
//	<time-microseconds> <R|W|D|T> <lpn> <pages>
//
// The time is in microseconds with up to three decimals, so a nanosecond
// time round-trips exactly (150.25 is 150,250 ns), and a file of whole
// microseconds reads as it always did. Blank lines and lines starting with
// '#' are ignored. This mirrors the minimal fields of common block-trace
// formats (e.g. MSR Cambridge) with the buffered/direct distinction the
// paper requires. By convention the
// time field of a jitgc text trace is a *think time* (the closed-loop gap
// before the request), matching what the workload generators emit; traces
// recorded with absolute arrival times also round-trip, and the replayer
// decides the interpretation.

// Encode serializes requests to w in the text trace format.
func Encode(w io.Writer, reqs []Request) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# jitgc trace v3: time_us kind lpn pages"); err != nil {
		return err
	}
	for i, r := range reqs {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("trace: write request %d: %w", i, err)
		}
		if _, err := fmt.Fprintf(bw, "%s %s %d %d\n", micros(r.Time), r.Kind, r.LPN, r.Pages); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// micros formats a non-negative d in microseconds, with the nanoseconds
// as up to three decimals: "150" for 150 µs, "150.25" for 150,250 ns.
func micros(d time.Duration) string {
	s := strconv.FormatInt(int64(d/time.Microsecond), 10)
	if ns := d % time.Microsecond; ns != 0 {
		s += strings.TrimRight(fmt.Sprintf(".%03d", ns), "0")
	}
	return s
}

// parseMicros parses a time field micros wrote, or any whole number of
// microseconds.
func parseMicros(f string) (time.Duration, error) {
	whole, frac, dotted := strings.Cut(f, ".")
	if dotted && (frac == "" || len(frac) > 3 || strings.Trim(whole+frac, "0123456789") != "") {
		return 0, fmt.Errorf("bad time %q: want microseconds with up to three decimals", f)
	}
	us, err := strconv.ParseInt(whole, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad time %q: %w", f, err)
	}
	ns, _ := strconv.ParseInt((frac + "000")[:3], 10, 64)
	if us < 0 || us > (math.MaxInt64-ns)/int64(time.Microsecond) {
		// Converting to a nanosecond Duration would overflow — and a
		// wrapped product can land positive, slipping past validation.
		return 0, fmt.Errorf("time %s µs out of range", f)
	}
	return time.Duration(us)*time.Microsecond + time.Duration(ns), nil
}

// Decode parses a text trace from r.
func Decode(r io.Reader) ([]Request, error) {
	var reqs []Request
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		req, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		reqs = append(reqs, req)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return reqs, nil
}

func parseLine(line string) (Request, error) {
	fields := strings.Fields(line)
	if len(fields) != 4 {
		return Request{}, fmt.Errorf("want 4 fields, got %d", len(fields))
	}
	t, err := parseMicros(fields[0])
	if err != nil {
		return Request{}, err
	}
	kind, err := ParseKind(fields[1])
	if err != nil {
		return Request{}, err
	}
	lpn, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil {
		return Request{}, fmt.Errorf("bad lpn %q: %w", fields[2], err)
	}
	n, err := strconv.ParseInt(fields[3], 10, 64)
	if err != nil {
		return Request{}, fmt.Errorf("bad length %q: %w", fields[3], err)
	}
	pages, err := NarrowPages(n)
	if err != nil {
		return Request{}, err
	}
	req := Request{Time: t, Kind: kind, LPN: lpn, Pages: pages}
	if err := req.Validate(); err != nil {
		return Request{}, err
	}
	return req, nil
}
