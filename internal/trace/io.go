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
// Blank lines and lines starting with '#' are ignored. This mirrors the
// minimal fields of common block-trace formats (e.g. MSR Cambridge) with
// the buffered/direct distinction the paper requires. By convention the
// time field of a jitgc text trace is a *think time* (the closed-loop gap
// before the request), matching what the workload generators emit; traces
// recorded with absolute arrival times also round-trip, and the replayer
// decides the interpretation.

// Encode serializes requests to w in the text trace format.
func Encode(w io.Writer, reqs []Request) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# jitgc trace v2: time_us kind lpn pages"); err != nil {
		return err
	}
	for i, r := range reqs {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("trace: write request %d: %w", i, err)
		}
		if _, err := fmt.Fprintf(bw, "%d %s %d %d\n", r.Time.Microseconds(), r.Kind, r.LPN, r.Pages); err != nil {
			return err
		}
	}
	return bw.Flush()
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
	us, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return Request{}, fmt.Errorf("bad time %q: %w", fields[0], err)
	}
	if us < 0 || us > math.MaxInt64/int64(time.Microsecond) {
		// Converting to a nanosecond Duration would overflow — and a
		// wrapped product can land positive, slipping past validation.
		return Request{}, fmt.Errorf("time %d µs out of range", us)
	}
	var kind Kind
	switch fields[1] {
	case "R":
		kind = Read
	case "W":
		kind = BufferedWrite
	case "D":
		kind = DirectWrite
	case "T":
		kind = Trim
	default:
		return Request{}, fmt.Errorf("bad kind %q", fields[1])
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
	req := Request{Time: time.Duration(us) * time.Microsecond, Kind: kind, LPN: lpn, Pages: pages}
	if err := req.Validate(); err != nil {
		return Request{}, err
	}
	return req, nil
}
