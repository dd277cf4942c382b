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

// MSR-Cambridge block traces (SNIA IOTTA) are a de-facto standard corpus
// for storage research. Each CSV line is
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// with Timestamp in Windows FILETIME units (100 ns ticks since 1601),
// Type "Read"/"Write", Offset and Size in bytes. DecodeMSR converts such a
// trace into the simulator's request stream.

// MSROptions controls MSR trace conversion.
type MSROptions struct {
	// PageSize converts byte offsets/sizes to pages (default 4096).
	PageSize int
	// Disk selects a single DiskNumber; -1 keeps every disk (offsets of
	// different disks alias, so filtering is usually right).
	Disk int
	// MaxLPN wraps logical pages into [0, MaxLPN) so traces captured from
	// volumes larger than the simulated device still replay; 0 disables
	// wrapping.
	MaxLPN int64
}

func (o *MSROptions) setDefaults() {
	if o.PageSize <= 0 {
		o.PageSize = 4096
	}
}

// DecodeMSR parses an MSR-Cambridge CSV trace into a request stream:
// timestamps are rebased to start at zero, offsets and sizes are converted
// to page units, writes become direct writes (a block-level trace sits
// below the host cache), and requests are returned in arrival order (MSR
// traces are time-sorted; out-of-order records are rejected).
func DecodeMSR(r io.Reader, opts MSROptions) ([]Request, error) {
	opts.setDefaults()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)

	var (
		reqs   []Request
		base   int64 = -1
		lineNo int
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		req, disk, ft, err := parseMSRLine(line, opts)
		if err != nil {
			return nil, fmt.Errorf("trace: msr line %d: %w", lineNo, err)
		}
		if opts.Disk >= 0 && disk != opts.Disk {
			continue
		}
		if base < 0 {
			base = ft
		}
		if ft < base && len(reqs) == 0 {
			base = ft
		}
		// FILETIME ticks are 100 ns. A wrapped product of the ×100 can
		// land positive, so bound the tick delta before multiplying.
		delta := ft - base
		if delta > math.MaxInt64/100 {
			return nil, fmt.Errorf("trace: msr line %d: timestamp %d too far past trace start", lineNo, ft)
		}
		req.Time = time.Duration(delta) * 100 * time.Nanosecond
		if req.Time < 0 {
			return nil, fmt.Errorf("trace: msr line %d: timestamp goes backwards", lineNo)
		}
		reqs = append(reqs, req)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: msr read: %w", err)
	}
	if err := ValidateAll(reqs); err != nil {
		return nil, err
	}
	return reqs, nil
}

func parseMSRLine(line string, opts MSROptions) (Request, int, int64, error) {
	fields := strings.Split(line, ",")
	if len(fields) < 6 {
		return Request{}, 0, 0, fmt.Errorf("want ≥ 6 fields, got %d", len(fields))
	}
	ft, err := strconv.ParseInt(strings.TrimSpace(fields[0]), 10, 64)
	if err != nil {
		return Request{}, 0, 0, fmt.Errorf("bad timestamp %q: %w", fields[0], err)
	}
	disk, err := strconv.Atoi(strings.TrimSpace(fields[2]))
	if err != nil {
		return Request{}, 0, 0, fmt.Errorf("bad disk %q: %w", fields[2], err)
	}
	var kind Kind
	switch strings.ToLower(strings.TrimSpace(fields[3])) {
	case "read":
		kind = Read
	case "write":
		kind = DirectWrite
	default:
		return Request{}, 0, 0, fmt.Errorf("bad type %q", fields[3])
	}
	offset, err := strconv.ParseInt(strings.TrimSpace(fields[4]), 10, 64)
	if err != nil || offset < 0 {
		return Request{}, 0, 0, fmt.Errorf("bad offset %q", fields[4])
	}
	size, err := strconv.ParseInt(strings.TrimSpace(fields[5]), 10, 64)
	if err != nil || size <= 0 {
		return Request{}, 0, 0, fmt.Errorf("bad size %q", fields[5])
	}

	ps := int64(opts.PageSize)
	if size > math.MaxInt64-(ps-1) || offset > math.MaxInt64-(size+ps-1) {
		// The page-rounding sum below would wrap, yielding a garbage
		// (possibly negative) page count.
		return Request{}, 0, 0, fmt.Errorf("offset %d + size %d out of range", offset, size)
	}
	lpn := offset / ps
	n := (offset+size+ps-1)/ps - lpn
	if n < 1 {
		n = 1
	}
	if opts.MaxLPN > 0 {
		lpn %= opts.MaxLPN
		n = min(n, opts.MaxLPN-lpn)
	}
	pages, err := NarrowPages(n)
	if err != nil {
		return Request{}, 0, 0, err
	}
	return Request{Kind: kind, LPN: lpn, Pages: pages}, disk, ft, nil
}
