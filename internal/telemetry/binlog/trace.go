package binlog

import (
	"fmt"
	"io"
	"time"

	"jitgc/internal/telemetry"
	"jitgc/internal/trace"
)

// Workload traces ride the same columnar format as telemetry streams: a
// trace.Request maps onto an EvRequest event (T = arrival/think time, Kind
// = the single-letter trace code, LPN, Pages), so tracegen can emit
// multi-GiB traces that replay without the text-parse bottleneck and
// jitgctrace can convert them like any other stream. Timestamps keep full
// nanosecond precision, as the text format's do.

// EncodeRequests writes reqs as a binlog request stream.
func EncodeRequests(w io.Writer, reqs []trace.Request, opts Options) error {
	bw := NewWriter(w, opts)
	for i, r := range reqs {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("binlog: write request %d: %w", i, err)
		}
		if err := bw.WriteRequest(r.Time, 0, r.Kind.String(), r.LPN, int(r.Pages), 0); err != nil {
			return err
		}
	}
	return bw.Close()
}

// DecodeRequests reads a binlog request stream back into requests,
// validating each one the way the text decoder does.
func DecodeRequests(r io.Reader) ([]trace.Request, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var reqs []trace.Request
	for {
		ev, err := rd.Next()
		if err == io.EOF {
			return reqs, nil
		}
		if err != nil {
			return reqs, err
		}
		req, err := requestFromEvent(ev)
		if err != nil {
			return reqs, fmt.Errorf("binlog: request %d: %w", len(reqs), err)
		}
		reqs = append(reqs, req)
	}
}

func requestFromEvent(ev telemetry.Event) (trace.Request, error) {
	if ev.Type != telemetry.EvRequest {
		return trace.Request{}, fmt.Errorf("event type %q is not a request", ev.Type)
	}
	kind, err := trace.ParseKind(ev.Kind)
	if err != nil {
		return trace.Request{}, err
	}
	pages, err := trace.NarrowPages(int64(ev.Pages))
	if err != nil {
		return trace.Request{}, err
	}
	req := trace.Request{Time: time.Duration(ev.T), Kind: kind, LPN: ev.LPN, Pages: pages}
	if err := req.Validate(); err != nil {
		return trace.Request{}, err
	}
	return req, nil
}
