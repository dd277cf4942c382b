package telemetry

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// Sink consumes trace events. Implementations must be safe for concurrent
// Emit calls: experiment grids run many simulators at once and may share
// one sink across all of them.
type Sink interface {
	// Emit records one event. Emit must not block on slow consumers longer
	// than a buffered write; delivery errors are surfaced at Close.
	Emit(Event)
	// Close flushes buffered events and releases resources. It reports the
	// first delivery error encountered over the sink's lifetime.
	Close() error
}

// Tee returns a sink that forwards every event to each of sinks, in order,
// under one lock, so all of them record one stream in one order. A request
// completion reaches each sink as a tracer over that sink alone delivers it:
// through its fast path where it has one. Close closes every sink and joins
// their errors.
func Tee(sinks ...Sink) Sink {
	t := &tee{out: make([]Tracer, len(sinks))}
	for i, s := range sinks {
		t.out[i] = *New(s)
	}
	return t
}

type tee struct {
	mu  sync.Mutex
	out []Tracer // one per sink, retagged for each request
}

func (t *tee) Emit(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, o := range t.out {
		o.sink.Emit(ev)
	}
}

func (t *tee) EmitRequest(now time.Duration, dev int, kind string, lpn int64, pages int, latency time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.out {
		t.out[i].dev = dev
		t.out[i].Request(now, kind, lpn, pages, latency)
	}
}

func (t *tee) Close() error {
	var errs []error
	for _, o := range t.out {
		errs = append(errs, o.sink.Close())
	}
	return errors.Join(errs...)
}

// JSONLSink streams events as JSON Lines — one object per event, in emit
// order — through a buffered writer. The first encoding or write error is
// sticky: subsequent emits are dropped and the error is returned from
// Close, so a full disk does not corrupt the tail of a trace with partial
// lines.
type JSONLSink struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	enc    *json.Encoder // bound to bw; reuses its scratch across events
	c      io.Closer     // nil when the caller owns the writer's lifetime
	closed bool
	err    error
	n      int64
}

// ErrClosedSink is the sticky error recorded when events are emitted into a
// sink that has already been closed: they were silently lost, and the loss
// must surface somewhere.
var ErrClosedSink = errors.New("telemetry: emit after Close")

// NewJSONLSink wraps w in a buffered JSONL event stream. If w is also an
// io.Closer it is closed by Close.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{bw: bufio.NewWriterSize(w, 1<<16)}
	s.enc = json.NewEncoder(s.bw)
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit implements Sink. Events are serialized through one json.Encoder so
// the per-event marshal buffer is pooled inside the encoder instead of
// being reallocated on every emit (Encode terminates each object with the
// newline JSONL requires).
func (s *JSONLSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// The event can never be flushed; record the loss instead of
		// buffering it into a writer that will not be flushed again.
		if s.err == nil {
			s.err = ErrClosedSink
		}
		return
	}
	if s.err != nil {
		return
	}
	if s.enc == nil { // sinks built as bare literals (tests) lack the encoder
		s.enc = json.NewEncoder(s.bw)
	}
	if err := s.enc.Encode(ev); err != nil {
		s.err = fmt.Errorf("telemetry: encode event: %w", err)
		return
	}
	s.n++
}

// Count returns the number of events successfully encoded so far.
func (s *JSONLSink) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Close flushes the stream and closes the underlying writer when it is a
// Closer. It returns the first error of the sink's lifetime. Close is
// idempotent: a second Close neither re-flushes into the already-closed
// writer (which could fail and shadow a clean first result) nor re-closes
// it; it just reports the same result again.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	s.closed = true
	if ferr := s.bw.Flush(); s.err == nil && ferr != nil {
		s.err = fmt.Errorf("telemetry: flush: %w", ferr)
	}
	if s.c != nil {
		cerr := s.c.Close()
		s.c = nil
		if s.err == nil && cerr != nil {
			s.err = fmt.Errorf("telemetry: close: %w", cerr)
		}
	}
	return s.err
}

// DecodeJSONL reads a JSONL event stream back into memory (tests, trace
// inspection tools). It fails on the first malformed line.
func DecodeJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var evs []Event
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				return evs, nil
			}
			return evs, fmt.Errorf("telemetry: decode event %d: %w", len(evs), err)
		}
		evs = append(evs, ev)
	}
}

// RingSink retains the most recent Cap events in a bounded ring: once full,
// each new event overwrites the oldest. It never allocates after
// construction, making it the flight-recorder sink for always-on tracing.
type RingSink struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	wrapped bool
	total   int64
}

// NewRingSink builds a ring retaining the most recent capacity events.
func NewRingSink(capacity int) (*RingSink, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("telemetry: ring capacity %d must be positive", capacity)
	}
	return &RingSink{buf: make([]Event, capacity)}, nil
}

// Emit implements Sink.
func (s *RingSink) Emit(ev Event) {
	s.mu.Lock()
	s.buf[s.next] = ev
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
		s.wrapped = true
	}
	s.total++
	s.mu.Unlock()
}

// Events returns the retained events in emit order (oldest first). The
// returned slice is a copy.
func (s *RingSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.wrapped {
		out := make([]Event, s.next)
		copy(out, s.buf[:s.next])
		return out
	}
	out := make([]Event, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// Total returns how many events were emitted over the sink's lifetime,
// including those already overwritten.
func (s *RingSink) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Close implements Sink; the ring holds no external resources.
func (s *RingSink) Close() error { return nil }
