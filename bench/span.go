package main

import (
	"bufio"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's public function: which call, when, and the span that caused it.
// Spans of one traced pass share a run identifier.
type span struct {
	name       uint8 // index into spanRecorder.names
	run        uint8
	parent     int32 // index of the enclosing span, -1 at the root
	start, end time.Duration
}

// spanRecorder keeps spans in memory until the benchmark ends. A nil
// recorder records nothing, so untraced runs share the code path and pay one
// pointer check per call site. It is not safe for concurrent use.
type spanRecorder struct {
	origin time.Time
	names  []string
	ids    map[string]uint8
	spans  []span
	stack  []int32
	run    uint8
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{origin: time.Now(), ids: map[string]uint8{}}
}

// id interns a span name; call sites in a hot loop intern once up front.
func (r *spanRecorder) id(name string) uint8 {
	if r == nil {
		return 0
	}
	if id, ok := r.ids[name]; ok {
		return id
	}
	id := uint8(len(r.names))
	r.names = append(r.names, name)
	r.ids[name] = id
	return id
}

// reserve makes room for n more spans up front, so that a traced loop is not
// charged for growing the slice.
func (r *spanRecorder) reserve(n int) {
	if r != nil {
		r.spans = slices.Grow(r.spans, n)
	}
}

// begin opens a span under the innermost open one and returns its index.
func (r *spanRecorder) begin(name uint8) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, run: r.run, parent: parent, start: time.Since(r.origin)})
	r.stack = append(r.stack, i)
	return i
}

// end closes span i, which must be the innermost open one.
func (r *spanRecorder) end(i int32) {
	if r == nil {
		return
	}
	r.spans[i].end = time.Since(r.origin)
	r.stack = r.stack[:len(r.stack)-1]
}

// in times fn as one span.
func (r *spanRecorder) in(name string, fn func() error) error {
	i := r.begin(r.id(name))
	err := fn()
	r.end(i)
	return err
}

// spanTotals aggregates one span name: how many spans, their summed
// duration, and their summed self time.
type spanTotals struct {
	count       int
	total, self time.Duration
}

// totals folds the recorded spans by name. A span's self time is its
// duration minus the part its child spans cover; children never overlap one
// another (one goroutine, strictly nested), so that part is their sum.
func (r *spanRecorder) totals() map[string]spanTotals {
	out := map[string]spanTotals{}
	if r == nil {
		return out
	}
	children := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	for i, s := range r.spans {
		t := out[r.names[s.name]]
		t.count++
		t.total += s.end - s.start
		t.self += s.end - s.start - children[i]
		out[r.names[s.name]] = t
	}
	return out
}

// write stores the spans as one JSON object: the name table and one
// [name, run, parent, start_ns, end_ns] row per span.
func (r *spanRecorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(`{"columns":["name","run","parent","start_ns","end_ns"],"names":[`)
	for i, n := range r.names {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(strconv.Quote(n))
	}
	w.WriteString("],\n\"spans\":[\n")
	buf := make([]byte, 0, 64)
	for i, s := range r.spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',', '\n')
		}
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(s.name), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.run), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.start), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.end), 10)
		buf = append(buf, ']')
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
