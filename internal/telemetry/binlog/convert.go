package binlog

import (
	"io"

	"jitgc/internal/telemetry"
)

// ToJSONL writes the events of src (a Reader, SeekReader or Merger) to dst
// as JSON Lines, returning the number of events written. It encodes through
// telemetry.JSONLSink, so the view of a binlog stream is exactly what a
// JSONLSink on the same tracer would have written. dst is not closed.
func ToJSONL(dst io.Writer, src EventSource) (int64, error) {
	sink := telemetry.NewJSONLSink(struct{ io.Writer }{dst}) // hides dst's Close
	for n := int64(0); ; n++ {
		ev, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			sink.Close()
			return n, err
		}
		sink.Emit(ev)
		if sink.Count() == n { // the write failed; Close reports it
			break
		}
	}
	return sink.Count(), sink.Close()
}

// IsBinary reports whether prefix (the first bytes of a stream, at least
// len(Magic)) starts a binlog stream rather than JSONL or a text trace.
func IsBinary(prefix []byte) bool {
	return len(prefix) >= len(fileMagic) && string(prefix[:len(fileMagic)]) == fileMagic
}

// Magic is the stream header, exported so sniffing callers know how many
// bytes to peek.
const Magic = fileMagic
