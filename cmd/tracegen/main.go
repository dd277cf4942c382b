// Command tracegen writes a benchmark's synthetic request stream as a
// trace file that jitgcsim -trace can replay: the human-readable text
// format by default, or the columnar binlog format with -binary (an order
// of magnitude smaller, and the only practical choice once traces reach 10⁸
// requests). The stream is the one jitgc.Run simulates for the same
// benchmark, seed, ops and working set.
//
// Usage:
//
//	tracegen -bench Postmark -out postmark.trace [-ops N] [-seed S] [-ws PAGES] [-binary]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"jitgc"
	"jitgc/internal/telemetry/binlog"
	"jitgc/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")

	var (
		bench = flag.String("bench", "YCSB", "benchmark name")
		out   = flag.String("out", "", "output file (default stdout)")
		ops   = flag.Int("ops", 100000, "number of requests")
		seed  = flag.Int64("seed", 1, "generation seed")
		ws    = flag.Int64("ws", 0, "working set in pages (0: half the default device's user capacity, as jitgc.Run uses)")
		bin   = flag.Bool("binary", false, "write the columnar binlog format instead of text")
	)
	flag.Parse()

	reqs, _, err := jitgc.GenerateStream(*bench, jitgc.Options{Seed: *seed, Ops: *ops, WorkingSetPages: *ws})
	if err != nil {
		log.Fatal(err)
	}
	if err := write(*out, *bin, reqs); err != nil {
		log.Fatal(err)
	}
	st := trace.Summarize(reqs)
	fmt.Fprintf(os.Stderr, "wrote %d requests: %d read / %d buffered / %d direct pages (buffered share of issued writes %.1f%%)\n",
		st.Requests, st.ReadPages, st.BufferedPages, st.DirectPages, 100*st.BufferedRatio)
}

// write encodes reqs into the file at path (stdout when path is empty) and
// closes the file, returning the first error of either.
func write(path string, binary bool, reqs []trace.Request) (err error) {
	w := io.Writer(os.Stdout)
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = f
	}
	if binary {
		return binlog.EncodeRequests(w, reqs, binlog.Options{})
	}
	return trace.Encode(w, reqs)
}
