// Command jitgctrace views, inspects, and merges binlog event streams (the
// columnar binary format of internal/telemetry/binlog).
//
// Usage:
//
//	jitgctrace convert [-o OUT] [IN]
//	jitgctrace info IN
//	jitgctrace merge -o OUT IN...
//
// convert writes a binlog stream as JSONL, byte for byte what a JSONL sink
// on the same tracer writes. IN defaults to stdin and OUT to stdout, so the
// command pipes; OUT is created only once IN has opened as a binlog stream.
//
// info prints a stream's footer index summary without decoding blocks.
//
// merge k-way merges time-ordered binlog streams (one per array member,
// say) into a single time-ordered binlog stream.
//
// convert and merge stream: OUT must not be one of the inputs.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"jitgc/internal/telemetry/binlog"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("jitgctrace: ")

	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "convert":
		runConvert(os.Args[2:])
	case "info":
		runInfo(os.Args[2:])
	case "merge":
		runMerge(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  jitgctrace convert [-o OUT] [IN]   binlog -> JSONL
  jitgctrace info IN                 print a stream's footer index summary
  jitgctrace merge -o OUT IN...      merge time-ordered binlog streams
`)
	os.Exit(2)
}

func runConvert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if fs.NArg() > 1 {
		usage()
	}

	rd, err := binlog.NewReader(openInput(fs.Arg(0)))
	if err != nil {
		log.Fatal(err)
	}
	dst, closeDst := openOutput(*out, fs.Arg(0))
	n, err := binlog.ToJSONL(dst, rd)
	if err != nil {
		log.Fatalf("binlog -> JSONL: %v", err)
	}
	closeDst()
	fmt.Fprintf(os.Stderr, "binlog -> JSONL: %d events\n", n)
}

func runInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		log.Fatal(err)
	}
	idx, err := binlog.ReadIndex(f)
	if err != nil {
		log.Fatal(err)
	}
	var events int64
	for _, e := range idx {
		events += e.Events
	}
	fmt.Printf("file      %s\n", fs.Arg(0))
	fmt.Printf("size      %d bytes\n", st.Size())
	fmt.Printf("blocks    %d\n", len(idx))
	fmt.Printf("events    %d\n", events)
	if events > 0 {
		fmt.Printf("bytes/ev  %.2f\n", float64(st.Size())/float64(events))
		fmt.Printf("time      %v .. %v\n", idx[0].FirstT, idx[len(idx)-1].LastT)
	}
}

func runMerge(args []string) {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	out := fs.String("o", "", "output file (required)")
	fs.Parse(args)
	if *out == "" || fs.NArg() == 0 {
		usage()
	}

	var srcs []binlog.EventSource
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r, err := binlog.NewReader(f)
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		srcs = append(srcs, r)
	}
	dst, closeDst := openOutput(*out, fs.Args()...)
	w := binlog.NewWriter(dst, binlog.Options{})
	m := binlog.NewMerger(srcs...)
	for {
		ev, err := m.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		if err := w.WriteEvent(ev); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	closeDst()
	fmt.Fprintf(os.Stderr, "merged %d streams: %d events\n", len(srcs), w.Count())
}

func openInput(path string) io.Reader {
	if path == "" || path == "-" {
		return os.Stdin
	}
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	return f
}

// openOutput returns the destination writer and a close func that must run
// on success (buffered output is flushed there, so errors surface). Inputs
// are streamed, so a path that is also one of inputs (by any name) is
// refused before it is created: creating it would truncate the input.
func openOutput(path string, inputs ...string) (io.Writer, func()) {
	if path == "" || path == "-" {
		bw := bufio.NewWriter(os.Stdout)
		return bw, func() {
			if err := bw.Flush(); err != nil {
				log.Fatal(err)
			}
		}
	}
	if outInfo, err := os.Stat(path); err == nil {
		for _, in := range inputs {
			if in == "-" {
				continue
			}
			if inInfo, err := os.Stat(in); err == nil && os.SameFile(outInfo, inInfo) {
				log.Fatalf("output %s is also an input", path)
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	return f, func() {
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
}
