// Timeline captures the per-interval free-space trajectory of the same
// workload under L-BGC, A-BGC and JIT-GC and writes one CSV per policy —
// the data behind the paper's free-space intuition: L-BGC hugs the floor,
// A-BGC hoards, JIT-GC tracks the predicted demand.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"jitgc"
	"jitgc/internal/metrics"
	"jitgc/internal/telemetry"
)

func main() {
	benchmark := "YCSB"
	if len(os.Args) > 1 {
		benchmark = os.Args[1]
	}

	fmt.Printf("free-space trajectories for %s:\n\n", benchmark)
	for _, spec := range []jitgc.PolicySpec{jitgc.Lazy(), jitgc.Aggressive(), jitgc.JIT()} {
		// The timeline is rebuilt from the run's per-tick events.
		sink := &metrics.TimelineSink{}
		res, err := jitgc.Run(benchmark, spec, jitgc.Options{Ops: 40000, Tracer: telemetry.New(sink)})
		if err != nil {
			log.Fatal(err)
		}
		tl := sink.Merged()

		var minFree, maxFree, sum int64
		if len(tl) > 0 {
			minFree = tl[0].FreeBytes
		}
		for _, p := range tl {
			if p.FreeBytes < minFree {
				minFree = p.FreeBytes
			}
			if p.FreeBytes > maxFree {
				maxFree = p.FreeBytes
			}
			sum += p.FreeBytes
		}
		mean := int64(0)
		if len(tl) > 0 {
			mean = sum / int64(len(tl))
		}

		path := filepath.Join(os.TempDir(), fmt.Sprintf("jitgc-timeline-%s.csv", res.Policy))
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := metrics.WriteTimelineCSV(f, tl); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s free space min/mean/max %5.1f / %5.1f / %5.1f MB   WAF %.3f FGC %-4d → %s\n",
			res.Policy, float64(minFree)/1e6, float64(mean)/1e6, float64(maxFree)/1e6,
			res.WAF, res.FGCInvocations, path)
	}
	fmt.Println("\nPlot free_bytes over t_us from the CSVs to see each policy's reserve behaviour.")
}
