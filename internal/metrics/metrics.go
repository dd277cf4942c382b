// Package metrics defines the result records the evaluation reports —
// IOPS, WAF, latency distribution, GC activity, prediction accuracy, and
// SIP filtering effect — plus the normalization helpers the paper's
// figures use (all values normalized to the A-BGC baseline).
package metrics

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
	"unicode/utf8"

	"jitgc/internal/telemetry"
)

// Results summarizes one simulation run.
type Results struct {
	// Policy is the BGC policy name.
	Policy string
	// Workload is the benchmark name.
	Workload string

	// Requests is the number of host requests completed.
	Requests int64
	// SimTime is the simulated duration including any device overrun.
	SimTime time.Duration
	// IOPS is Requests divided by the completion time of the last host
	// request. Trailing device overrun — background collections still
	// draining after the final completion — is excluded, so IOPS reflects
	// the rate the host observed. SustainedIOPS includes it.
	IOPS float64
	// SustainedIOPS is Requests divided by SimTime, i.e. including any
	// trailing device overrun, the rate the device sustained end to end.
	// It is ≤ IOPS and equals it when the run ends with an idle device.
	SustainedIOPS float64

	// WAF is the write amplification factor.
	WAF float64
	// HostPrograms, GCMigrations, WastedMigrations and Erases mirror the
	// FTL counters.
	HostPrograms     int64
	GCMigrations     int64
	WastedMigrations int64
	Erases           int64

	// MeanLatency, P99Latency and MaxLatency describe host request
	// latency.
	MeanLatency time.Duration
	P99Latency  time.Duration
	MaxLatency  time.Duration
	// StreamingLatency reports that the latency distribution came from the
	// constant-memory streaming recorder, so percentiles are bucket-accurate
	// (≤ ~3% relative error) rather than exact order statistics.
	StreamingLatency bool

	// FGCInvocations counts foreground GC stalls; BGCCollections counts
	// background victim collections.
	FGCInvocations int64
	BGCCollections int64

	// TrimmedPages counts pages discarded by host TRIM commands.
	TrimmedPages int64
	// MappedPages is the live logical footprint at the end of the run; with
	// the device's total pages it yields the measured effective
	// over-provisioning in the sense of Frankie et al.
	MappedPages int64
	// CacheReadHits counts read pages served from the page cache without
	// touching the device.
	CacheReadHits int64

	// FilteredVictimPct is the share of victim selections where SIP
	// filtering rejected the plain-greedy choice (paper Table 3), in
	// percent.
	FilteredVictimPct float64

	// Predictive reports whether the policy forecasts demand; if so,
	// PredictionAccuracy is the Table 2 metric in [0,1].
	Predictive         bool
	PredictionAccuracy float64

	// MinErase and MaxErase bound per-block wear at the end of the run.
	MinErase, MaxErase int64

	// BufferedPages and DirectPages count host write pages by type as they
	// reached the device (flushes vs direct), for Table 1 style breakdowns.
	BufferedPages, DirectPages int64

	// Fault-injection outcomes, all zero when no fault model is configured.
	// InjectedFaults counts NAND operations failed by the fault model;
	// ProgramFaults and EraseFaults split the write-path share by op.
	// ReadRetries counts re-read attempts that recovery spent on failed
	// page reads, UnrecoverableReads the pages lost after the retry budget,
	// and RetiredBlocks the blocks taken out of service by the recovery
	// policies (erase failures and repeated program failures).
	InjectedFaults     int64
	ProgramFaults      int64
	EraseFaults        int64
	ReadRetries        int64
	UnrecoverableReads int64
	RetiredBlocks      int64
}

// BufferedRatio returns the buffered share of device writes in [0,1].
func (r Results) BufferedRatio() float64 {
	total := r.BufferedPages + r.DirectPages
	if total == 0 {
		return 0
	}
	return float64(r.BufferedPages) / float64(total)
}

// String renders a one-line summary.
func (r Results) String() string {
	acc := "-"
	if r.Predictive {
		acc = fmt.Sprintf("%.1f%%", 100*r.PredictionAccuracy)
	}
	return fmt.Sprintf("%s/%s: IOPS=%.0f WAF=%.3f FGC=%d BGC=%d filt=%.1f%% acc=%s",
		r.Workload, r.Policy, r.IOPS, r.WAF, r.FGCInvocations, r.BGCCollections,
		r.FilteredVictimPct, acc)
}

// NormalizedIOPS returns r's IOPS relative to base's.
func (r Results) NormalizedIOPS(base Results) float64 {
	if base.IOPS == 0 {
		return math.NaN()
	}
	return r.IOPS / base.IOPS
}

// NormalizedWAF returns r's WAF relative to base's.
func (r Results) NormalizedWAF(base Results) float64 {
	if base.WAF == 0 {
		return math.NaN()
	}
	return r.WAF / base.WAF
}

// LatencyRecorder accumulates request latencies and reports distribution
// statistics. The zero value records exactly: every sample is retained and
// percentiles are true order statistics (the mode the golden files are
// rendered under). NewStreamingLatencyRecorder instead folds samples into a
// log-bucketed histogram with memory constant in sample count, for runs too
// long to retain — percentiles are then accurate to one histogram bucket
// (≤ ~3% relative error) and Samples returns nil.
type LatencyRecorder struct {
	samples     []time.Duration
	sorted      []time.Duration // cached ascending copy, see sortedStale
	sortedStale bool            // sorted must be refilled before use
	sum         time.Duration
	max         time.Duration
	count       int64
	hist        *telemetry.LogHist // non-nil selects streaming mode
}

// NewStreamingLatencyRecorder builds a recorder in streaming mode: constant
// memory, bucket-accurate percentiles, mergeable via Hist.
func NewStreamingLatencyRecorder() *LatencyRecorder {
	return &LatencyRecorder{hist: telemetry.NewLogHist()}
}

// Streaming reports whether the recorder is in streaming (constant-memory)
// mode.
func (l *LatencyRecorder) Streaming() bool { return l.hist != nil }

// Hist returns the backing streaming histogram (nil in exact mode), for
// merging across array members.
func (l *LatencyRecorder) Hist() *telemetry.LogHist { return l.hist }

// Reserve makes room for n more samples in one allocation, so a run of
// known length does not pay for append's doubling (every sample copied
// about once more, and a backing array up to twice the run). It is a no-op
// in streaming mode, which retains no samples.
func (l *LatencyRecorder) Reserve(n int) {
	if l.hist == nil {
		l.samples = slices.Grow(l.samples, n)
	}
}

// Add records one latency sample.
func (l *LatencyRecorder) Add(d time.Duration) {
	if l.hist != nil {
		l.hist.Add(int64(d))
	} else {
		l.samples = append(l.samples, d)
		// Invalidate the percentile cache but keep its backing array: the
		// next Percentile refills it in place instead of reallocating
		// len(samples) on every cold query.
		l.sortedStale = true
	}
	l.count++
	l.sum += d
	if d > l.max {
		l.max = d
	}
}

// Count returns the number of samples.
func (l *LatencyRecorder) Count() int { return int(l.count) }

// Mean returns the mean latency (0 with no samples).
func (l *LatencyRecorder) Mean() time.Duration {
	if l.count == 0 {
		return 0
	}
	return l.sum / time.Duration(l.count)
}

// Max returns the maximum latency.
func (l *LatencyRecorder) Max() time.Duration { return l.max }

// Samples returns the recorded latencies in arrival order (nil in
// streaming mode, which does not retain them). The slice is the recorder's
// own backing store — callers must not modify it.
func (l *LatencyRecorder) Samples() []time.Duration { return l.samples }

// Percentile returns the p-th percentile latency (p in [0,100]). In exact
// mode the sorted order is computed once and cached until the next Add, so
// querying p99 and p99.9 back-to-back sorts once; in streaming mode every
// query is an O(1)-memory histogram walk.
func (l *LatencyRecorder) Percentile(p float64) time.Duration {
	if l.count == 0 {
		return 0
	}
	if l.hist != nil {
		return time.Duration(l.hist.Quantile(p / 100))
	}
	if l.sortedStale || l.sorted == nil {
		l.sorted = append(l.sorted[:0], l.samples...)
		slices.Sort(l.sorted)
		l.sortedStale = false
	}
	sorted := l.sorted
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// Table renders rows of labelled values as an aligned text table, the
// output format of cmd/paperbench.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes are warnings rendered under the table (e.g. a degenerate
	// normalization baseline); reporting tools treat their presence as a
	// non-zero-exit condition.
	Notes []string
	// Info are informational notes rendered under the table (e.g. which
	// latency recorder a run used); unlike Notes they do not signal a
	// problem and reporting tools ignore them for exit status.
	Info []string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a warning note.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// AddInfo appends an informational note.
func (t *Table) AddInfo(format string, args ...any) {
	t.Info = append(t.Info, fmt.Sprintf(format, args...))
}

// String renders the table. Column widths are measured in runes, not
// bytes: fmt's %-*s padding counts runes, so a byte-measured width would
// over-pad any column whose widest cell contains a multibyte rune (every
// time.Duration under 1 ms renders with a two-byte µ) and break the
// column's alignment against its separator row.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if n := utf8.RuneCountInString(cell); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "warning: %s\n", n)
	}
	for _, n := range t.Info {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
