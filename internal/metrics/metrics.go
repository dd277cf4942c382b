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
// rendered under). Bound(n) promises that at most n more samples arrive;
// the recorder then retains only the largest ⌊N/100⌋+2 of the N samples it
// will count, which is every sample a percentile at or above p99 reads, and
// still answers those exactly. NewStreamingLatencyRecorder instead folds
// samples into a log-bucketed histogram with memory constant in sample
// count — percentiles are then accurate to one histogram bucket (≤ ~3%
// relative error).
type LatencyRecorder struct {
	// samples holds, in exact mode, the largest len(samples) of the count
	// samples added, ascending while sorted. Unbounded, that is all of them.
	samples []time.Duration
	sorted  bool // samples is in ascending order; Add clears it
	sum     time.Duration
	max     time.Duration
	count   int64
	hist    *telemetry.LogHist // non-nil selects streaming mode

	// Bounded exact mode (keep > 0): the recorder counts at most limit
	// samples and cuts samples back to its largest keep whenever it fills
	// its capacity of 2·keep; floor is then the least sample kept, and an
	// Add at or below it is counted but not retained.
	keep  int
	limit int64
	floor time.Duration
}

// minSamples is the capacity an unbounded exact recorder starts at; it
// doubles from there.
const minSamples = 256

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

// Bound promises that at most n more samples will be added, and sizes an
// exact recorder for them in one allocation: of the N samples it may then
// count in all, it keeps the largest K = ⌊N/100⌋+2, in a buffer of 2K.
// Percentile answers exactly for every p whose order statistic lies in that
// tail — p99 and above for any count up to N — and panics below it; Add
// panics past N. Bounds add up until the recorder first drops a sample;
// bounding it again after that panics, since the samples a larger tail
// would need are gone. It is a no-op in streaming mode, which retains no
// samples.
func (l *LatencyRecorder) Bound(n int) {
	if l.hist != nil {
		return
	}
	if l.dropped() {
		panic(fmt.Sprintf("metrics: LatencyRecorder.Bound(%d) after the recorder cut its samples to the retained tail of %d", n, l.keep))
	}
	if l.keep == 0 {
		l.limit = l.count
		l.floor = math.MinInt64
	}
	l.limit += int64(n)
	l.keep = int(l.limit/100) + 2
	size := 2 * l.keep
	if len(l.samples) >= size {
		l.cut()
	}
	if cap(l.samples) < size {
		l.samples = append(make([]time.Duration, 0, size), l.samples...)
	}
	l.samples = l.samples[:len(l.samples):size]
}

// dropped reports whether some counted sample is not retained.
func (l *LatencyRecorder) dropped() bool { return int64(len(l.samples)) < l.count }

// cut sorts the samples and keeps the largest keep of them: all a bounded
// recorder's percentiles can still read.
func (l *LatencyRecorder) cut() {
	slices.Sort(l.samples)
	l.samples = l.samples[:copy(l.samples, l.samples[len(l.samples)-l.keep:])]
	l.sorted = true
	l.floor = l.samples[0]
}

// Add records one latency sample.
func (l *LatencyRecorder) Add(d time.Duration) {
	switch {
	case l.hist != nil:
		l.hist.Add(int64(d))
	case l.keep > 0:
		if l.count == l.limit {
			panic(fmt.Sprintf("metrics: LatencyRecorder.Add past its Bound of %d samples", l.limit))
		}
		if d > l.floor {
			if len(l.samples) == cap(l.samples) {
				l.cut()
			}
			l.samples = append(l.samples, d)
			l.sorted = false
		}
	default:
		if len(l.samples) == cap(l.samples) {
			// Double, not append's 1.25× steps: a run of n samples then
			// allocates about 2n in all, not 4–5n.
			l.samples = append(make([]time.Duration, 0, max(minSamples, 2*cap(l.samples))), l.samples...)
		}
		l.samples = append(l.samples, d)
		l.sorted = false
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

// Percentile returns the p-th percentile latency (p in [0,100]): the
// ⌈p/100·n⌉-th smallest of the n samples counted. In exact mode the
// retained samples are sorted in place on the first query after an Add, so
// querying p99 and p99.9 back-to-back sorts once and copies nothing; in
// streaming mode every query is an O(1)-memory histogram walk. A bounded
// recorder that has dropped samples panics when asked for one of them.
func (l *LatencyRecorder) Percentile(p float64) time.Duration {
	if l.count == 0 {
		return 0
	}
	if l.hist != nil {
		return time.Duration(l.hist.Quantile(p / 100))
	}
	if !l.sorted {
		slices.Sort(l.samples)
		l.sorted = true
	}
	var idx int64 // of the sample wanted, among all counted in ascending order
	switch {
	case p >= 100:
		idx = l.count - 1
	case p > 0:
		idx = max(0, int64(math.Ceil(p/100*float64(l.count)))-1)
	}
	// The retained samples are the largest of all counted, so the dropped
	// ones all come before them in that order.
	i := idx - (l.count - int64(len(l.samples)))
	if i < 0 {
		panic(fmt.Sprintf("metrics: LatencyRecorder.Percentile(%v) is below the retained tail of the %d largest of %d samples",
			p, len(l.samples), l.count))
	}
	return l.samples[i]
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
