package sim

import (
	"errors"
	"testing"
	"time"

	"jitgc/internal/ftl"
	"jitgc/internal/nand"
	"jitgc/internal/trace"
)

// failPrograms fails every NAND program: a device that dies on its first
// write.
type failPrograms struct{}

func (failPrograms) ShouldFail(op nand.Op, _ nand.PageAddr) bool { return op == nand.OpProgram }

// TestFailedBeginIsSticky: a precondition that fails must fail every later
// Begin and every run too, not leave an empty device that serves requests.
func TestFailedBeginIsSticky(t *testing.T) {
	cfg := tinyConfig()
	cfg.PreconditionPages = 100
	s := newSim(t, cfg, lazyFactory)
	s.FTL().Device().SetFaultInjector(failPrograms{})
	first := s.Begin()
	if !errors.Is(first, nand.ErrInjected) {
		t.Fatalf("Begin on a dying device = %v, want ErrInjected", first)
	}
	s.FTL().Device().SetFaultInjector(nil)
	if err := s.Begin(); err != first {
		t.Errorf("second Begin = %v, want the first one's %v", err, first)
	}
	reqs := []trace.Request{{Time: time.Millisecond, Kind: trace.DirectWrite, LPN: 0, Pages: 1}}
	if _, err := s.RunClosedLoop(reqs); err != first {
		t.Errorf("run after a failed Begin = %v, want %v", err, first)
	}
	if s.requests != 0 {
		t.Errorf("%d requests served after a failed Begin", s.requests)
	}
}

// BenchmarkBegin times preconditioning to 90% of user capacity, the fill
// every jitgc.Run cell and array member starts from, on the default 256 MiB
// device (55,123 pages) and on the 4 GiB preset without payload tokens
// (881,979 pages). Construction is outside the timer; ns/page is the
// figure to compare.
func BenchmarkBegin(b *testing.B) {
	preset, err := nand.PresetByName("4GiB")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		geo       nand.Geometry
		integrity bool
	}{
		{"256MiB", nand.DefaultGeometry(), true},
		{"4GiB", preset.Geo, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.FTL.Geometry = c.geo
			cfg.FTL.DisableIntegrity = !c.integrity
			user := ftl.UserPagesFor(c.geo.TotalPages(), cfg.FTL.OPRatio)
			cfg.PreconditionPages = int64(0.90 * float64(user))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := New(cfg, lazyFactory)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := s.Begin(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*cfg.PreconditionPages), "ns/page")
		})
	}
}
