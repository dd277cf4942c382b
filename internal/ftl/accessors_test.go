package ftl

import (
	"testing"
	"time"
)

func TestAccessors(t *testing.T) {
	cfg := quickGeometry()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Config().OPRatio; got != cfg.OPRatio {
		t.Errorf("Config().OPRatio = %v", got)
	}
	if got := f.PageSize(); got != 4096 {
		t.Errorf("PageSize() = %d", got)
	}
	wantWritable := f.FreePages() - int64(freeBlockReserve*cfg.Geometry.PagesPerBlock)
	if got := f.WritablePages(); got != wantWritable {
		t.Errorf("WritablePages() = %d, want %d", got, wantWritable)
	}
	if got := f.WritableBytes(); got != wantWritable*4096 {
		t.Errorf("WritableBytes() = %d", got)
	}
}

func TestGCBandwidthTracksOccupancy(t *testing.T) {
	f, err := New(quickGeometry())
	if err != nil {
		t.Fatal(err)
	}
	empty := f.GCBandwidth()
	if empty <= 0 {
		t.Fatalf("GCBandwidth on empty device = %v", empty)
	}
	// Overwrite a small working set so victim candidates carry mostly
	// invalid pages: cheap victims must raise reclaim bandwidth above the
	// no-candidate default of 50% assumed utilization.
	for i := 0; i < 600; i++ {
		if _, _, err := f.Write(int64(i) % (f.UserPages() / 2)); err != nil {
			t.Fatal(err)
		}
		f.SetNow(time.Duration(i) * time.Millisecond)
	}
	loaded := f.GCBandwidth()
	if loaded <= empty {
		t.Errorf("GCBandwidth loaded = %v, empty = %v; want loaded > empty", loaded, empty)
	}
	if wb := f.WriteBandwidth(); wb <= 0 {
		t.Errorf("WriteBandwidth = %v", wb)
	}
}
