package nand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultGeometryValid(t *testing.T) {
	if err := DefaultGeometry().Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
}

func TestGeometryDerivedQuantities(t *testing.T) {
	g := Geometry{Channels: 4, ChipsPerChannel: 2, BlocksPerChip: 8, PagesPerBlock: 16, PageSize: 4096}
	if got, want := g.TotalChips(), 8; got != want {
		t.Errorf("TotalChips = %d, want %d", got, want)
	}
	if got, want := g.TotalBlocks(), 64; got != want {
		t.Errorf("TotalBlocks = %d, want %d", got, want)
	}
	if got, want := g.TotalPages(), int64(1024); got != want {
		t.Errorf("TotalPages = %d, want %d", got, want)
	}
	if got, want := g.Parallelism(), 8; got != want {
		t.Errorf("Parallelism = %d, want %d", got, want)
	}
}

func TestGeometryValidateRejectsNonPositiveFields(t *testing.T) {
	base := DefaultGeometry()
	mutations := []func(*Geometry){
		func(g *Geometry) { g.Channels = 0 },
		func(g *Geometry) { g.ChipsPerChannel = -1 },
		func(g *Geometry) { g.BlocksPerChip = 0 },
		func(g *Geometry) { g.PagesPerBlock = 0 },
		func(g *Geometry) { g.PageSize = -4096 },
	}
	for i, mutate := range mutations {
		g := base
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("mutation %d: Validate accepted invalid geometry %+v", i, g)
		}
	}
}

// Regression: Validate used to accept geometries whose block/page/byte
// products overflow, poisoning every downstream allocation size.
func TestGeometryValidateRejectsOverflow(t *testing.T) {
	cases := []struct {
		name string
		g    Geometry
	}{
		{"blocks exceed int32", Geometry{
			Channels: 1 << 16, ChipsPerChannel: 1 << 8, BlocksPerChip: 1 << 12,
			PagesPerBlock: 128, PageSize: 4096,
		}},
		{"block product overflows", Geometry{
			Channels: math.MaxInt32, ChipsPerChannel: 2, BlocksPerChip: math.MaxInt32,
			PagesPerBlock: 128, PageSize: 4096,
		}},
		{"page product overflows", Geometry{
			Channels: 1 << 10, ChipsPerChannel: 1 << 10, BlocksPerChip: 1 << 10,
			PagesPerBlock: math.MaxInt32, PageSize: 4096,
		}},
		{"byte capacity overflows", Geometry{
			Channels: 1 << 10, ChipsPerChannel: 1 << 10, BlocksPerChip: 1 << 10,
			PagesPerBlock: 1 << 10, PageSize: math.MaxInt32,
		}},
	}
	for _, c := range cases {
		if err := c.g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.g)
		}
	}
}

func TestScalePresetsValidAndOrdered(t *testing.T) {
	presets := ScalePresets()
	if len(presets) == 0 {
		t.Fatal("no scale presets")
	}
	prev := int64(0)
	for _, p := range presets {
		if err := p.Geo.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", p.Name, err)
		}
		if b := p.Geo.TotalPages(); b <= prev {
			t.Errorf("preset %s capacity %d not above previous %d", p.Name, b, prev)
		} else {
			prev = b
		}
	}
	if presets[0].Geo != DefaultGeometry() {
		t.Errorf("smallest preset %s is not the default geometry", presets[0].Name)
	}
	if got := presets[len(presets)-1].Geo.TotalPages(); got < 16<<20 {
		t.Errorf("largest preset has %d pages, want ≥ 16M", got)
	}
	if _, err := PresetByName("64GiB"); err != nil {
		t.Errorf("PresetByName(64GiB): %v", err)
	}
	if _, err := PresetByName("nope"); err == nil {
		t.Error("PresetByName accepted unknown name")
	}
}

func TestPPNRoundTripProperty(t *testing.T) {
	const ppb = 128
	f := func(block uint16, page uint8) bool {
		addr := PageAddr{Block: int(block), Page: int(page) % ppb}
		return AddrOfPPN(addr.PPN(ppb), ppb) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
