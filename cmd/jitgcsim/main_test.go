package main

import (
	"testing"

	"jitgc"
	"jitgc/internal/nand"
)

// TestTimelineKeepsSizePreset pins the fix for `-devices N -size P -timeline
// f.csv`: switching timeline capture on must build on the -size device
// configuration, not replace it with the default geometry.
func TestTimelineKeepsSizePreset(t *testing.T) {
	preset, err := nand.PresetByName("4GiB")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := presetConfig("4GiB")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.FTL.Geometry != preset.Geo || !cfg.FTL.DisableIntegrity {
		t.Fatalf("presetConfig(4GiB) = geometry %+v, DisableIntegrity %v; want the preset geometry without integrity",
			cfg.FTL.Geometry, cfg.FTL.DisableIntegrity)
	}

	got := withTimeline(jitgc.Options{Seed: 7, Config: &cfg})
	if got.Config.FTL.Geometry != preset.Geo || !got.Config.FTL.DisableIntegrity {
		t.Errorf("withTimeline dropped the size preset: geometry %+v, DisableIntegrity %v",
			got.Config.FTL.Geometry, got.Config.FTL.DisableIntegrity)
	}
	if !got.Config.RecordTimeline || got.Seed != 7 {
		t.Errorf("withTimeline: RecordTimeline %v, Seed %d; want true, 7", got.Config.RecordTimeline, got.Seed)
	}
	if cfg.RecordTimeline {
		t.Error("withTimeline mutated the caller's config")
	}

	// Without a preset it starts from the default device.
	if def := withTimeline(jitgc.Options{}); !def.Config.RecordTimeline || def.Config.FTL.DisableIntegrity {
		t.Errorf("withTimeline on empty options: RecordTimeline %v, DisableIntegrity %v; want true, false",
			def.Config.RecordTimeline, def.Config.FTL.DisableIntegrity)
	}

	if _, err := presetConfig("3GiB"); err == nil {
		t.Error("unknown size preset accepted")
	}
}
