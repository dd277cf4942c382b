// Package nand models a NAND flash memory array: its geometry, operation
// timings, per-block page state, erase wear, and the physical constraints
// (erase-before-write, sequential in-block programming) that make garbage
// collection necessary in the first place.
//
// The model is a substitute for the Samsung SM843T hardware used by the
// JIT-GC paper (Hahn, Lee, Kim — DAC 2015): it reproduces the behaviour GC
// policies react to — page programs, valid-page migration costs, and block
// erases — under a deterministic, configurable geometry.
//
// Beside the per-page operations (ReadPage, ProgramPage, InvalidatePage)
// the array offers two checked run operations that leave exactly the state
// the per-page sequence leaves: ProgramRun, which preconditioning uses, and
// Copyback, the chip-internal copy garbage collection moves a victim's valid
// pages (ValidPages lists them) with, one destination run at a time. A
// fault injector answers per operation, so both refuse to run while one is
// installed; callers then take the per-page path, which is the fault path.
package nand

import (
	"fmt"
	"math"
)

// Geometry describes the physical layout of a NAND array.
//
// Blocks are addressed with a single flat index in
// [0, TotalBlocks()); the channel/chip structure is retained for
// parallelism modelling (see Parallelism).
type Geometry struct {
	// Channels is the number of independent flash channels.
	Channels int
	// ChipsPerChannel is the number of NAND dies attached to each channel.
	ChipsPerChannel int
	// BlocksPerChip is the number of erase blocks per die.
	BlocksPerChip int
	// PagesPerBlock is the number of program pages per erase block.
	PagesPerBlock int
	// PageSize is the page payload in bytes.
	PageSize int
}

// DefaultGeometry returns a scaled-down geometry that keeps the paper's
// structural ratios (many pages per block, multi-channel parallelism,
// write bandwidth ≈ 3-4× GC bandwidth) while letting full experiments run
// in seconds. Total raw capacity is 4 × 1 × 128 × 128 × 4 KiB = 256 MiB.
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:        4,
		ChipsPerChannel: 1,
		BlocksPerChip:   128,
		PagesPerBlock:   128,
		PageSize:        4096,
	}
}

// ScalePreset is a named device capacity for the scale experiments and CLIs:
// the default geometry's block shape (128 × 4 KiB pages) with the chip and
// block counts grown toward real device sizes.
type ScalePreset struct {
	// Name is the capacity label ("256MiB" … "64GiB").
	Name string
	// Geo is the preset geometry.
	Geo Geometry
}

// ScalePresets returns the capacity grid of the scale experiments, from the
// 256 MiB default up to a 64 GiB device (131072 blocks, ~16.8M pages).
// PagesPerBlock and PageSize are held fixed so per-block GC costs stay
// comparable while the block count scales 256×.
func ScalePresets() []ScalePreset {
	geo := func(channels, chips, blocks int) Geometry {
		return Geometry{
			Channels:        channels,
			ChipsPerChannel: chips,
			BlocksPerChip:   blocks,
			PagesPerBlock:   128,
			PageSize:        4096,
		}
	}
	return []ScalePreset{
		{"256MiB", geo(4, 1, 128)},
		{"1GiB", geo(4, 1, 512)},
		{"4GiB", geo(4, 2, 1024)},
		{"16GiB", geo(8, 2, 2048)},
		{"64GiB", geo(8, 4, 4096)},
	}
}

// PresetByName returns the scale preset with the given capacity label.
func PresetByName(name string) (ScalePreset, error) {
	names := make([]string, 0, 8)
	for _, p := range ScalePresets() {
		if p.Name == name {
			return p, nil
		}
		names = append(names, p.Name)
	}
	return ScalePreset{}, fmt.Errorf("nand: unknown geometry preset %q (valid: %v)", name, names)
}

// maxBlocks bounds TotalBlocks: block indices travel through int32 lanes in
// the FTL's victim index and the packed block metadata, so a geometry whose
// block count cannot be an int32 is rejected outright rather than silently
// misindexed.
const maxBlocks = math.MaxInt32

// Validate reports whether every field of g is positive and the derived
// totals are representable: TotalBlocks must fit an int32 and
// TotalPages × PageSize must fit an int64. Without these checks an oversized
// geometry poisons every downstream allocation with an overflowed size.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0:
		return fmt.Errorf("nand: geometry has %d channels", g.Channels)
	case g.ChipsPerChannel <= 0:
		return fmt.Errorf("nand: geometry has %d chips per channel", g.ChipsPerChannel)
	case g.BlocksPerChip <= 0:
		return fmt.Errorf("nand: geometry has %d blocks per chip", g.BlocksPerChip)
	case g.PagesPerBlock <= 0:
		return fmt.Errorf("nand: geometry has %d pages per block", g.PagesPerBlock)
	case g.PageSize <= 0:
		return fmt.Errorf("nand: geometry has page size %d", g.PageSize)
	}
	chips := int64(g.Channels) * int64(g.ChipsPerChannel)
	if chips > maxBlocks {
		return fmt.Errorf("nand: geometry has %d dies, limit %d", chips, int64(maxBlocks))
	}
	blocks := chips * int64(g.BlocksPerChip)
	if blocks/chips != int64(g.BlocksPerChip) || blocks > maxBlocks {
		return fmt.Errorf("nand: geometry has %d × %d blocks, limit %d",
			chips, g.BlocksPerChip, int64(maxBlocks))
	}
	pages := blocks * int64(g.PagesPerBlock)
	if pages/blocks != int64(g.PagesPerBlock) {
		return fmt.Errorf("nand: geometry page count %d × %d overflows int64", blocks, g.PagesPerBlock)
	}
	if bytes := pages * int64(g.PageSize); bytes/pages != int64(g.PageSize) {
		return fmt.Errorf("nand: geometry byte capacity %d × %d overflows int64", pages, g.PageSize)
	}
	return nil
}

// TotalChips returns the number of dies in the array.
func (g Geometry) TotalChips() int { return g.Channels * g.ChipsPerChannel }

// TotalBlocks returns the number of erase blocks in the array. Validate
// guarantees the product fits (well inside) an int.
func (g Geometry) TotalBlocks() int { return g.TotalChips() * g.BlocksPerChip }

// TotalPages returns the number of program pages in the array. The count is
// int64: a validated geometry may hold more pages than a 32-bit int.
func (g Geometry) TotalPages() int64 { return int64(g.TotalBlocks()) * int64(g.PagesPerBlock) }

// Parallelism returns the number of flash operations the array can perform
// concurrently: one per die.
func (g Geometry) Parallelism() int { return g.TotalChips() }
