package ftl

import (
	"math"
	"math/bits"
)

// pageMap is a page-number translation table (L2P or P2L) whose entry width
// adapts to the device: devices whose page count fits an int32 — everything
// up to 8 TiB at 4 KiB pages — store 4-byte entries, halving the dominant
// metadata plane; larger devices fall back to 8-byte entries. The accessor
// pair at/set hides the width from the FTL and the consistency checker.
type pageMap struct {
	e32 []int32
	e64 []int64
}

// newPageMap returns a map of n entries, all unmapped. totalPages decides
// the entry width: every stored value is a page number in
// [-1, totalPages), so the one bound covers L2P and P2L tables both.
func newPageMap(n, totalPages int64) pageMap {
	if totalPages < math.MaxInt32 {
		m := pageMap{e32: make([]int32, n)}
		for i := range m.e32 {
			m.e32[i] = -1
		}
		return m
	}
	m := pageMap{e64: make([]int64, n)}
	for i := range m.e64 {
		m.e64[i] = unmapped
	}
	return m
}

// at returns entry i.
func (m pageMap) at(i int64) int64 {
	if m.e32 != nil {
		return int64(m.e32[i])
	}
	return m.e64[i]
}

// set writes entry i.
func (m pageMap) set(i, v int64) {
	if m.e32 != nil {
		m.e32[i] = int32(v)
		return
	}
	m.e64[i] = v
}

// setSeq writes entries i, i+1, …, i+n-1 with v, v+1, …, v+n-1: a run of
// consecutive pages mapped to consecutive pages, in either direction.
func (m pageMap) setSeq(i, v, n int64) {
	if m.e32 != nil {
		s := m.e32[i : i+n]
		for k := range s {
			s[k] = int32(v + int64(k))
		}
		return
	}
	s := m.e64[i : i+n]
	for k := range s {
		s[k] = v + int64(k)
	}
}

// bytes returns the heap footprint of the entry array.
func (m pageMap) bytes() int64 {
	return int64(len(m.e32))*4 + int64(len(m.e64))*8
}

// UserPagesFor returns the exposed user capacity for a device of totalPages
// physical pages at the given over-provisioning ratio:
// ⌊totalPages / (1 + opRatio)⌋, computed in integer arithmetic.
//
// The previous float64 round-trip loses low bits once totalPages approaches
// 2^53 and can disagree with the exact quotient even earlier, depending on
// how the ratio rounds; every component must derive the identical
// capacity, so the division is exact: opRatio is scaled to parts-per-billion
// and the quotient taken with 128-bit intermediate precision.
func UserPagesFor(totalPages int64, opRatio float64) int64 {
	if totalPages <= 0 {
		return 0
	}
	const scale = 1_000_000_000
	ratio := int64(math.Round(opRatio * scale))
	if ratio < 0 {
		ratio = 0
	}
	// totalPages × scale / (scale + ratio), with the numerator in 128 bits.
	// The quotient always fits: it is ≤ totalPages. Div64 cannot trap —
	// hi < 2^63·scale/2^64 < scale + ratio for all valid inputs.
	hi, lo := bits.Mul64(uint64(totalPages), scale)
	q, _ := bits.Div64(hi, lo, uint64(scale+ratio))
	return int64(q)
}
