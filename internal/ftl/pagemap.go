package ftl

import (
	"math"
	"math/bits"
)

// pageMap is a page-number translation table (L2P or P2L) of 4-byte
// entries. Every stored value is a page number in [-1, TotalPages), and
// Config.Validate holds TotalPages below math.MaxInt32, so each fits an
// int32: everything up to 8 TiB at 4 KiB pages.
type pageMap []int32

// newPageMap returns a map of n entries, all unmapped.
func newPageMap(n int64) pageMap {
	m := make(pageMap, n)
	for i := range m {
		m[i] = int32(unmapped)
	}
	return m
}

// at returns entry i.
func (m pageMap) at(i int64) int64 { return int64(m[i]) }

// set writes entry i.
func (m pageMap) set(i, v int64) { m[i] = int32(v) }

// setSeq writes entries i, i+1, …, i+n-1 with v, v+1, …, v+n-1: a run of
// consecutive pages mapped to consecutive pages, in either direction.
func (m pageMap) setSeq(i, v, n int64) {
	s := m[i : i+n]
	for k := range s {
		s[k] = int32(v + int64(k))
	}
}

// bytes returns the heap footprint of the entry array.
func (m pageMap) bytes() int64 { return int64(len(m)) * 4 }

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
