// Package lpnmap is the table keyed by logical page number: the page
// cache's LPN → slot index and the workload generators' per-page coalescing
// state. Every buffered write, cached read and TRIM looks a page up in it,
// page by page. An LPN is already a small integer, so no hashing is needed:
// a page's value sits in a 64-page chunk found through a directory indexed
// by lpn/64, and an extent's pages sit side by side.
package lpnmap

import "iter"

// chunkPages is how many consecutive pages share a chunk.
const chunkPages = 64

// minDirChunks is the smallest directory a Set grows: the zero Table's
// first Set covers 65,536 LPNs.
const minDirChunks = 1 << 16 / chunkPages

// minArena is the fewest chunks an arena holds, unless the directory has
// fewer left to carve.
const minArena = 64

// Table maps non-negative LPNs to values of type V; the zero V means never
// set or cleared. A chunk exists only once one of its pages is set, and
// chunks are carved from arenas: each new arena holds as many chunks as are
// already carved (at least minArena), capped by the directory's entries not
// yet carved. Allocations are thus logarithmic in the chunks the table
// touches, and memory beyond the directory's pointer per 64 pages stays
// within twice those chunks (or one minimum arena), whatever the LPN range.
// A directory that is outgrown doubles, to cover at least 65,536 LPNs and
// the LPN being set. The zero Table is empty and ready to use. It is not
// safe for concurrent use.
type Table[V comparable] struct {
	dir    []*[chunkPages]V
	arena  [][chunkPages]V // the current arena's chunks not yet handed out
	carved int
}

// NewTable returns a table whose directory covers exactly pages LPNs; it
// grows on demand past them.
func NewTable[V comparable](pages int64) Table[V] {
	return Table[V]{dir: make([]*[chunkPages]V, (pages+chunkPages-1)/chunkPages)}
}

// Get returns lpn's value. A negative lpn is never set.
func (t *Table[V]) Get(lpn int64) (v V) {
	if c := uint64(lpn) / chunkPages; c < uint64(len(t.dir)) && t.dir[c] != nil {
		return t.dir[c][uint64(lpn)%chunkPages]
	}
	return v
}

// Set stores v for lpn. It panics on a negative lpn: callers validate LPNs
// where they enter the program.
func (t *Table[V]) Set(lpn int64, v V) {
	if lpn < 0 {
		panic("lpnmap: negative LPN")
	}
	c := uint64(lpn) / chunkPages
	if c >= uint64(len(t.dir)) {
		dir := make([]*[chunkPages]V, max(c+1, 2*uint64(len(t.dir)), minDirChunks))
		copy(dir, t.dir)
		t.dir = dir
	}
	if t.dir[c] == nil {
		if len(t.arena) == 0 {
			t.arena = make([][chunkPages]V, min(max(t.carved, minArena), len(t.dir)-t.carved))
		}
		t.dir[c] = &t.arena[0]
		t.arena = t.arena[1:]
		t.carved++
	}
	t.dir[c][uint64(lpn)%chunkPages] = v
}

// Clear zeroes lpn's value. A page whose chunk was never carved already
// reads zero, so clearing it allocates nothing.
func (t *Table[V]) Clear(lpn int64) {
	if c := uint64(lpn) / chunkPages; c < uint64(len(t.dir)) && t.dir[c] != nil {
		var zero V
		t.dir[c][uint64(lpn)%chunkPages] = zero
	}
}

// All yields every LPN whose value is not zero, with that value, in LPN
// order. It walks the carved chunks: for audits, not the request path.
func (t *Table[V]) All() iter.Seq2[int64, V] {
	return func(yield func(int64, V) bool) {
		var zero V
		for c, ch := range t.dir {
			if ch == nil {
				continue
			}
			for i, v := range ch {
				if v != zero && !yield(int64(c)*chunkPages+int64(i), v) {
					return
				}
			}
		}
	}
}
