package workload

import "time"

// chunkPages is how many consecutive pages share a chunk of the page table.
const chunkPages = 64

// chunk holds the slots of chunkPages consecutive pages.
type chunk [chunkPages]time.Duration

// pageTable maps each LPN to a time.Duration slot, 0 for a page never set.
// Pages live in 64-page chunks found through a directory indexed by
// lpn/64, so an extent's pages sit side by side and lookups need no
// hashing. A chunk exists only once one of its pages is set, and chunks are
// carved from arenas: each new arena holds as many chunks as are already
// carved (at least one), capped by the directory's chunks not yet carved.
// Allocations are thus logarithmic in the chunks a stream touches, and
// memory beyond the directory's pointer per 64 pages stays within twice
// those chunks, whatever the LPN range.
type pageTable struct {
	dir    []*chunk
	arena  []chunk // the current arena's chunks not yet handed out
	carved int
}

// newPageTable returns a table whose directory covers pages LPNs; it grows
// on demand past them.
func newPageTable(pages int64) pageTable {
	return pageTable{dir: make([]*chunk, (pages+chunkPages-1)/chunkPages)}
}

// get returns lpn's slot.
func (t *pageTable) get(lpn int64) time.Duration {
	if c := lpn / chunkPages; c < int64(len(t.dir)) && t.dir[c] != nil {
		return t.dir[c][lpn%chunkPages]
	}
	return 0
}

// set stores v in lpn's slot.
func (t *pageTable) set(lpn int64, v time.Duration) {
	c := lpn / chunkPages
	if c >= int64(len(t.dir)) {
		t.dir = append(t.dir, make([]*chunk, c+1-int64(len(t.dir)))...)
	}
	if t.dir[c] == nil {
		if len(t.arena) == 0 {
			t.arena = make([]chunk, min(max(t.carved, 1), len(t.dir)-t.carved))
		}
		t.dir[c] = &t.arena[0]
		t.arena = t.arena[1:]
		t.carved++
	}
	t.dir[c][lpn%chunkPages] = v
}

// clear zeroes lpn's slot. A page whose chunk was never carved already
// reads 0, so clearing it allocates nothing.
func (t *pageTable) clear(lpn int64) {
	if c := lpn / chunkPages; c < int64(len(t.dir)) && t.dir[c] != nil {
		t.dir[c][lpn%chunkPages] = 0
	}
}
