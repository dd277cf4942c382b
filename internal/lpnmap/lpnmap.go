// Package lpnmap is the hash table the simulator keys by logical page number
// on its per-page paths: the page cache's LPN → slot index and the workload
// generators' coalescing model. Those paths look a
// page up for every page of every request, and a Go map pays a hash call and
// a group walk each time. An LPN is already a small integer, so one multiply
// and one shift place it, and a lookup is a short linear scan of adjacent
// 16-byte slots.
package lpnmap

import "math/bits"

// Map maps non-negative LPNs to values of type V. It is an open-addressed
// table with linear probing: a power-of-two number of slots, the home slot
// taken from the top bits of a multiplicative hash, deletion by shifting the
// rest of the probe run back (no tombstones, so lookups never slow down with
// churn), and doubling when an insert would pass ¾ load. Memory is O(peak
// entries); nothing is allocated except when the table doubles. The zero
// Map is empty and ready to use. It is not safe for concurrent use.
type Map[V any] struct {
	slots []slot[V] // len is zero or a power of two
	n     int
	shift uint // 64 − log2(len(slots))
}

// slot stores lpn+1, so that a zeroed slot is an empty one.
type slot[V any] struct {
	key uint64
	val V
}

const minSlots = 8

// home is the slot a key probes from. The golden-ratio multiplier spreads
// the sequential and strided LPNs extents are made of over the whole table.
func (m *Map[V]) home(key uint64) int { return int(key * 0x9E3779B97F4A7C15 >> m.shift) }

// find returns the slot holding key, or the empty slot that ends its probe
// run. The table always has an empty slot, so the scan ends.
func (m *Map[V]) find(key uint64) (i int, ok bool) {
	mask := len(m.slots) - 1
	for i = m.home(key); ; i = (i + 1) & mask {
		switch m.slots[i].key {
		case 0:
			return i, false
		case key:
			return i, true
		}
	}
}

// Len returns the number of entries.
func (m *Map[V]) Len() int { return m.n }

// Get returns the value stored for lpn. A negative lpn is never present.
func (m *Map[V]) Get(lpn int64) (v V, ok bool) {
	if m.n == 0 {
		return v, false
	}
	i, ok := m.find(uint64(lpn) + 1)
	if !ok {
		return v, false
	}
	return m.slots[i].val, true
}

// Set stores v for lpn, replacing any earlier value. It panics on a negative
// lpn: callers validate LPNs where they enter the program.
func (m *Map[V]) Set(lpn int64, v V) {
	if lpn < 0 {
		panic("lpnmap: negative LPN")
	}
	key := uint64(lpn) + 1
	i := 0
	if len(m.slots) != 0 {
		var ok bool
		if i, ok = m.find(key); ok {
			m.slots[i].val = v
			return
		}
	}
	if 4*(m.n+1) > 3*len(m.slots) {
		m.grow()
		i, _ = m.find(key)
	}
	m.slots[i] = slot[V]{key, v}
	m.n++
}

// grow doubles the table and re-places every entry.
func (m *Map[V]) grow() {
	old := m.slots
	size := max(minSlots, 2*len(old))
	m.slots = make([]slot[V], size)
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.key != 0 {
			i, _ := m.find(s.key)
			m.slots[i] = s
		}
	}
}

// Delete removes lpn and reports whether it was present.
func (m *Map[V]) Delete(lpn int64) bool {
	if m.n == 0 {
		return false
	}
	i, ok := m.find(uint64(lpn) + 1)
	if !ok {
		return false
	}
	// Close the gap: an entry further along the run moves back into it when
	// the gap lies on its probe path, that is when it sits at least as far
	// from its home as from the gap. The run ends at the first empty slot.
	mask := len(m.slots) - 1
	for j := (i + 1) & mask; m.slots[j].key != 0; j = (j + 1) & mask {
		if (j-m.home(m.slots[j].key))&mask >= (j-i)&mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = slot[V]{}
	m.n--
	return true
}
