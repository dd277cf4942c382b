package workload

// holePool is FileChurn's pool of unlinked extents awaiting reuse. Its
// allocation order is part of the generated stream: alloc is first-fit and
// allocLargest takes the earliest of the largest holes, both in the order the
// holes were pushed, a split hole keeping its place.
type holePool interface {
	push(churnExtent)
	// alloc carves pages off the front of the earliest hole that holds them.
	alloc(pages int) (churnExtent, bool)
	// allocLargest takes the whole of the earliest hole of the largest size.
	allocLargest() (churnExtent, bool)
}

// holeList is the holePool the generator runs on. Holes sit at positions in
// push order under a max-tournament of their sizes (tree[1] is the root,
// tree[leaves+i] the size at position i), so "the earliest hole of at least n
// pages" is one root-to-leaf descent instead of a walk over every hole. A
// hole taken whole stays behind as a zero-size position; when the positions
// run out compact squeezes those out, order kept. Memory is O(peak holes)
// and nothing is allocated except when the tree doubles.
type holeList struct {
	lpn    []int64 // start of the hole at each position, len ≤ leaves
	tree   []int   // 2·leaves nodes, each the larger of its two children
	leaves int     // zero or a power of two
	live   int     // positions of non-zero size
}

const minHoleLeaves = 64

func (h *holeList) push(ext churnExtent) {
	if len(h.lpn) == h.leaves {
		h.compact()
	}
	h.lpn = append(h.lpn, ext.lpn)
	h.resize(len(h.lpn)-1, ext.pages)
	h.live++
}

func (h *holeList) alloc(pages int) (churnExtent, bool) {
	if h.live == 0 || h.tree[1] < pages {
		return churnExtent{}, false
	}
	// Every node on the way down holds a fitting hole; left is earlier.
	k := 1
	for k < h.leaves {
		k *= 2
		if h.tree[k] < pages {
			k++
		}
	}
	i := k - h.leaves
	ext := churnExtent{lpn: h.lpn[i], pages: pages}
	h.lpn[i] += int64(pages)
	h.resize(i, h.tree[k]-pages)
	if h.tree[k] == 0 {
		h.live--
	}
	return ext, true
}

func (h *holeList) allocLargest() (churnExtent, bool) {
	if h.live == 0 {
		return churnExtent{}, false
	}
	return h.alloc(h.tree[1])
}

// resize sets the size at position i and replays its matches up the tree.
func (h *holeList) resize(i, pages int) {
	k := h.leaves + i
	h.tree[k] = pages
	for k /= 2; k >= 1; k /= 2 {
		m := max(h.tree[2*k], h.tree[2*k+1])
		if h.tree[k] == m {
			break
		}
		h.tree[k] = m
	}
}

// compact drops the zero-size positions, keeping the others in order, and
// doubles the tree when the live holes would fill more than ¾ of it — so at
// least a quarter of the positions are free again afterwards and the O(leaves)
// rebuild is paid once per that many pushes.
func (h *holeList) compact() {
	sizes, lpn := h.tree[h.leaves:], h.lpn
	if h.leaves == 0 || 4*h.live > 3*h.leaves {
		h.leaves = max(minHoleLeaves, 2*h.leaves)
		h.tree = make([]int, 2*h.leaves)
		h.lpn = make([]int64, 0, h.leaves)
	}
	// When the tree was kept this packs in place, writing behind the read.
	packed, starts, n := h.tree[h.leaves:], h.lpn[:h.leaves], 0
	for i, start := range lpn {
		if sizes[i] > 0 {
			packed[n], starts[n] = sizes[i], start
			n++
		}
	}
	clear(packed[n:])
	h.lpn = starts[:n]
	for k := h.leaves - 1; k >= 1; k-- {
		h.tree[k] = max(h.tree[2*k], h.tree[2*k+1])
	}
}
