package nand

import (
	"errors"
	"fmt"
	"math/bits"
	"time"
)

// Errors returned by Array operations.
var (
	ErrBadAddress        = errors.New("nand: address out of range")
	ErrPageNotWritten    = errors.New("nand: reading a page that was never programmed")
	ErrPageNotFree       = errors.New("nand: programming a page that is not free")
	ErrOutOfOrderProgram = errors.New("nand: pages must be programmed sequentially within a block")
	ErrInjected          = errors.New("nand: injected operation failure")
	ErrWornOut           = errors.New("nand: block past its erase endurance limit")
	errNonPositiveTiming = errors.New("nand: timing values must be positive")
)

// PageState is the lifecycle state of a single NAND page.
type PageState uint8

// Page lifecycle: free (erased) → valid (programmed, mapped) → invalid
// (superseded by an out-of-place update) → free again after a block erase.
const (
	PageFree PageState = iota
	PageValid
	PageInvalid
)

// String returns the lowercase state name.
func (s PageState) String() string {
	switch s {
	case PageFree:
		return "free"
	case PageValid:
		return "valid"
	case PageInvalid:
		return "invalid"
	default:
		return fmt.Sprintf("PageState(%d)", uint8(s))
	}
}

// stateBits packs page states at 2 bits per page (32 states per word).
// At million-block scale this is the difference between one byte per page
// and a quarter of one: a 64 GiB device's page states fit in ~4 MiB.
type stateBits []uint64

const (
	stateBitsPerPage  = 2
	statePagesPerWord = 32
	stateMask         = uint64(0b11)
	stateLowBits      = uint64(0x5555_5555_5555_5555) // the low bit of every lane
)

// newStateBits returns an all-PageFree state bitmap for n pages.
func newStateBits(n int64) stateBits {
	return make(stateBits, (n+statePagesPerWord-1)/statePagesPerWord)
}

// get returns the state of page i.
func (s stateBits) get(i int64) PageState {
	return PageState(s[i/statePagesPerWord] >> (uint(i%statePagesPerWord) * stateBitsPerPage) & stateMask)
}

// set writes the state of page i.
func (s stateBits) set(i int64, st PageState) {
	word := i / statePagesPerWord
	shift := uint(i%statePagesPerWord) * stateBitsPerPage
	s[word] = s[word]&^(stateMask<<shift) | uint64(st)<<shift
}

// setRange writes state st to pages [start, start+n) a word at a time:
// whole words are stored outright, and only a range's first and last word
// need a mask.
func (s stateBits) setRange(start, n int64, st PageState) {
	pattern := uint64(st) * stateLowBits // st in every 2-bit lane
	for end := start + n; start < end; {
		lo := start % statePagesPerWord
		cnt := statePagesPerWord - lo
		if rest := end - start; rest < cnt {
			cnt = rest
		}
		mask := ^uint64(0)
		if cnt < statePagesPerWord {
			mask = 1<<(uint(cnt)*stateBitsPerPage) - 1
		}
		mask <<= uint(lo) * stateBitsPerPage
		w := &s[start/statePagesPerWord]
		*w = *w&^mask | pattern&mask
		start += cnt
	}
}

// PageAddr identifies a physical page by flat block index and in-block page
// index.
type PageAddr struct {
	Block int
	Page  int
}

// PPN returns the flat physical page number of a for a geometry with
// pagesPerBlock pages per block.
func (a PageAddr) PPN(pagesPerBlock int) int64 {
	return int64(a.Block)*int64(pagesPerBlock) + int64(a.Page)
}

// AddrOfPPN is the inverse of PageAddr.PPN.
func AddrOfPPN(ppn int64, pagesPerBlock int) PageAddr {
	return PageAddr{Block: int(ppn / int64(pagesPerBlock)), Page: int(ppn % int64(pagesPerBlock))}
}

// Stats counts operations performed on an Array and the cumulative device
// time they occupied.
type Stats struct {
	Reads    int64
	Programs int64
	Erases   int64
	BusyTime time.Duration
}

// FaultInjector lets tests inject NAND-level operation failures.
// ShouldFail is consulted before each operation; returning true makes the
// operation fail with ErrInjected without changing any state.
type FaultInjector interface {
	ShouldFail(op Op, addr PageAddr) bool
}

// Op identifies a NAND operation kind for fault injection.
type Op uint8

// Operation kinds.
const (
	OpRead Op = iota
	OpProgram
	OpErase
)

// String returns the lowercase operation name.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpProgram:
		return "program"
	case OpErase:
		return "erase"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Array is a timed NAND flash array. It enforces the physical constraints
// real FTLs must respect: a page can be programmed only once between
// erases, pages within a block are programmed in order, and invalid pages
// are reclaimed only by erasing the whole block.
//
// Per-page and per-block metadata lives in flat parallel arrays rather than
// per-block structs: page states pack to 2 bits each, and the payload-token
// plane is allocated only when integrity tracking is wanted, so metadata
// stays a few bytes per page at million-block scale.
//
// Array is not safe for concurrent use; the discrete-event simulator drives
// it from a single goroutine.
type Array struct {
	geo     Geometry
	timing  Timing
	nblocks int
	ppb     int64 // pages per block, widened once

	states     stateBits
	data       []uint64 // payload tokens; nil when integrity tracking is off
	writePtr   []int32  // per block: next page index that may be programmed
	valid      []int32  // per block: count of PageValid pages
	eraseCount []int64  // per block
	retired    []bool   // per block

	// Wear aggregates, kept current by EraseBlock so WearStats never scans:
	// wearHist[c] is the number of blocks (retired ones included) erased
	// exactly c times. Its last bin is always occupied — it grows by one bin
	// when a block first reaches a new maximum — so the maximum is its
	// length less one; wearMin is its first occupied bin.
	wearHist   []int32
	wearMin    int64
	wearErases int64

	stats     Stats
	injector  FaultInjector
	endurance int64 // erase limit per block; 0 = unlimited
}

// NewArray builds an erased array with the given geometry and timing,
// with per-page payload-token tracking enabled (the integrity-checking
// default the tests and golden runs rely on).
func NewArray(geo Geometry, timing Timing) (*Array, error) {
	return newArray(geo, timing, true)
}

// NewBareArray builds an erased array without the payload-token plane:
// ReadPage and PeekPage return zero tokens, and the 8 bytes per page the
// tokens would occupy are never allocated. Large-scale runs that do not
// verify payload integrity use this.
func NewBareArray(geo Geometry, timing Timing) (*Array, error) {
	return newArray(geo, timing, false)
}

// wearHistInitCap is the erase-count histogram's starting capacity. Past it
// the histogram doubles, so a run whose hottest block reaches E erases
// reallocates it log2(E/wearHistInitCap) times in total.
const wearHistInitCap = 256

func newArray(geo Geometry, timing Timing, payloads bool) (*Array, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if err := timing.Validate(); err != nil {
		return nil, err
	}
	nblocks := geo.TotalBlocks()
	a := &Array{
		geo:        geo,
		timing:     timing,
		nblocks:    nblocks,
		ppb:        int64(geo.PagesPerBlock),
		states:     newStateBits(geo.TotalPages()),
		writePtr:   make([]int32, nblocks),
		valid:      make([]int32, nblocks),
		eraseCount: make([]int64, nblocks),
		retired:    make([]bool, nblocks),
		wearHist:   make([]int32, 1, wearHistInitCap),
	}
	a.wearHist[0] = int32(nblocks)
	if payloads {
		a.data = make([]uint64, geo.TotalPages())
	}
	return a, nil
}

// PayloadTracking reports whether the array retains per-page payload tokens.
func (a *Array) PayloadTracking() bool { return a.data != nil }

// MetadataBytes returns the heap footprint of the array's per-page and
// per-block metadata planes — the budget the memory gate tracks.
func (a *Array) MetadataBytes() int64 {
	n := int64(len(a.states))*8 + int64(len(a.data))*8
	n += int64(a.nblocks) * (4 + 4 + 8 + 1) // writePtr, valid, eraseCount, retired
	n += int64(len(a.wearHist)) * 4
	return n
}

// pageIndex returns the flat metadata index of addr.
func (a *Array) pageIndex(addr PageAddr) int64 {
	return int64(addr.Block)*a.ppb + int64(addr.Page)
}

// SetEnduranceLimit sets the per-block erase budget: erasing a block past
// the limit fails with ErrWornOut and retires the block (its pages stay
// readable but it can never be programmed again). 0 removes the limit.
func (a *Array) SetEnduranceLimit(n int64) { a.endurance = n }

// Retired reports whether a block has been retired by wear-out.
func (a *Array) Retired(blockIdx int) bool {
	return blockIdx >= 0 && blockIdx < a.nblocks && a.retired[blockIdx]
}

// RetiredBlocks counts worn-out blocks.
func (a *Array) RetiredBlocks() int {
	n := 0
	for _, r := range a.retired {
		if r {
			n++
		}
	}
	return n
}

// SetFaultInjector installs (or, with nil, removes) a fault injector.
func (a *Array) SetFaultInjector(fi FaultInjector) { a.injector = fi }

// Geometry returns the array geometry.
func (a *Array) Geometry() Geometry { return a.geo }

// Timing returns the array operation timings.
func (a *Array) Timing() Timing { return a.timing }

// Stats returns a snapshot of the operation counters.
func (a *Array) Stats() Stats { return a.stats }

func (a *Array) checkAddr(addr PageAddr) error {
	if addr.Block < 0 || addr.Block >= a.nblocks ||
		addr.Page < 0 || addr.Page >= a.geo.PagesPerBlock {
		return fmt.Errorf("%w: block %d page %d", ErrBadAddress, addr.Block, addr.Page)
	}
	return nil
}

// ReadPage reads one page, returning its payload token and the device time
// consumed. Without payload tracking the token is always zero.
func (a *Array) ReadPage(addr PageAddr) (uint64, time.Duration, error) {
	if err := a.checkAddr(addr); err != nil {
		return 0, 0, err
	}
	if a.injector != nil && a.injector.ShouldFail(OpRead, addr) {
		return 0, 0, fmt.Errorf("%w: read %+v", ErrInjected, addr)
	}
	pi := a.pageIndex(addr)
	if a.states.get(pi) == PageFree {
		return 0, 0, fmt.Errorf("%w: block %d page %d", ErrPageNotWritten, addr.Block, addr.Page)
	}
	a.stats.Reads++
	d := a.timing.ReadCost()
	a.stats.BusyTime += d
	var tok uint64
	if a.data != nil {
		tok = a.data[pi]
	}
	return tok, d, nil
}

// PeekPage returns a page's payload token and state without consuming
// device time or touching the operation counters — a verification aid for
// consistency checks and tests, not part of the device datapath. Without
// payload tracking the token is always zero.
func (a *Array) PeekPage(addr PageAddr) (uint64, PageState, error) {
	if err := a.checkAddr(addr); err != nil {
		return 0, PageFree, err
	}
	pi := a.pageIndex(addr)
	var tok uint64
	if a.data != nil {
		tok = a.data[pi]
	}
	return tok, a.states.get(pi), nil
}

// ProgramPage programs one page with a payload token, marking it valid,
// and returns the device time consumed. The page must be the next free
// page of its block, and the block must not be retired.
func (a *Array) ProgramPage(addr PageAddr, data uint64) (time.Duration, error) {
	if err := a.checkAddr(addr); err != nil {
		return 0, err
	}
	if a.injector != nil && a.injector.ShouldFail(OpProgram, addr) {
		return 0, fmt.Errorf("%w: program %+v", ErrInjected, addr)
	}
	if a.retired[addr.Block] {
		return 0, fmt.Errorf("%w: program on retired block %d", ErrWornOut, addr.Block)
	}
	pi := a.pageIndex(addr)
	if st := a.states.get(pi); st != PageFree {
		return 0, fmt.Errorf("%w: block %d page %d is %v", ErrPageNotFree, addr.Block, addr.Page, st)
	}
	if addr.Page != int(a.writePtr[addr.Block]) {
		return 0, fmt.Errorf("%w: block %d expects page %d, got %d", ErrOutOfOrderProgram, addr.Block, a.writePtr[addr.Block], addr.Page)
	}
	a.states.set(pi, PageValid)
	if a.data != nil {
		a.data[pi] = data
	}
	a.writePtr[addr.Block]++
	a.valid[addr.Block]++
	a.stats.Programs++
	d := a.timing.ProgramCost()
	a.stats.BusyTime += d
	return d, nil
}

// ProgramRun programs len(data) consecutive pages of one block, starting at
// addr, with data's payload tokens in order, and returns the device time
// consumed. It leaves exactly the state len(data) ProgramPage calls leave —
// states, tokens, write pointer, valid count and Stats — but checks the run
// once (checkRun) and writes the page states a word at a time.
func (a *Array) ProgramRun(addr PageAddr, data []uint64) (time.Duration, error) {
	n := len(data)
	if n == 0 {
		return 0, nil
	}
	if err := a.checkRun("program run", addr, n); err != nil {
		return 0, err
	}
	pi := a.pageIndex(addr)
	a.states.setRange(pi, int64(n), PageValid)
	if a.data != nil {
		copy(a.data[pi:], data)
	}
	a.writePtr[addr.Block] += int32(n)
	a.valid[addr.Block] += int32(n)
	a.stats.Programs += int64(n)
	d := time.Duration(n) * a.timing.ProgramCost()
	a.stats.BusyTime += d
	return d, nil
}

// Copyback moves the valid pages of block src named by pages into
// len(pages) consecutive pages starting at dst, in order, and returns the
// device time consumed: the chip-internal copy NAND offers garbage
// collection. It leaves exactly the state one ReadPage, ProgramPage and
// InvalidatePage per page leave — states, tokens, valid counts, write
// pointer and Stats (a read and a program per page) — but checks the run
// once (checkRun) and writes the destination states a word at a time.
// pages must be ascending indexes of valid pages, as ValidPages returns
// them. A refused call changes nothing.
func (a *Array) Copyback(src int, pages []int, dst PageAddr) (time.Duration, error) {
	n := len(pages)
	if n == 0 {
		return 0, nil
	}
	if src < 0 || src >= a.nblocks {
		return 0, fmt.Errorf("%w: copyback from block %d", ErrBadAddress, src)
	}
	if err := a.checkRun("copyback", dst, n); err != nil {
		return 0, err
	}
	base := int64(src) * a.ppb
	prev := -1
	for _, p := range pages {
		if p <= prev || p >= a.geo.PagesPerBlock {
			return 0, fmt.Errorf("%w: copyback of block %d page %d after page %d", ErrBadAddress, src, p, prev)
		}
		if st := a.states.get(base + int64(p)); st != PageValid {
			return 0, fmt.Errorf("nand: copyback of block %d page %d in state %v", src, p, st)
		}
		prev = p
	}
	// The source pages are valid, so they lie below src's write pointer and
	// never overlap the destination run, even when src is dst's block.
	di := a.pageIndex(dst)
	a.states.setRange(di, int64(n), PageValid)
	for i, p := range pages {
		si := base + int64(p)
		a.states.set(si, PageInvalid)
		if a.data != nil {
			a.data[di+int64(i)] = a.data[si]
		}
	}
	a.valid[src] -= int32(n)
	a.writePtr[dst.Block] += int32(n)
	a.valid[dst.Block] += int32(n)
	a.stats.Reads += int64(n)
	a.stats.Programs += int64(n)
	d := time.Duration(n) * a.timing.MigrateCost()
	a.stats.BusyTime += d
	return d, nil
}

// checkRun checks that n pages from addr can be programmed as one run: addr
// is in range, the run ends inside the block, no fault injector is
// installed (its answer is defined per page, so runs refuse it), the block
// is not retired, and addr is the block's next free page. Every page from
// the write pointer to the end of the block is then free: only an erase
// rewinds the pointer, and it frees the whole block.
func (a *Array) checkRun(op string, addr PageAddr, n int) error {
	if err := a.checkAddr(addr); err != nil {
		return err
	}
	if addr.Page+n > a.geo.PagesPerBlock {
		return fmt.Errorf("%w: %s of %d pages from block %d page %d", ErrBadAddress, op, n, addr.Block, addr.Page)
	}
	if a.injector != nil {
		return fmt.Errorf("nand: %s on block %d with a fault injector installed", op, addr.Block)
	}
	if a.retired[addr.Block] {
		return fmt.Errorf("%w: %s on retired block %d", ErrWornOut, op, addr.Block)
	}
	if addr.Page != int(a.writePtr[addr.Block]) {
		return fmt.Errorf("%w: block %d expects page %d, got %d", ErrOutOfOrderProgram, addr.Block, a.writePtr[addr.Block], addr.Page)
	}
	return nil
}

// FaultInjector returns the installed fault injector, or nil.
func (a *Array) FaultInjector() FaultInjector { return a.injector }

// SkipPage consumes the next programmable page of a block without writing
// it: the page goes straight to PageInvalid and the write pointer advances.
// This is how an FTL models a page whose program operation failed — the
// page can never be trusted again until the block is erased, but the
// sequential-program constraint means it cannot simply be left behind.
// Skipping is a metadata operation and consumes no device time.
func (a *Array) SkipPage(addr PageAddr) error {
	if err := a.checkAddr(addr); err != nil {
		return err
	}
	if a.retired[addr.Block] {
		return fmt.Errorf("%w: skip on retired block %d", ErrWornOut, addr.Block)
	}
	pi := a.pageIndex(addr)
	if st := a.states.get(pi); st != PageFree {
		return fmt.Errorf("%w: block %d page %d is %v", ErrPageNotFree, addr.Block, addr.Page, st)
	}
	if addr.Page != int(a.writePtr[addr.Block]) {
		return fmt.Errorf("%w: block %d expects page %d, got %d", ErrOutOfOrderProgram, addr.Block, a.writePtr[addr.Block], addr.Page)
	}
	a.states.set(pi, PageInvalid)
	a.writePtr[addr.Block]++
	return nil
}

// RetireBlock force-retires a block, as a recovery policy does after
// repeated program failures or a failed erase. Valid pages stay readable,
// but the block can never be programmed or erased again.
func (a *Array) RetireBlock(blockIdx int) error {
	if blockIdx < 0 || blockIdx >= a.nblocks {
		return fmt.Errorf("%w: block %d", ErrBadAddress, blockIdx)
	}
	a.retired[blockIdx] = true
	return nil
}

// InvalidatePage marks a previously valid page invalid (an out-of-place
// update superseded it). Invalidation is a metadata operation and consumes
// no device time.
func (a *Array) InvalidatePage(addr PageAddr) error {
	if err := a.checkAddr(addr); err != nil {
		return err
	}
	pi := a.pageIndex(addr)
	if st := a.states.get(pi); st != PageValid {
		return fmt.Errorf("nand: invalidating block %d page %d in state %v", addr.Block, addr.Page, st)
	}
	a.states.set(pi, PageInvalid)
	a.valid[addr.Block]--
	return nil
}

// EraseBlock erases a whole block, freeing every page, and returns the
// device time consumed.
func (a *Array) EraseBlock(blockIdx int) (time.Duration, error) {
	if blockIdx < 0 || blockIdx >= a.nblocks {
		return 0, fmt.Errorf("%w: block %d", ErrBadAddress, blockIdx)
	}
	if a.injector != nil && a.injector.ShouldFail(OpErase, PageAddr{Block: blockIdx}) {
		return 0, fmt.Errorf("%w: erase block %d", ErrInjected, blockIdx)
	}
	if a.retired[blockIdx] {
		return 0, fmt.Errorf("%w: erase on retired block %d", ErrWornOut, blockIdx)
	}
	if a.endurance > 0 && a.eraseCount[blockIdx] >= a.endurance {
		a.retired[blockIdx] = true
		return 0, fmt.Errorf("%w: block %d at %d erases", ErrWornOut, blockIdx, a.eraseCount[blockIdx])
	}
	a.states.setRange(int64(blockIdx)*a.ppb, a.ppb, PageFree)
	a.writePtr[blockIdx] = 0
	a.valid[blockIdx] = 0
	a.countErase(blockIdx)
	a.stats.Erases++
	d := a.timing.EraseBlock
	a.stats.BusyTime += d
	return d, nil
}

// PageStateAt returns the state of one page.
func (a *Array) PageStateAt(addr PageAddr) (PageState, error) {
	if err := a.checkAddr(addr); err != nil {
		return PageFree, err
	}
	return a.states.get(a.pageIndex(addr)), nil
}

// ValidPages appends the indexes of a block's valid pages to buf in
// ascending order and returns the extended slice. It reads the page states
// a word at a time, so a block costs ⌈P/32⌉+1 word reads whatever its valid
// count, and it allocates nothing when buf has room for ValidCount(block)
// more pages. block must be in range, as for ValidCount.
func (a *Array) ValidPages(block int, buf []int) []int {
	start := int64(block) * a.ppb
	end := start + a.ppb
	for w := start / statePagesPerWord; w*statePagesPerWord < end; w++ {
		word := a.states[w]
		valid := word & stateLowBits &^ (word >> 1) // lanes holding 0b01
		lo := w * statePagesPerWord
		if lo < start {
			valid &^= 1<<(uint(start-lo)*stateBitsPerPage) - 1
		}
		if end-lo < statePagesPerWord {
			valid &= 1<<(uint(end-lo)*stateBitsPerPage) - 1
		}
		for ; valid != 0; valid &= valid - 1 {
			buf = append(buf, int(lo+int64(bits.TrailingZeros64(valid)/stateBitsPerPage)-start))
		}
	}
	return buf
}

// ValidCount returns the number of valid pages in a block.
func (a *Array) ValidCount(blockIdx int) int { return int(a.valid[blockIdx]) }

// WritePtr returns the next programmable page index of a block
// (PagesPerBlock when the block is fully written).
func (a *Array) WritePtr(blockIdx int) int { return int(a.writePtr[blockIdx]) }

// EraseCount returns how many times a block has been erased.
func (a *Array) EraseCount(blockIdx int) int64 { return a.eraseCount[blockIdx] }

// countErase bumps a block's erase count and moves it one bin up the wear
// histogram. This is the only place an erase count changes.
func (a *Array) countErase(blockIdx int) {
	c := a.eraseCount[blockIdx]
	a.eraseCount[blockIdx] = c + 1
	a.wearErases++
	if c+1 == int64(len(a.wearHist)) {
		a.wearHist = append(a.wearHist, 0)
	}
	a.wearHist[c]--
	a.wearHist[c+1]++
	if c == a.wearMin && a.wearHist[c] == 0 {
		a.wearMin = c + 1 // the block just moved there, so the bin is occupied
	}
}

// WearStats returns the minimum, maximum and total erase counts across all
// blocks — the inputs to wear-leveling decisions and lifetime accounting.
// Retired blocks keep counting at the erase count they retired with. O(1).
func (a *Array) WearStats() (minErase, maxErase, total int64) {
	return a.wearMin, int64(len(a.wearHist)) - 1, a.wearErases
}

// CheckWear verifies the incrementally kept wear aggregates against a scan
// of every block's erase count. It is an audit for tests and consistency
// sweeps, not part of the device datapath.
func (a *Array) CheckWear() error {
	hist := make([]int32, len(a.wearHist))
	var minErase, maxErase, total int64
	for b, c := range a.eraseCount {
		if c < 0 || c >= int64(len(hist)) {
			return fmt.Errorf("nand: block %d erase count %d outside the wear histogram (%d bins)", b, c, len(hist))
		}
		hist[c]++
		if b == 0 || c < minErase {
			minErase = c
		}
		if c > maxErase {
			maxErase = c
		}
		total += c
	}
	if gotMin, gotMax, gotTotal := a.WearStats(); minErase != gotMin || maxErase != gotMax || total != gotTotal {
		return fmt.Errorf("nand: wear aggregates min/max/total %d/%d/%d, recount says %d/%d/%d",
			gotMin, gotMax, gotTotal, minErase, maxErase, total)
	}
	for c := range hist {
		if hist[c] != a.wearHist[c] {
			return fmt.Errorf("nand: wear histogram counts %d blocks at %d erases, recount says %d",
				a.wearHist[c], c, hist[c])
		}
	}
	return nil
}
