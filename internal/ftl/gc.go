package ftl

import (
	"errors"
	"fmt"
	"time"

	"jitgc/internal/nand"
)

// BlockInfo describes a GC victim candidate for selectors.
type BlockInfo struct {
	// Index is the flat block index.
	Index int
	// Valid is the number of valid pages that would need migration.
	Valid int
	// SIPValid is how many of those valid pages are on the current SIP
	// list, i.e. will shortly be invalidated by a page-cache flush.
	SIPValid int
	// EraseCount is the block's wear.
	EraseCount int64
	// LastInvalidate is when a page of the block last became invalid.
	LastInvalidate time.Duration
	// Age is how long ago that was (the "age" input of cost-benefit
	// selection).
	Age time.Duration
	// PagesPerBlock is the block capacity, for utilization math.
	PagesPerBlock int
}

// Utilization returns the valid-page fraction u of the block.
func (b BlockInfo) Utilization() float64 {
	if b.PagesPerBlock == 0 {
		return 0
	}
	return float64(b.Valid) / float64(b.PagesPerBlock)
}

// VictimSelector picks a GC victim among candidate blocks. Selectors must
// be deterministic: the simulator relies on reproducible runs.
type VictimSelector interface {
	// Name identifies the selector in reports.
	Name() string
	// Select returns the position in cands of the chosen victim.
	// cands is never empty.
	Select(cands []BlockInfo) int
}

// Greedy selects the block with the fewest valid pages — the classical
// minimum-migration victim policy. Ties break toward the lower block index
// for determinism.
type Greedy struct{}

// Name implements VictimSelector.
func (Greedy) Name() string { return "greedy" }

// Select implements VictimSelector.
func (Greedy) Select(cands []BlockInfo) int {
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].Valid < cands[best].Valid ||
			(cands[i].Valid == cands[best].Valid && cands[i].Index < cands[best].Index) {
			best = i
		}
	}
	return best
}

// CostBenefit selects by the classical cost-benefit score
// age × (1−u)/(2u): prefer old blocks with low utilization. Fully invalid
// blocks (u = 0) are always taken first.
type CostBenefit struct{}

// Name implements VictimSelector.
func (CostBenefit) Name() string { return "cost-benefit" }

// Select implements VictimSelector.
func (CostBenefit) Select(cands []BlockInfo) int {
	best, bestScore := 0, -1.0
	for i, c := range cands {
		if c.Valid == 0 {
			return i
		}
		u := c.Utilization()
		score := float64(c.Age) * (1 - u) / (2 * u)
		if score > bestScore || (score == bestScore && c.Index < cands[best].Index) {
			best, bestScore = i, score
		}
	}
	return best
}

// SIPGreedy is the paper's extended victim selection: greedy, modified to
// avoid blocks holding soon-to-be-invalidated pages, because migrating a
// SIP page is useless work — it is about to be rewritten by a page-cache
// flush anyway.
//
// Avoidance is bounded: among candidates within SlackPages extra
// migrations of the plain greedy choice, the selector picks the one with
// the fewest SIP pages; unbounded avoidance would itself inflate write
// amplification past what it saves. MaxSIPFraction sets the taint level at
// which a block is worth avoiding at all — below it the greedy choice
// stands untouched.
type SIPGreedy struct {
	// MaxSIPFraction is the SIPValid/Valid ratio below which a block is
	// not considered tainted. 0 treats any block with a SIP page as worth
	// avoiding.
	MaxSIPFraction float64
	// SlackPages bounds how many extra valid-page migrations an
	// alternative choice may cost relative to plain greedy (default 8
	// when zero).
	SlackPages int
}

// Name implements VictimSelector.
func (SIPGreedy) Name() string { return "sip-greedy" }

// Select implements VictimSelector.
func (s SIPGreedy) Select(cands []BlockInfo) int {
	slack := s.SlackPages
	if slack == 0 {
		slack = 8
	}
	greedy := Greedy{}.Select(cands)
	g := cands[greedy]
	if g.Valid == 0 || float64(g.SIPValid)/float64(g.Valid) <= s.MaxSIPFraction {
		return greedy // not tainted enough to pay anything for
	}
	best := greedy
	for i, c := range cands {
		if c.Valid > g.Valid+slack {
			continue
		}
		b := cands[best]
		if c.SIPValid < b.SIPValid ||
			(c.SIPValid == b.SIPValid && c.Valid < b.Valid) ||
			(c.SIPValid == b.SIPValid && c.Valid == b.Valid && c.Index < b.Index) {
			best = i
		}
	}
	return best
}

// UpdateSIP applies the host's change to the soon-to-be-invalidated page
// set (paper §3.1/§3.3): with reset the set is emptied first, then the pages
// in add join it and those in drop leave it. Only the pages named are
// touched — their bits, and for the mapped ones the per-block SIP counters
// used by SIP-aware victim selection and the wasted-migration metric. LPNs
// outside the user capacity, additions already present and removals already
// absent are ignored.
func (f *FTL) UpdateSIP(reset bool, add, drop []int64) {
	if reset && f.sipPages > 0 {
		clear(f.sipBits)
		clear(f.sipPerBlock)
		f.sipPages = 0
	}
	ppb := f.cfg.Geometry.PagesPerBlock
	for _, lpn := range add {
		if lpn < 0 || lpn >= f.userPages || f.onSIPList(lpn) {
			continue
		}
		f.sipBits[lpn>>6] |= 1 << (lpn & 63)
		f.sipPages++
		if ppn := f.l2p.at(lpn); ppn != unmapped {
			f.sipPerBlock[int(ppn)/ppb]++
		}
	}
	for _, lpn := range drop {
		if lpn < 0 || lpn >= f.userPages || !f.onSIPList(lpn) {
			continue
		}
		f.sipBits[lpn>>6] &^= 1 << (lpn & 63)
		f.sipPages--
		if ppn := f.l2p.at(lpn); ppn != unmapped {
			f.sipPerBlock[int(ppn)/ppb]--
		}
	}
}

// onSIPList reports whether lpn, a valid user LPN, is on the SIP list.
func (f *FTL) onSIPList(lpn int64) bool { return f.sipBits[lpn>>6]&(1<<(lpn&63)) != 0 }

// SIPListSize returns the number of LPNs on the current SIP list.
func (f *FTL) SIPListSize() int { return f.sipPages }

// appendCandidates appends the blocks eligible for collection — fully
// written, not free, not active, not retired, with something to reclaim —
// to dst in ascending index order and returns it, so steady-state callers
// can reuse one buffer. The built-in selectors no longer materialize this
// view (they read the victim index); it remains the candidate interface
// handed to custom selectors.
func (f *FTL) appendCandidates(dst []BlockInfo) []BlockInfo {
	geo := f.cfg.Geometry
	ppb := geo.PagesPerBlock
	for b := 0; b < geo.TotalBlocks(); b++ {
		if f.inFreePool[b] || b == f.hostActive || b == f.gcActive || f.dev.Retired(b) {
			continue
		}
		if f.dev.WritePtr(b) < ppb {
			continue
		}
		if f.dev.ValidCount(b) >= ppb {
			continue // nothing reclaimable
		}
		age := f.now - f.lastInvalidate[b]
		if age < 0 {
			age = 0
		}
		dst = append(dst, BlockInfo{
			Index:          b,
			Valid:          f.dev.ValidCount(b),
			SIPValid:       f.sipPerBlock[b],
			EraseCount:     f.dev.EraseCount(b),
			LastInvalidate: f.lastInvalidate[b],
			Age:            age,
			PagesPerBlock:  ppb,
		})
	}
	return dst
}

// pickVictim chooses the next GC victim from the incremental index without
// allocating, replicating the retired full-scan behaviour exactly: the
// same victim, the same VictimSelections/FilteredSelections accounting.
// Custom selectors (anything beyond the three built-ins) still get the
// materialized candidate slice, built into a reused scratch buffer. ok is
// false when no block is collectible.
func (f *FTL) pickVictim(foreground bool) (victim int, ok bool) {
	if f.idx.size == 0 {
		return 0, false
	}
	greedy := f.idx.greedyVictim()
	if foreground {
		// Foreground collections always use plain greedy: a stalled host
		// write needs space at minimum cost (see selectVictim).
		f.stats.VictimSelections++
		return greedy, true
	}
	var choice int
	switch s := f.cfg.Selector.(type) {
	case Greedy:
		choice = greedy
	case CostBenefit:
		choice = f.costBenefitVictim()
	case SIPGreedy:
		choice = f.sipGreedyVictim(s, greedy)
	default:
		f.candScratch = f.appendCandidates(f.candScratch[:0])
		return f.candScratch[f.selectVictim(f.candScratch, false)].Index, true
	}
	f.stats.VictimSelections++
	// Table 3 counts selections where SIP filtering paid migration cost to
	// avoid a tainted block — the same predicate selectVictim applies.
	if greedy != choice &&
		f.sipPerBlock[greedy] > f.sipPerBlock[choice] &&
		f.idx.valid(choice) > f.idx.valid(greedy) {
		f.stats.FilteredSelections++
	}
	return choice, true
}

// costBenefitVictim evaluates the cost-benefit policy over the index's
// bucket champions. Within a bucket every member shares the utilization
// term, so the score is maximized by the smallest (lastInvalidate, index)
// — exactly the cached champion — and the full-scan winner is always some
// bucket's champion. A fully-invalid block short-circuits, as in
// CostBenefit.Select; the tree root is the lowest-indexed such block.
func (f *FTL) costBenefitVictim() int {
	ix := f.idx
	root := ix.greedyVictim()
	if ix.valid(root) == 0 {
		return root
	}
	ppb := float64(f.cfg.Geometry.PagesPerBlock)
	best, bestScore := -1, -1.0
	for v := 1; v < ix.ppb; v++ {
		c := ix.champ[v]
		if c < 0 {
			continue
		}
		b := int(c)
		age := f.now - f.lastInvalidate[b]
		if age < 0 {
			age = 0
		}
		u := float64(v) / ppb
		score := float64(age) * (1 - u) / (2 * u)
		if score > bestScore || (score == bestScore && b < best) {
			best, bestScore = b, score
		}
	}
	return best
}

// sipGreedyVictim evaluates SIP-aware selection over the bounded bucket
// frontier Valid ≤ greedy+slack, walking only the blocks a migration-cost
// budget could ever justify — cold buckets beyond the slack are never
// touched. The comparison chain matches SIPGreedy.Select term for term.
func (f *FTL) sipGreedyVictim(s SIPGreedy, greedy int) int {
	slack := s.SlackPages
	if slack == 0 {
		slack = 8
	}
	ix := f.idx
	gv := ix.valid(greedy)
	gs := f.sipPerBlock[greedy]
	if gv == 0 || float64(gs)/float64(gv) <= s.MaxSIPFraction {
		return greedy // not tainted enough to pay anything for
	}
	best, bestSIP, bestValid := greedy, gs, gv
	limit := gv + slack
	if limit > ix.ppb-1 {
		limit = ix.ppb - 1
	}
	for v := 0; v <= limit; v++ {
		for m := ix.bhead[v]; m >= 0; m = ix.next[m] {
			b := int(m)
			sv := f.sipPerBlock[b]
			if sv < bestSIP ||
				(sv == bestSIP && v < bestValid) ||
				(sv == bestSIP && v == bestValid && b < best) {
				best, bestSIP, bestValid = b, sv, v
			}
		}
	}
	return best
}

// collectOnce collects one victim block: migrate its valid pages to the GC
// destination stream, erase it, and return it to the free pool. foreground
// tags the episode for accounting. It returns the device time consumed.
func (f *FTL) collectOnce(foreground bool) (time.Duration, error) {
	var victim int
	if wl, ok := f.wearVictim(); ok {
		victim = wl
		f.stats.VictimSelections++
	} else {
		v, ok := f.pickVictim(foreground)
		if !ok {
			return 0, fmt.Errorf("%w: %d free blocks, no candidates", ErrNoFreeBlocks, len(f.freeBlocks))
		}
		victim = v
	}
	traced := f.tr.Enabled()
	var freeBefore int64
	if traced {
		freeBefore = f.FreePages()
		f.tr.GCStart(f.now, foreground, victim, f.dev.ValidCount(victim), f.sipPerBlock[victim])
	}
	// The victim leaves the index while it is emptied: one removal here
	// instead of a tree update per migrated page (it would be the root, so
	// each would replay the full height).
	f.collecting = victim
	f.syncIndex(victim)
	// Every exit below must pass through finish exactly once: it puts the
	// victim back in the index at its true valid count if it is still
	// collectible (an aborted collection) and leaves it out if it was
	// pooled or retired, and it pairs gc_start/gc_end 1:1 in trace streams
	// even when a migration or erase fails mid-collection.
	finish := func(total time.Duration) {
		f.collecting = -1
		f.syncIndex(victim)
		if traced {
			f.tr.GCEnd(f.now, foreground, victim, f.FreePages()-freeBefore, total)
		}
	}

	var total time.Duration
	ppb := f.cfg.Geometry.PagesPerBlock
	for page := 0; page < ppb; page++ {
		addr := nand.PageAddr{Block: victim, Page: page}
		st, err := f.dev.PageStateAt(addr)
		if err != nil {
			finish(total)
			return total, err
		}
		if st != nand.PageValid {
			continue
		}
		d, err := f.migratePage(addr)
		total += d
		if err != nil {
			finish(total)
			return total, err
		}
	}

	d, err := f.dev.EraseBlock(victim)
	if err != nil {
		switch {
		case errors.Is(err, nand.ErrWornOut):
			// The block retired at its erase limit: its valid data was
			// already migrated, so it simply drops out of circulation and
			// the device shrinks. Collection achieved no free space, but
			// the migration work was real — account it.
			f.accountCollection(foreground, total)
			finish(total)
			return total, nil
		case f.recoveryOn && errors.Is(err, nand.ErrInjected):
			// Erase failure: retire the victim instead of returning it to
			// the free pool. Like wear-out, the valid data was already
			// migrated and the device just shrinks.
			f.stats.EraseFaults++
			f.tr.FaultInjected(f.now, "erase", victim, 0, -1)
			f.retireBlock(victim, "erase")
			f.accountCollection(foreground, total)
			finish(total)
			return total, nil
		}
		finish(total)
		return total, err
	}
	total += d
	f.stats.Erases++
	f.poolBlock(victim)
	f.progFails[victim] = 0

	f.accountCollection(foreground, total)
	if traced {
		f.tr.Erase(f.now, victim, f.dev.EraseCount(victim), d)
	}
	finish(total)
	return total, nil
}

// accountCollection attributes one victim collection's device time to the
// background counters (foreground episodes are accounted per host write in
// Write, which sums collectOnce durations into FGCTime). Collections whose
// victim retired instead of freeing space are charged like any other: the
// migration work happened.
func (f *FTL) accountCollection(foreground bool, total time.Duration) {
	if !foreground {
		f.stats.BGCCollections++
		f.stats.BGCTime += total
	}
}

// wlCooldown bounds how often static wear leveling may hijack victim
// selection: at most one in wlCooldown collections, so leveling cannot
// starve space reclamation (wear-leveling victims may be fully valid and
// free no space).
const wlCooldown = 8

// wearVictim returns the block static wear leveling wants recycled, if the
// wear spread exceeds the threshold and the cooldown has elapsed. Unlike
// regular victim selection it considers fully-valid blocks — cold data
// parks in them indefinitely and only leveling ever moves it.
func (f *FTL) wearVictim() (int, bool) {
	if f.cfg.WearThreshold == 0 {
		return 0, false
	}
	if f.stats.VictimSelections-f.lastWLSelection < wlCooldown {
		return 0, false
	}
	minE, maxE, _ := f.dev.WearStats()
	if maxE-minE <= f.cfg.WearThreshold {
		return 0, false
	}
	geo := f.cfg.Geometry
	best, found := 0, false
	for b := 0; b < geo.TotalBlocks(); b++ {
		if f.inFreePool[b] || b == f.hostActive || b == f.gcActive || f.dev.Retired(b) {
			continue
		}
		if f.dev.WritePtr(b) < geo.PagesPerBlock {
			continue
		}
		if !found || f.dev.EraseCount(b) < f.dev.EraseCount(best) {
			best, found = b, true
		}
	}
	if found {
		f.lastWLSelection = f.stats.VictimSelections
	}
	return best, found
}

// selectVictim applies the configured selector, tracking the Table 3
// filtered-selection metric. Foreground collections always use plain
// greedy: a stalled host write needs space at minimum cost, and the
// paper's SIP filtering applies to background GC only.
func (f *FTL) selectVictim(cands []BlockInfo, foreground bool) int {
	f.stats.VictimSelections++
	if foreground {
		return Greedy{}.Select(cands)
	}

	choice := f.cfg.Selector.Select(cands)
	if choice < 0 || choice >= len(cands) {
		choice = Greedy{}.Select(cands)
	}
	// Table 3 counts selections where SIP filtering paid migration cost to
	// avoid a tainted block (cost-free tie swaps are not "filtering").
	greedy := (Greedy{}).Select(cands)
	if greedy != choice &&
		cands[greedy].SIPValid > cands[choice].SIPValid &&
		cands[choice].Valid > cands[greedy].Valid {
		f.stats.FilteredSelections++
	}
	return choice
}

// migratePage copies one valid page (payload included) to the GC
// destination stream. With recovery on, an unrecoverable read of the
// source page drops its mapping (the data is gone; copying garbage
// forward would be worse) and the collection continues, while program
// failures are absorbed by programRecovered.
func (f *FTL) migratePage(src nand.PageAddr) (time.Duration, error) {
	ppb := f.cfg.Geometry.PagesPerBlock
	srcPPN := src.PPN(ppb)
	lpn := f.p2l.at(srcPPN)
	if lpn == unmapped {
		panic(fmt.Sprintf("ftl: migrating valid page %v with no reverse mapping", src))
	}

	var total time.Duration
	payload, d, err := f.readRecovered(src, lpn)
	total += d
	if err != nil {
		if f.recoveryOn && errors.Is(err, nand.ErrInjected) {
			f.dropLostPage(lpn)
			return total, nil
		}
		return total, err
	}

	dst, d, err := f.programRecovered(payload, true)
	total += d
	if err != nil {
		return total, err
	}

	// Migration invalidates without touching lastInvalidate (the data is
	// not newly cold, it just moved), and without an index update: the
	// source is the block being collected, which collectOnce holds out of
	// the index until it knows the block's fate.
	if err := f.dev.InvalidatePage(src); err != nil {
		return total, err
	}
	dstPPN := dst.PPN(ppb)
	f.l2p.set(lpn, dstPPN)
	f.p2l.set(dstPPN, lpn)
	f.p2l.set(srcPPN, unmapped)

	f.stats.GCMigrations++
	if f.onSIPList(lpn) {
		f.stats.WastedMigrations++
		// SIP counter moves with the page: decrement source block,
		// increment destination block.
		f.sipPerBlock[src.Block]--
		f.sipPerBlock[dst.Block]++
	}
	return total, nil
}

// CollectBackgroundOnce collects a single victim block in background mode,
// returning the net free pages gained and the device time consumed. The
// simulator calls it chunk-by-chunk so background GC can be interleaved
// with (and effectively preempted by) arriving host requests at victim
// granularity.
func (f *FTL) CollectBackgroundOnce() (freedPages int64, elapsed time.Duration, err error) {
	before := f.FreePages()
	elapsed, err = f.collectOnce(false)
	return f.FreePages() - before, elapsed, err
}

// ResetStats zeroes the activity counters (e.g. after preconditioning) while
// preserving block wear state.
func (f *FTL) ResetStats() { f.stats = Stats{} }

// ReclaimResult reports what a background reclaim accomplished.
type ReclaimResult struct {
	// FreedPages is the net gain in free pages.
	FreedPages int64
	// CollectedBlocks is how many victims were erased.
	CollectedBlocks int
	// Elapsed is the device time consumed.
	Elapsed time.Duration
}

// ReclaimBackground runs background GC until at least targetPages of
// additional free space exist (or no further victim is collectible) and at
// most maxTime of device time is spent (0 = unlimited). This is the
// operation BGC policies schedule into idle periods.
func (f *FTL) ReclaimBackground(targetPages int64, maxTime time.Duration) (ReclaimResult, error) {
	var res ReclaimResult
	start := f.FreePages()
	for f.FreePages()-start < targetPages {
		if maxTime > 0 && res.Elapsed >= maxTime {
			break
		}
		before := f.FreePages()
		d, err := f.collectOnce(false)
		if err != nil {
			res.FreedPages = f.FreePages() - start
			if errors.Is(err, ErrNoFreeBlocks) {
				// Out of victims: report what was achieved.
				return res, nil
			}
			// A real device error must propagate, not masquerade as "done".
			return res, err
		}
		res.Elapsed += d
		res.CollectedBlocks++
		if f.FreePages() <= before {
			// No forward progress (victim was full of valid pages that
			// simply moved); stop rather than loop forever.
			break
		}
	}
	res.FreedPages = f.FreePages() - start
	return res, nil
}

// GCBandwidth estimates the background GC reclaim bandwidth Bgc in
// bytes/second from NAND timings and current occupancy: the cost of
// collecting an average victim over the pages it frees.
func (f *FTL) GCBandwidth() float64 {
	geo := f.cfg.Geometry
	ppb := float64(geo.PagesPerBlock)
	// Average utilization of candidate blocks approximates migration cost;
	// the victim index carries the candidate count, the valid-page sum and
	// the greedy minimum, so no scan is needed.
	u := 0.5
	if f.idx.size > 0 {
		// Greedy collects near the cheap end; weight the minimum and the
		// mean to approximate what the selector will actually pick.
		best := float64(f.idx.valid(f.idx.greedyVictim()))
		mean := float64(f.idx.sumValid) / float64(f.idx.size) / ppb
		u = (best/ppb + mean) / 2
	}
	if u > 0.95 {
		u = 0.95
	}
	migrate := f.cfg.Timing.MigrateCost().Seconds() * u * ppb
	erase := f.cfg.Timing.EraseBlock.Seconds()
	freed := (1 - u) * ppb * float64(geo.PageSize)
	perBlock := migrate + erase
	if perBlock <= 0 {
		return 0
	}
	return freed / perBlock * float64(geo.Parallelism())
}

// WriteBandwidth estimates the host write bandwidth Bw in bytes/second from
// NAND program timing and channel parallelism.
func (f *FTL) WriteBandwidth() float64 {
	geo := f.cfg.Geometry
	perPage := f.cfg.Timing.ProgramCost().Seconds()
	return float64(geo.PageSize) / perPage * float64(geo.Parallelism())
}
