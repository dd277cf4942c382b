package ftl

import (
	"errors"
	"fmt"
	"time"

	"jitgc/internal/nand"
)

// Selector is the GC victim selection rule. The victim index answers each
// of the three without allocating: greedy from its root, SIP-greedy by a
// walk of the blocks near the greedy choice, cost-benefit by a walk of
// every candidate. Every answer equals a full scan of the eligible blocks
// under the same rule, tie-breaks included (the reference selectors in
// gc_test.go).
type Selector uint8

const (
	// Greedy selects the block with the fewest valid pages — the classical
	// minimum-migration victim policy. Ties break toward the lower block
	// index for determinism.
	Greedy Selector = iota
	// CostBenefit selects by the classical cost-benefit score
	// age × (1−u)/(2u): prefer old blocks with low utilization u. Fully
	// invalid blocks (u = 0) are always taken first.
	CostBenefit
	// SIPGreedy is the paper's extended victim selection: greedy, modified
	// to avoid blocks holding soon-to-be-invalidated pages, because
	// migrating a SIP page is useless work — it is about to be rewritten
	// by a page-cache flush anyway. With an empty SIP list it chooses what
	// Greedy chooses; the two stay separate kinds so that a run can keep
	// the list installed under plain greedy.
	SIPGreedy
)

// The two fixed parameters of SIPGreedy. A victim candidate is worth
// avoiding only when more than sipMaxFraction (30%) of its valid pages are
// on the SIP list; below that the greedy choice stands untouched.
// Avoidance is bounded: among candidates within sipSlackPages extra
// migrations of the plain greedy choice, the one with the fewest SIP pages
// is taken, because unbounded avoidance would itself inflate write
// amplification past what it saves.
const (
	sipMaxFraction = 0.30
	sipSlackPages  = 4
)

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

// pickVictim chooses the next GC victim from the incremental index without
// allocating: the same victim the configured selector's full-scan reference
// (gc_test.go) picks over the eligible blocks, counted in
// VictimSelections/FilteredSelections. Foreground collections
// always use plain greedy: a stalled host write needs space at minimum
// cost, and the paper's SIP filtering applies to background GC only. ok is
// false when no block is collectible.
func (f *FTL) pickVictim(foreground bool) (victim int, ok bool) {
	if f.idx.size == 0 {
		return 0, false
	}
	greedy := f.idx.greedyVictim()
	f.stats.VictimSelections++
	if foreground {
		return greedy, true
	}
	choice := greedy
	switch f.cfg.Selector {
	case CostBenefit:
		choice = f.costBenefitVictim()
	case SIPGreedy:
		choice = f.sipGreedyVictim(greedy, sipMaxFraction, sipSlackPages)
	}
	// Table 3 counts selections where SIP filtering paid migration cost to
	// avoid a tainted block (cost-free tie swaps are not "filtering").
	if greedy != choice &&
		f.sipPerBlock[greedy] > f.sipPerBlock[choice] &&
		f.idx.valid(choice) > f.idx.valid(greedy) {
		f.stats.FilteredSelections++
	}
	return choice, true
}

// costBenefitVictim evaluates the cost-benefit policy over every member,
// with the full-scan reference's rule: the highest score, ties to the lower
// block, which the ascending walk gives by replacing only on a strictly
// higher score. A fully-invalid block short-circuits, as in the reference;
// the tree root is the lowest-indexed such block.
func (f *FTL) costBenefitVictim() int {
	ix := f.idx
	root := ix.greedyVictim()
	if ix.valid(root) == 0 {
		return root
	}
	ppb := float64(f.cfg.Geometry.PagesPerBlock)
	best, bestScore := -1, -1.0
	ix.each(ix.ppb-1, func(b, v int) {
		age := f.now - f.lastInvalidate[b]
		if age < 0 {
			age = 0
		}
		u := float64(v) / ppb
		if score := float64(age) * (1 - u) / (2 * u); score > bestScore {
			best, bestScore = b, score
		}
	})
	return best
}

// sipGreedyVictim evaluates SIP-aware selection with taint threshold
// maxFraction over the bounded frontier Valid ≤ greedy+slack, walking only
// the blocks a migration-cost budget could ever justify — subtrees holding
// no block within the slack are never entered. The comparison chain matches
// the full-scan reference term for term. Production passes sipMaxFraction
// and sipSlackPages; tests also drive harder settings.
func (f *FTL) sipGreedyVictim(greedy int, maxFraction float64, slack int) int {
	gv := f.idx.valid(greedy)
	gs := f.sipPerBlock[greedy]
	if gv == 0 || float64(gs)/float64(gv) <= maxFraction {
		return greedy // not tainted enough to pay anything for
	}
	best, bestSIP, bestValid := greedy, gs, gv
	f.idx.each(gv+slack, func(b, v int) {
		sv := f.sipPerBlock[b]
		if sv < bestSIP ||
			(sv == bestSIP && v < bestValid) ||
			(sv == bestSIP && v == bestValid && b < best) {
			best, bestSIP, bestValid = b, sv, v
		}
	})
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
	pages := f.dev.ValidPages(victim, f.victimPages[:0])
	if f.dev.FaultInjector() == nil {
		d, err := f.migrateRuns(victim, pages)
		total += d
		if err != nil {
			finish(total)
			return total, err
		}
	} else {
		// Faults are drawn per operation, so with an injector installed each
		// page is read, programmed and invalidated on its own (the rule Fill
		// follows too).
		for _, page := range pages {
			d, err := f.migratePage(nand.PageAddr{Block: victim, Page: page})
			total += d
			if err != nil {
				finish(total)
				return total, err
			}
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
	f.migrated(lpn, srcPPN, dst.PPN(ppb), src.Block, dst.Block)
	return total, nil
}

// migrateRuns moves a victim's valid pages, given ascending, to the GC
// destination stream one destination run at a time: each run fills the
// active GC block to its end or takes every page left, and costs one
// nand.Array.Copyback. It leaves exactly the state migratePage on each page
// leaves when no fault injector is installed, the only case it serves.
func (f *FTL) migrateRuns(victim int, pages []int) (time.Duration, error) {
	ppb := f.cfg.Geometry.PagesPerBlock
	base := int64(victim) * int64(ppb)
	var total time.Duration
	for len(pages) > 0 {
		dst, err := f.allocPage(true)
		if err != nil {
			return total, err
		}
		run := pages[:min(len(pages), ppb-dst.Page)]
		d, err := f.dev.Copyback(victim, run, dst)
		total += d
		if err != nil {
			return total, err
		}
		f.progFails[dst.Block] = 0
		dstPPN := dst.PPN(ppb)
		for i, page := range run {
			srcPPN := base + int64(page)
			lpn := f.p2l.at(srcPPN)
			if lpn == unmapped {
				panic(fmt.Sprintf("ftl: migrated valid page %d of block %d had no reverse mapping", page, victim))
			}
			f.migrated(lpn, srcPPN, dstPPN+int64(i), victim, dst.Block)
		}
		pages = pages[len(run):]
	}
	return total, nil
}

// migrated moves lpn's mapping from srcPPN, in block srcBlock, to dstPPN,
// in block dstBlock, once GC has copied the page, and counts the migration.
func (f *FTL) migrated(lpn, srcPPN, dstPPN int64, srcBlock, dstBlock int) {
	f.l2p.set(lpn, dstPPN)
	f.p2l.set(dstPPN, lpn)
	f.p2l.set(srcPPN, unmapped)
	f.stats.GCMigrations++
	if f.onSIPList(lpn) {
		f.stats.WastedMigrations++
		// The SIP counter moves with the page.
		f.sipPerBlock[srcBlock]--
		f.sipPerBlock[dstBlock]++
	}
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
