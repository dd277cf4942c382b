package ftl

import (
	"errors"
	"time"

	"jitgc/internal/nand"
)

// RecoveryConfig switches the FTL's fault-recovery policies on. The
// policies activate when Config.Fault is enabled or Enabled is set; with
// recovery off, any NAND operation failure propagates to the caller
// unchanged (the pre-recovery behaviour, and what raw injectors installed
// via Device().SetFaultInjector still get).
type RecoveryConfig struct {
	// Enabled switches recovery on even without configured fault rates, so
	// tests can arm targeted one-shot faults against a recovering FTL.
	Enabled bool
}

// The recovery policies' limits.
const (
	// maxReadRetries is the number of re-read attempts after a failed page
	// read before the page is declared unrecoverable and its mapping
	// dropped.
	maxReadRetries = 3
	// retireAfterProgramFails is the number of consecutive program failures
	// on one block that retire it. Below it a failed program just skips
	// the bad page and retries on the next one.
	retireAfterProgramFails = 3
)

// FaultModel returns the FTL-owned fault model, or nil when Config.Fault
// and Config.Recovery were both left zero. Experiments use it to arm
// targeted faults (e.g. kill one array member's programs mid-run).
func (f *FTL) FaultModel() *nand.FaultModel { return f.fault }

// programRecovered allocates a page on the host or GC stream and programs
// payload into it, absorbing injected program failures when recovery is
// on: a failed page is skipped (consumed unprogrammed — the sequential
// program constraint forbids leaving it behind) and the program retried on
// the next page; after retireAfterProgramFails consecutive failures on one
// block the block is retired and allocation moves on. Injected failures
// consume no device time, so the returned duration is that of the
// successful program alone.
func (f *FTL) programRecovered(payload uint64, gc bool) (nand.PageAddr, time.Duration, error) {
	var total time.Duration
	for {
		addr, err := f.allocPage(gc)
		if err != nil {
			return addr, total, err
		}
		d, err := f.dev.ProgramPage(addr, payload)
		total += d
		if err == nil {
			f.progFails[addr.Block] = 0
			return addr, total, nil
		}
		if !f.recoveryOn || !errors.Is(err, nand.ErrInjected) {
			return addr, total, err
		}
		f.stats.ProgramFaults++
		f.tr.FaultInjected(f.now, "program", addr.Block, addr.Page, tokenLPN(payload))
		f.progFails[addr.Block]++
		if f.progFails[addr.Block] >= retireAfterProgramFails {
			f.retireBlock(addr.Block, "program")
			continue
		}
		if serr := f.dev.SkipPage(addr); serr != nil {
			return addr, total, serr
		}
		f.stats.SkippedPages++
	}
}

// readRecovered reads a page, retrying injected failures up to
// maxReadRetries times when recovery is on. When the budget is exhausted
// the last ErrInjected is returned — the caller decides whether the lost
// page aborts the operation (it never does on the host and GC paths; see
// dropLostPage).
func (f *FTL) readRecovered(addr nand.PageAddr, lpn int64) (uint64, time.Duration, error) {
	var total time.Duration
	for attempt := 0; ; attempt++ {
		tok, d, err := f.dev.ReadPage(addr)
		total += d
		if err == nil {
			if attempt > 0 {
				f.tr.ReadRetry(f.now, addr.Block, addr.Page, lpn, attempt, true)
			}
			return tok, total, nil
		}
		if !f.recoveryOn || !errors.Is(err, nand.ErrInjected) {
			return 0, total, err
		}
		f.tr.FaultInjected(f.now, "read", addr.Block, addr.Page, lpn)
		if attempt >= maxReadRetries {
			f.stats.UnrecoverableReads++
			f.tr.ReadRetry(f.now, addr.Block, addr.Page, lpn, attempt, false)
			return 0, total, err
		}
		f.stats.ReadRetries++
	}
}

// retireBlock takes a block out of service after the recovery policies
// gave up on it. Valid pages already in the block stay mapped and
// readable; the block is simply never programmed or erased again, so the
// device shrinks by its free tail.
func (f *FTL) retireBlock(b int, reason string) {
	// RetireBlock only fails on an out-of-range index, which recovery
	// never passes.
	_ = f.dev.RetireBlock(b)
	if f.hostActive == b {
		f.hostActive = -1
	}
	if f.gcActive == b {
		f.gcActive = -1
	}
	f.progFails[b] = 0
	f.stats.RetiredByFault++
	f.tr.BlockRetired(f.now, b, reason, f.dev.EraseCount(b))
	// A retired block must never be offered as a GC victim again.
	f.syncIndex(b)
}

// dropLostPage abandons a logical page whose physical copy could not be
// read back: the mapping is cleared and the physical page invalidated, so
// the address map stays consistent and later reads of the LPN take the
// unmapped (zero-fill) path instead of returning stale data.
func (f *FTL) dropLostPage(lpn int64) {
	f.invalidateMapping(lpn)
}
