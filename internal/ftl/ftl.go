// Package ftl implements a page-mapping flash translation layer over the
// nand array model: logical-to-physical mapping, out-of-place updates, a
// free-block pool, foreground and background garbage collection with
// pluggable victim selection (including the paper's SIP-aware filtering),
// wear-aware block allocation with threshold wear leveling, and the
// write-amplification accounting the paper's lifetime results rest on.
package ftl

import (
	"errors"
	"fmt"
	"time"

	"jitgc/internal/nand"
	"jitgc/internal/telemetry"
)

// Errors returned by FTL operations.
var (
	ErrBadLPN       = errors.New("ftl: LPN out of user capacity")
	ErrNoFreeBlocks = errors.New("ftl: no free blocks and no reclaimable victim")
	ErrCorruption   = errors.New("ftl: stored payload does not match its logical page")
)

const unmapped = int64(-1)

// Config parameterizes an FTL instance.
type Config struct {
	// Geometry and Timing describe the underlying NAND array.
	Geometry nand.Geometry
	Timing   nand.Timing
	// OPRatio is the over-provisioning capacity C_OP as a fraction of user
	// capacity. The SM843T in the paper uses 7%.
	OPRatio float64
	// FreeBlockReserve is the number of free blocks the FTL refuses to
	// hand to host writes: when the pool shrinks to this level a write
	// triggers foreground GC. At least 2 (one host active block, one GC
	// destination block must always be allocatable).
	FreeBlockReserve int
	// Selector chooses GC victim blocks. Defaults to Greedy.
	Selector VictimSelector
	// WearThreshold is the max-min erase-count gap that triggers static
	// wear leveling (forcing the least-erased full block to be recycled).
	// 0 disables it.
	WearThreshold int64
	// EnduranceLimit is the per-block erase budget; blocks erased past it
	// retire and drop out of circulation, shrinking the device until it
	// can no longer serve writes. 0 means unlimited (the default for
	// performance experiments; lifetime experiments set it).
	EnduranceLimit int64
	// Fault configures seeded NAND fault injection. The zero value (no
	// rates) injects nothing; setting any rate builds a per-FTL
	// nand.FaultModel and switches the recovery policies on.
	Fault nand.FaultConfig
	// Recovery parameterizes the FTL's fault-recovery policies (read
	// retries, program-failure page skipping, block retirement). Recovery
	// is active when Fault is enabled or Recovery.Enabled is set; raw
	// injectors installed via Device().SetFaultInjector stay fatal, which
	// is what error-propagation tests rely on.
	Recovery RecoveryConfig
	// DisableIntegrity drops the per-page payload tokens (8 bytes/page)
	// that let reads verify end-to-end that GC never aliased data. The
	// default (integrity on) is right for tests and golden runs; the scale
	// experiments disable it so a 64 GiB device's metadata stays in the
	// bytes-per-page regime.
	DisableIntegrity bool
}

// DefaultConfig returns a configuration with the paper's 7% OP ratio over
// the default scaled geometry.
func DefaultConfig() Config {
	return Config{
		Geometry:         nand.DefaultGeometry(),
		Timing:           nand.DefaultTimingMLC(),
		OPRatio:          0.07,
		FreeBlockReserve: 2,
		Selector:         Greedy{},
		WearThreshold:    64,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if c.OPRatio <= 0 || c.OPRatio >= 1 {
		return fmt.Errorf("ftl: OP ratio %v outside (0,1)", c.OPRatio)
	}
	if c.FreeBlockReserve < 2 {
		return fmt.Errorf("ftl: free block reserve %d < 2", c.FreeBlockReserve)
	}
	if c.WearThreshold < 0 {
		return fmt.Errorf("ftl: negative wear threshold %d", c.WearThreshold)
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	if err := c.Recovery.Validate(); err != nil {
		return err
	}
	return nil
}

// Stats counts FTL activity. Page counts are in physical pages.
type Stats struct {
	// HostPrograms counts pages programmed on behalf of host writes
	// (buffered flushes and direct writes alike).
	HostPrograms int64
	// GCMigrations counts valid pages copied by garbage collection.
	GCMigrations int64
	// WastedMigrations counts migrated pages that were on the SIP list —
	// copies of data about to be overwritten, i.e. useless work.
	WastedMigrations int64
	// Erases counts block erases.
	Erases int64
	// Trims counts pages discarded by host TRIM commands.
	Trims int64
	// FGCInvocations counts foreground GC episodes (a host write stalled).
	FGCInvocations int64
	// BGCCollections counts victim blocks collected in background,
	// including collections that freed no space because the victim retired
	// at the erase step (wear-out or an injected erase failure) — the
	// migration work was still done and still charged to BGC.
	BGCCollections int64
	// FGCTime and BGCTime accumulate device time spent in each mode. Both
	// include the valid-page migration time of collections whose victim
	// retired instead of returning to the free pool; dropping that time
	// would under-report GC overhead exactly when the device is dying.
	FGCTime time.Duration
	BGCTime time.Duration
	// VictimSelections counts GC victim choices; FilteredSelections counts
	// those where SIP filtering rejected the plain-greedy winner (paper
	// Table 3).
	VictimSelections   int64
	FilteredSelections int64
	// ProgramFaults and EraseFaults count injected NAND failures absorbed
	// by the recovery policies (a program retried on a fresh page, an
	// erase answered by retiring the victim).
	ProgramFaults int64
	EraseFaults   int64
	// ReadRetries counts re-read attempts performed by read recovery;
	// UnrecoverableReads counts read episodes that exhausted the retry
	// budget, losing the page (its mapping is dropped).
	ReadRetries        int64
	UnrecoverableReads int64
	// SkippedPages counts pages consumed unprogrammed after program
	// failures (the sequential-program constraint forbids leaving them
	// behind); RetiredByFault counts blocks the recovery policies took out
	// of service, as distinct from wear-out retirement.
	SkippedPages   int64
	RetiredByFault int64
}

// WAF returns the write amplification factor: total NAND page programs per
// host page program. 1.0 means no GC overhead yet.
func (s Stats) WAF() float64 {
	if s.HostPrograms == 0 {
		return 1
	}
	return float64(s.HostPrograms+s.GCMigrations) / float64(s.HostPrograms)
}

// FTL is a page-mapping flash translation layer. It is not safe for
// concurrent use.
type FTL struct {
	cfg Config
	dev *nand.Array

	userPages   int64   // exposed logical capacity in pages
	l2p         pageMap // LPN → PPN, unmapped = -1
	p2l         pageMap // PPN → LPN, unmapped = -1
	mappedPages int64   // live (mapped) lpns; userPages minus unmapped+trimmed
	integrity   bool    // payload tokens tracked and verified

	freeBlocks []int  // pool of erased blocks
	inFreePool []bool // mirrors freeBlocks membership for O(1) lookups
	poolFloor  int64  // ≤ the erase count of every pooled, non-retired block
	hostActive int    // block receiving host writes, -1 if none
	gcActive   int    // block receiving GC migrations, -1 if none
	collecting int    // block collectOnce is emptying, -1 outside a collection

	idx         *victimIndex // incremental GC victim index (index.go)
	candScratch []BlockInfo  // reused candidate buffer for custom selectors

	lastInvalidate []time.Duration // per block, for cost-benefit selection
	sipBits        []uint64        // the installed SIP set, one bit per user LPN
	sipPages       int             // how many bits are set
	sipPerBlock    []int           // count of valid SIP pages per block

	now             time.Duration // advanced by callers via SetNow for age bookkeeping
	stats           Stats
	lastWLSelection int64  // selection count at the last wear-leveling pick
	writeSeq        uint64 // monotone version counter for payload tokens

	fault      *nand.FaultModel // owned injector, nil unless configured
	recovery   RecoveryConfig   // defaults applied
	recoveryOn bool             // absorb ErrInjected instead of propagating
	progFails  []int            // consecutive program failures per block

	tr *telemetry.Tracer // nil = tracing disabled
}

// Payload tokens carry the logical page and a version so reads can verify
// end-to-end that GC never corrupted or aliased data.
const tokenVersionBits = 24

func token(lpn int64, seq uint64) uint64 {
	return uint64(lpn)<<tokenVersionBits | (seq & (1<<tokenVersionBits - 1))
}

func tokenLPN(tok uint64) int64 { return int64(tok >> tokenVersionBits) }

// New builds an FTL over a fresh NAND array.
func New(cfg Config) (*FTL, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Selector == nil {
		cfg.Selector = Greedy{}
	}
	newDev := nand.NewArray
	if cfg.DisableIntegrity {
		newDev = nand.NewBareArray
	}
	dev, err := newDev(cfg.Geometry, cfg.Timing)
	if err != nil {
		return nil, err
	}
	if cfg.EnduranceLimit > 0 {
		dev.SetEnduranceLimit(cfg.EnduranceLimit)
	}
	geo := cfg.Geometry
	total := geo.TotalPages()
	user := UserPagesFor(total, cfg.OPRatio)
	// The user capacity must leave at least the reserve plus active blocks
	// worth of OP space.
	minOP := int64(cfg.FreeBlockReserve+2) * int64(geo.PagesPerBlock)
	if total-user < minOP {
		return nil, fmt.Errorf("ftl: OP ratio %v leaves %d OP pages, need ≥ %d", cfg.OPRatio, total-user, minOP)
	}
	f := &FTL{
		cfg:            cfg,
		dev:            dev,
		userPages:      user,
		integrity:      !cfg.DisableIntegrity,
		l2p:            newPageMap(user, total),
		p2l:            newPageMap(total, total),
		hostActive:     -1,
		gcActive:       -1,
		collecting:     -1,
		lastInvalidate: make([]time.Duration, geo.TotalBlocks()),
		sipBits:        make([]uint64, (user+63)/64),
		sipPerBlock:    make([]int, geo.TotalBlocks()),
		progFails:      make([]int, geo.TotalBlocks()),
		recovery:       cfg.Recovery.withDefaults(),
		recoveryOn:     cfg.Recovery.Enabled || cfg.Fault.Enabled(),
	}
	if f.recoveryOn {
		f.fault = nand.NewFaultModel(cfg.Fault)
		dev.SetFaultInjector(f.fault)
	}
	f.freeBlocks = make([]int, geo.TotalBlocks())
	f.inFreePool = make([]bool, geo.TotalBlocks())
	for i := range f.freeBlocks {
		f.freeBlocks[i] = i
		f.inFreePool[i] = true
	}
	f.idx = newVictimIndex(geo.TotalBlocks(), geo.PagesPerBlock, f.lastInvalidate)
	return f, nil
}

// Config returns the FTL configuration.
func (f *FTL) Config() Config { return f.cfg }

// Device returns the underlying NAND array (read-only use intended).
func (f *FTL) Device() *nand.Array { return f.dev }

// Stats returns a snapshot of the activity counters.
func (f *FTL) Stats() Stats { return f.stats }

// UserPages returns the logical capacity in pages.
func (f *FTL) UserPages() int64 { return f.userPages }

// MappedPages returns the number of logical pages currently mapped to a
// physical copy — the live footprint GC must preserve. TRIM shrinks it, so
// (TotalPages - MappedPages) / MappedPages is the device's measured
// effective over-provisioning in the sense of Frankie et al.
func (f *FTL) MappedPages() int64 { return f.mappedPages }

// OPPages returns the over-provisioning capacity in pages.
func (f *FTL) OPPages() int64 { return f.cfg.Geometry.TotalPages() - f.userPages }

// OPBytes returns the over-provisioning capacity C_OP in bytes.
func (f *FTL) OPBytes() int64 { return f.OPPages() * int64(f.cfg.Geometry.PageSize) }

// PageSize returns the page size in bytes.
func (f *FTL) PageSize() int { return f.cfg.Geometry.PageSize }

// SetSelector replaces the GC victim selector (e.g. to enable SIP-aware
// filtering once a JIT-GC policy is attached).
func (f *FTL) SetSelector(s VictimSelector) {
	if s != nil {
		f.cfg.Selector = s
	}
}

// SetNow advances the FTL's notion of time, used only for victim-age
// bookkeeping (cost-benefit selection). The simulator calls it as the clock
// advances.
func (f *FTL) SetNow(t time.Duration) { f.now = t }

// SetTracer installs a telemetry tracer for GC and erase events (nil
// disables tracing; the hooks then cost one pointer check).
func (f *FTL) SetTracer(tr *telemetry.Tracer) { f.tr = tr }

// FreePages returns the number of immediately programmable pages: whole
// free blocks plus the tails of the active blocks.
func (f *FTL) FreePages() int64 {
	ppb := f.cfg.Geometry.PagesPerBlock
	n := int64(len(f.freeBlocks)) * int64(ppb)
	if f.hostActive >= 0 {
		n += int64(ppb - f.dev.WritePtr(f.hostActive))
	}
	if f.gcActive >= 0 {
		n += int64(ppb - f.dev.WritePtr(f.gcActive))
	}
	return n
}

// WritablePages returns the pages the host can write before foreground GC
// becomes unavoidable: FreePages minus the reserve the FTL keeps for GC to
// make progress. This is the paper's C_free as seen by BGC policies.
func (f *FTL) WritablePages() int64 {
	n := f.FreePages() - int64(f.cfg.FreeBlockReserve)*int64(f.cfg.Geometry.PagesPerBlock)
	if n < 0 {
		return 0
	}
	return n
}

// WritableBytes returns WritablePages in bytes (the paper's C_free).
func (f *FTL) WritableBytes() int64 {
	return f.WritablePages() * int64(f.cfg.Geometry.PageSize)
}

// MappedPPN returns the physical page currently mapped to lpn, or -1.
func (f *FTL) MappedPPN(lpn int64) int64 {
	if lpn < 0 || lpn >= f.userPages {
		return unmapped
	}
	return f.l2p.at(lpn)
}

// MetadataBytes returns the heap footprint of the FTL's per-page and
// per-block metadata — the mapping tables plus the NAND array's state
// planes. This is what the bytes-per-logical-page memory gate budgets.
func (f *FTL) MetadataBytes() int64 {
	n := f.l2p.bytes() + f.p2l.bytes() + f.dev.MetadataBytes()
	blocks := int64(f.cfg.Geometry.TotalBlocks())
	n += blocks * (8 + 8 + 8 + 1) // lastInvalidate, sipPerBlock, progFails, inFreePool
	n += int64(len(f.sipBits)) * 8
	n += int64(len(f.freeBlocks)) * 8
	n += f.idx.bytes()
	return n
}

// Read services a host read of one logical page and returns the device time
// consumed. Reading an unmapped page costs a page read (the device returns
// zeroes) but is counted separately.
func (f *FTL) Read(lpn int64) (time.Duration, error) {
	if lpn < 0 || lpn >= f.userPages {
		return 0, fmt.Errorf("%w: %d (capacity %d)", ErrBadLPN, lpn, f.userPages)
	}
	ppn := f.l2p.at(lpn)
	if ppn == unmapped {
		// Unwritten data: controllers return zeroes without touching the
		// array; charge only transfer time.
		return f.cfg.Timing.Transfer, nil
	}
	tok, d, err := f.readRecovered(nand.AddrOfPPN(ppn, f.cfg.Geometry.PagesPerBlock), lpn)
	if err != nil {
		if f.recoveryOn && errors.Is(err, nand.ErrInjected) {
			// Unrecoverable read: the page is lost. Drop the mapping so the
			// map stays consistent and later reads take the unmapped path,
			// and complete the request — a lost page must not abort the run.
			f.dropLostPage(lpn)
			return d, nil
		}
		return d, err
	}
	if f.integrity && tokenLPN(tok) != lpn {
		return d, fmt.Errorf("%w: lpn %d holds payload of lpn %d", ErrCorruption, lpn, tokenLPN(tok))
	}
	return d, nil
}

// Write services a host write of one logical page: out-of-place program of
// a fresh page, invalidation of the old mapping, and — if the free pool has
// hit the reserve — a synchronous foreground GC episode first.
//
// The two durations are reported separately because they parallelize
// differently: page programs stripe across channels, while a foreground GC
// episode serializes the waiting host write behind the victim's own
// channel (migrations and erase on one die), so the simulator charges fgc
// at full serial cost.
func (f *FTL) Write(lpn int64) (service, fgc time.Duration, err error) {
	if lpn < 0 || lpn >= f.userPages {
		return 0, 0, fmt.Errorf("%w: %d (capacity %d)", ErrBadLPN, lpn, f.userPages)
	}

	// The sequence counter advances only once the program has succeeded:
	// a failed program must not leave a gap in the payload-token sequence,
	// and recovery retries reuse the same token until one lands.
	seq := f.writeSeq + 1
	var addr nand.PageAddr
	for {
		// Foreground GC: reclaim until a host page is allocatable.
		for !f.canAllocateHostPage() {
			d, cerr := f.collectOnce(true)
			if cerr != nil {
				return 0, fgc, cerr
			}
			fgc += d
		}
		addr, service, err = f.programRecovered(token(lpn, seq), false)
		if err == nil {
			break
		}
		if !f.recoveryOn || !errors.Is(err, ErrNoFreeBlocks) {
			return service, fgc, err
		}
		// Recovered program failures skipped the active block's last
		// writable pages; reclaim in foreground and try again. Progress is
		// guaranteed: each pass either collects a victim or the collect
		// itself fails with ErrNoFreeBlocks above.
	}
	if fgc > 0 {
		f.stats.FGCInvocations++
		f.stats.FGCTime += fgc
	}
	f.writeSeq = seq

	f.invalidateMapping(lpn)
	ppb := f.cfg.Geometry.PagesPerBlock
	ppn := addr.PPN(ppb)
	f.l2p.set(lpn, ppn)
	f.p2l.set(ppn, lpn)
	f.mappedPages++
	if f.onSIPList(lpn) {
		f.sipPerBlock[addr.Block]++
	}
	f.stats.HostPrograms++
	return service, fgc, nil
}

// Trim discards a logical page (host TRIM/UNMAP): the mapping is cleared
// and the physical copy invalidated without any new write, so subsequent
// GC of its block is cheaper. Trimming an unmapped page is a no-op. Trim
// is a metadata operation and consumes no device time.
func (f *FTL) Trim(lpn int64) error {
	if lpn < 0 || lpn >= f.userPages {
		return fmt.Errorf("%w: %d (capacity %d)", ErrBadLPN, lpn, f.userPages)
	}
	if f.l2p.at(lpn) != unmapped {
		f.invalidateMapping(lpn)
		f.stats.Trims++
	}
	return nil
}

// invalidateMapping clears lpn's old physical page, if any.
func (f *FTL) invalidateMapping(lpn int64) {
	old := f.l2p.at(lpn)
	if old == unmapped {
		return
	}
	ppb := f.cfg.Geometry.PagesPerBlock
	addr := nand.AddrOfPPN(old, ppb)
	if err := f.dev.InvalidatePage(addr); err != nil {
		// A mapping pointing at a non-valid page is an FTL bug; fail loudly.
		panic(fmt.Sprintf("ftl: corrupt mapping for lpn %d: %v", lpn, err))
	}
	f.p2l.set(old, unmapped)
	f.l2p.set(lpn, unmapped)
	f.mappedPages--
	f.lastInvalidate[addr.Block] = f.now
	if f.onSIPList(lpn) {
		if f.sipPerBlock[addr.Block] > 0 {
			f.sipPerBlock[addr.Block]--
		}
	}
	// The block's valid count (and possibly its eligibility) changed; the
	// sync must run after lastInvalidate moves so the bucket champion order
	// sees the new age.
	f.syncIndex(addr.Block)
}

// canAllocateHostPage reports whether a host page can be allocated without
// dipping into the GC reserve.
func (f *FTL) canAllocateHostPage() bool {
	if f.hostActive >= 0 && f.dev.WritePtr(f.hostActive) < f.cfg.Geometry.PagesPerBlock {
		return true
	}
	return len(f.freeBlocks) > f.cfg.FreeBlockReserve
}

// allocPage returns the next physical page to program, opening a new active
// block from the free pool when needed. gc selects the GC destination
// stream (cold data) instead of the host stream (hot data).
func (f *FTL) allocPage(gc bool) (nand.PageAddr, error) {
	active := &f.hostActive
	if gc {
		active = &f.gcActive
	}
	ppb := f.cfg.Geometry.PagesPerBlock
	if *active < 0 || f.dev.WritePtr(*active) >= ppb {
		blk, err := f.takeFreeBlock(gc)
		if err != nil {
			return nand.PageAddr{}, err
		}
		prev := *active
		*active = blk
		if prev >= 0 {
			// The displaced full block just became a GC candidate.
			f.syncIndex(prev)
		}
	}
	return nand.PageAddr{Block: *active, Page: f.dev.WritePtr(*active)}, nil
}

// takeFreeBlock removes and returns a block from the free pool, choosing
// the least-erased block (wear-aware allocation; the first such block in
// pool order). GC destinations may dig into the reserve; host allocations
// may not.
//
// The scan stops at the first block whose erase count meets poolFloor: no
// pooled block is below the floor, so none after it can be strictly better
// and none before it was as good. The floor is exact after every take and
// only ever lowered by poolBlock, so the scan runs the whole pool only when
// the last block at the floor has left — and never while a fresh device
// fills, where every pooled block sits at zero erases.
func (f *FTL) takeFreeBlock(gc bool) (int, error) {
	if len(f.freeBlocks) == 0 {
		return 0, ErrNoFreeBlocks
	}
	if !gc && len(f.freeBlocks) <= f.cfg.FreeBlockReserve {
		return 0, fmt.Errorf("%w: pool at reserve (%d)", ErrNoFreeBlocks, len(f.freeBlocks))
	}
	best, bestErases := -1, int64(0)
	for i, b := range f.freeBlocks {
		if f.dev.Retired(b) {
			continue
		}
		if e := f.dev.EraseCount(b); best < 0 || e < bestErases {
			best, bestErases = i, e
			if e <= f.poolFloor {
				break
			}
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("%w: all pooled blocks retired", ErrNoFreeBlocks)
	}
	f.poolFloor = bestErases
	blk := f.freeBlocks[best]
	f.freeBlocks[best] = f.freeBlocks[len(f.freeBlocks)-1]
	f.freeBlocks = f.freeBlocks[:len(f.freeBlocks)-1]
	f.inFreePool[blk] = false
	return blk, nil
}

// poolBlock returns a freshly erased block to the free pool.
func (f *FTL) poolBlock(b int) {
	f.freeBlocks = append(f.freeBlocks, b)
	f.inFreePool[b] = true
	if e := f.dev.EraseCount(b); e < f.poolFloor {
		f.poolFloor = e
	}
}
