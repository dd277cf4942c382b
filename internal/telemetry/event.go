// Package telemetry is the simulator's streaming observability layer: typed
// trace events emitted through pluggable sinks (JSONL writer, bounded
// in-memory ring), a nil-check-cheap Tracer front end the hot paths call
// unconditionally, a log-bucketed streaming latency histogram whose memory
// is bounded whatever the sample count, and a debug HTTP server exposing
// pprof and runtime metrics for long-running experiment grids.
//
// The design constraint is that a disabled tracer costs nothing measurable:
// every emit helper is a method on a possibly-nil *Tracer and returns after
// a single pointer comparison, so the simulator, FTL, and array backends can
// call hooks unconditionally on their hot paths.
package telemetry

import (
	"math"
	"time"
)

// EventType discriminates trace events.
type EventType string

// Event types emitted by the simulator stack.
const (
	// EvRequest is a host request completion (one per request, emitted by
	// the per-device simulator; in an array run the Dev field tags the
	// member that serviced the segment).
	EvRequest EventType = "request"
	// EvFlushDecision is the per-write-back-tick policy decision: the
	// installed BGC policy's D_reclaim request and C_req forecast against
	// the free space it saw.
	EvFlushDecision EventType = "flush_decision"
	// EvGCStart and EvGCEnd bracket one victim collection (foreground or
	// background) with the victim's stats.
	EvGCStart EventType = "gc_start"
	EvGCEnd   EventType = "gc_end"
	// EvErase is one block erase.
	EvErase EventType = "erase"
	// EvToken is an array GC-coordination token hand-off decision for one
	// member device in one interval.
	EvToken EventType = "token"
	// EvSnapshot is the periodic per-device stats snapshot emitted at every
	// write-back tick (the streaming form of a timeline point).
	EvSnapshot EventType = "snapshot"
	// EvFault is one injected NAND operation failure (Op names the
	// operation; Victim/Page locate it; LPN is -1 when no logical page is
	// involved, e.g. an erase).
	EvFault EventType = "fault_injected"
	// EvBlockRetired is a block taken out of service by a recovery policy
	// (Reason "program" or "erase") as opposed to wear-out.
	EvBlockRetired EventType = "block_retired"
	// EvReadRetry is the outcome of a read-recovery episode: Attempts
	// retries were spent and Recovered tells whether the data was read back
	// or lost (an unrecoverable read).
	EvReadRetry EventType = "read_retry"
	// EvDeviceDegraded is an array member whose FTL died: the member stops
	// serving and its stripe extents fail fast from this point on.
	EvDeviceDegraded EventType = "device_degraded"
	// EvTenantSummary is one tenant's end-of-run verdict in a multi-tenant
	// run: completions, drops, SLO violations, and p99.9 latency against
	// its QoS class.
	EvTenantSummary EventType = "tenant_summary"
	// EvStripeTorn is a partial stripe write: segment k of a striped
	// request failed after segments 0..k-1 had already landed on the
	// survivors, leaving the stripe torn until redundancy or rebuild
	// reconciles it. LPN/Pages are the array-level extent of the request;
	// Dev is the member whose failure tore the stripe.
	EvStripeTorn EventType = "stripe_torn"
	// EvRebuild brackets one spare rebuild: Action "start" when a spare is
	// attached to a degraded slot, "end"/"abort" when migration finishes or
	// dies. FreedPages carries pages copied so far, Elapsed the rebuild's
	// running time. Dev is the slot being rebuilt.
	EvRebuild EventType = "rebuild"
)

// Event is one trace record. It is a flat union over all event types: only
// the fields meaningful for Type are populated, and zero-valued fields are
// omitted from the JSONL encoding — except Dev, LPN, Victim, and Page,
// whose zero values are legitimate data (member 0, logical page 0, victim
// block 0, in-block page 0) and are therefore always encoded explicitly so
// a decoded stream cannot confuse "page zero" with "no page" (fault events
// mark "no logical page" with the explicit LPN=-1 sentinel, which only
// works if 0 survives the round trip too). T is the simulation clock, not
// wall time.
type Event struct {
	Type EventType     `json:"type"`
	T    time.Duration `json:"t_ns"`
	// Dev is the array member index the event belongs to (0 in
	// single-device runs, -1 for array-level events that belong to no
	// single member).
	Dev int `json:"dev"`

	// Request fields (EvRequest).
	Kind    string        `json:"kind,omitempty"`
	LPN     int64         `json:"lpn"`
	Pages   int           `json:"pages,omitempty"`
	Latency time.Duration `json:"latency_ns,omitempty"`

	// Policy decision fields (EvFlushDecision, EvToken).
	FreeBytes      int64   `json:"free_bytes,omitempty"`
	ReclaimBytes   int64   `json:"reclaim_bytes,omitempty"`
	PredictedBytes int64   `json:"predicted_bytes,omitempty"`
	IdleFraction   float64 `json:"idle_fraction,omitempty"`

	// GC fields (EvGCStart, EvGCEnd, EvErase).
	Foreground bool          `json:"foreground,omitempty"`
	Victim     int           `json:"victim"`
	ValidPages int           `json:"valid_pages,omitempty"`
	SIPPages   int           `json:"sip_pages,omitempty"`
	FreedPages int64         `json:"freed_pages,omitempty"`
	Elapsed    time.Duration `json:"elapsed_ns,omitempty"`
	EraseCount int64         `json:"erase_count,omitempty"`

	// Token fields (EvToken): the coordinator's verdict for this device's
	// ask in this interval.
	Action string `json:"action,omitempty"`

	// Fault and recovery fields (EvFault, EvBlockRetired, EvReadRetry,
	// EvDeviceDegraded). Victim carries the block index and LPN the logical
	// page where meaningful.
	Op        string `json:"op,omitempty"`        // failed operation kind
	Page      int    `json:"page"`                // in-block page index
	Attempts  int    `json:"attempts,omitempty"`  // read retries spent
	Recovered bool   `json:"recovered,omitempty"` // read retry succeeded
	Reason    string `json:"reason,omitempty"`    // retirement / degradation cause

	// Tenant fields (EvTenantSummary). Latency carries the tenant's p99.9;
	// Requests its completion count.
	Tenant     int    `json:"tenant,omitempty"`
	Class      string `json:"class,omitempty"`
	Dropped    int64  `json:"dropped,omitempty"`
	Violations int64  `json:"violations,omitempty"`

	// Snapshot fields (EvSnapshot).
	DirtyPages     int     `json:"dirty_pages,omitempty"`
	WAF            float64 `json:"waf,omitempty"`
	FGCInvocations int64   `json:"fgc,omitempty"`
	BGCCollections int64   `json:"bgc,omitempty"`
	Requests       int64   `json:"requests,omitempty"`
}

// FieldSet is a bitmask over Event's payload fields (everything except
// Type and T, which every event carries). It drives the columnar binary
// encoding: a column holds values only for events whose type's field set
// contains it, so the per-type population of the flat Event union is part
// of the wire contract, not an encoder heuristic.
type FieldSet uint32

// Field bits, in Event struct order.
const (
	FDev FieldSet = 1 << iota
	FKind
	FLPN
	FPages
	FLatency
	FFreeBytes
	FReclaimBytes
	FPredictedBytes
	FIdleFraction
	FForeground
	FVictim
	FValidPages
	FSIPPages
	FFreedPages
	FElapsed
	FEraseCount
	FAction
	FOp
	FPage
	FAttempts
	FRecovered
	FReason
	FTenant
	FClass
	FDropped
	FViolations
	FDirtyPages
	FWAF
	FFGC
	FBGC
	FRequests
	fieldsEnd

	// FAll is every payload field; it is the field set of unknown event
	// types, which must round-trip without knowing which fields matter.
	FAll = fieldsEnd - 1
)

// typeFields maps each event type to the fields its emitter populates,
// mirroring the Tracer helpers one-to-one (TestTracerPopulatesItsFieldSet).
var typeFields = map[EventType]FieldSet{
	EvRequest:        FDev | FKind | FLPN | FPages | FLatency,
	EvFlushDecision:  FDev | FFreeBytes | FReclaimBytes | FPredictedBytes | FIdleFraction,
	EvGCStart:        FDev | FForeground | FVictim | FValidPages | FSIPPages,
	EvGCEnd:          FDev | FForeground | FVictim | FFreedPages | FElapsed,
	EvErase:          FDev | FVictim | FEraseCount | FElapsed,
	EvToken:          FDev | FAction | FReclaimBytes | FFreeBytes,
	EvSnapshot:       FDev | FFreeBytes | FDirtyPages | FWAF | FFGC | FBGC | FRequests,
	EvFault:          FDev | FOp | FVictim | FPage | FLPN,
	EvBlockRetired:   FDev | FVictim | FReason | FEraseCount,
	EvReadRetry:      FDev | FVictim | FPage | FLPN | FAttempts | FRecovered,
	EvDeviceDegraded: FDev | FReason,
	EvTenantSummary:  FDev | FTenant | FClass | FRequests | FDropped | FViolations | FLatency,
	EvStripeTorn:     FDev | FLPN | FPages,
	EvRebuild:        FDev | FAction | FFreedPages | FElapsed,
}

// Fields returns the payload fields populated by events of type t. Unknown
// types report FAll (and known=false), so a forward-compatible encoder
// preserves every field rather than guessing.
func Fields(t EventType) (set FieldSet, known bool) {
	set, known = typeFields[t]
	if !known {
		return FAll, false
	}
	return set, true
}

// ColumnKind is how a payload field's values are carried as integers or
// strings, the two forms a column stores.
type ColumnKind uint8

// Column kinds.
const (
	IntColumn    ColumnKind = iota // int, int64 or time.Duration
	FloatColumn                    // float64, as its IEEE-754 bits
	BoolColumn                     // 0 or 1
	StringColumn                   // string
)

// Column describes one payload field of Event: its JSON key, its FieldSet
// bit, its kind, whether it is always stored, and how a decoded value is
// stored back. Reading goes through Event.Field instead of a func per row,
// so that reading an event does not make it escape.
type Column struct {
	Name string // the field's JSON key
	Bit  FieldSet
	Kind ColumnKind
	// Always marks the fields whose zero is data (no omitempty): they are
	// encoded for every event, whatever its type.
	Always bool
	// Set stores v, or s for a string column, into the field, in the form
	// Event.Field reads it.
	Set func(e *Event, v int64, s string)
}

// Columns is Event's payload schema, one row per field, in binlog wire
// order: the four always-stored fields first, then struct order. Adding a
// traced field takes the struct field, its bit, its typeFields entries, a
// row here and its case in Event.Field; TestColumnsMatchEvent fails until
// all agree.
var Columns = [...]Column{
	{"dev", FDev, IntColumn, true, func(e *Event, v int64, _ string) { e.Dev = int(v) }},
	{"lpn", FLPN, IntColumn, true, func(e *Event, v int64, _ string) { e.LPN = v }},
	{"victim", FVictim, IntColumn, true, func(e *Event, v int64, _ string) { e.Victim = int(v) }},
	{"page", FPage, IntColumn, true, func(e *Event, v int64, _ string) { e.Page = int(v) }},
	{"kind", FKind, StringColumn, false, func(e *Event, _ int64, s string) { e.Kind = s }},
	{"pages", FPages, IntColumn, false, func(e *Event, v int64, _ string) { e.Pages = int(v) }},
	{"latency_ns", FLatency, IntColumn, false, func(e *Event, v int64, _ string) { e.Latency = time.Duration(v) }},
	{"free_bytes", FFreeBytes, IntColumn, false, func(e *Event, v int64, _ string) { e.FreeBytes = v }},
	{"reclaim_bytes", FReclaimBytes, IntColumn, false, func(e *Event, v int64, _ string) { e.ReclaimBytes = v }},
	{"predicted_bytes", FPredictedBytes, IntColumn, false, func(e *Event, v int64, _ string) { e.PredictedBytes = v }},
	{"idle_fraction", FIdleFraction, FloatColumn, false, func(e *Event, v int64, _ string) { e.IdleFraction = math.Float64frombits(uint64(v)) }},
	{"foreground", FForeground, BoolColumn, false, func(e *Event, v int64, _ string) { e.Foreground = v != 0 }},
	{"valid_pages", FValidPages, IntColumn, false, func(e *Event, v int64, _ string) { e.ValidPages = int(v) }},
	{"sip_pages", FSIPPages, IntColumn, false, func(e *Event, v int64, _ string) { e.SIPPages = int(v) }},
	{"freed_pages", FFreedPages, IntColumn, false, func(e *Event, v int64, _ string) { e.FreedPages = v }},
	{"elapsed_ns", FElapsed, IntColumn, false, func(e *Event, v int64, _ string) { e.Elapsed = time.Duration(v) }},
	{"erase_count", FEraseCount, IntColumn, false, func(e *Event, v int64, _ string) { e.EraseCount = v }},
	{"action", FAction, StringColumn, false, func(e *Event, _ int64, s string) { e.Action = s }},
	{"op", FOp, StringColumn, false, func(e *Event, _ int64, s string) { e.Op = s }},
	{"attempts", FAttempts, IntColumn, false, func(e *Event, v int64, _ string) { e.Attempts = int(v) }},
	{"recovered", FRecovered, BoolColumn, false, func(e *Event, v int64, _ string) { e.Recovered = v != 0 }},
	{"reason", FReason, StringColumn, false, func(e *Event, _ int64, s string) { e.Reason = s }},
	{"tenant", FTenant, IntColumn, false, func(e *Event, v int64, _ string) { e.Tenant = int(v) }},
	{"class", FClass, StringColumn, false, func(e *Event, _ int64, s string) { e.Class = s }},
	{"dropped", FDropped, IntColumn, false, func(e *Event, v int64, _ string) { e.Dropped = v }},
	{"violations", FViolations, IntColumn, false, func(e *Event, v int64, _ string) { e.Violations = v }},
	{"dirty_pages", FDirtyPages, IntColumn, false, func(e *Event, v int64, _ string) { e.DirtyPages = int(v) }},
	{"waf", FWAF, FloatColumn, false, func(e *Event, v int64, _ string) { e.WAF = math.Float64frombits(uint64(v)) }},
	{"fgc", FFGC, IntColumn, false, func(e *Event, v int64, _ string) { e.FGCInvocations = v }},
	{"bgc", FBGC, IntColumn, false, func(e *Event, v int64, _ string) { e.BGCCollections = v }},
	{"requests", FRequests, IntColumn, false, func(e *Event, v int64, _ string) { e.Requests = v }},
}

// Field reads the payload field bit names in its column form: an integer
// as v, a float as its IEEE-754 bits, a bool as 0 or 1, a string as s. A
// bit naming no single field reads as zero.
func (e *Event) Field(bit FieldSet) (v int64, s string) {
	switch bit {
	case FDev:
		return int64(e.Dev), ""
	case FKind:
		return 0, e.Kind
	case FLPN:
		return e.LPN, ""
	case FPages:
		return int64(e.Pages), ""
	case FLatency:
		return int64(e.Latency), ""
	case FFreeBytes:
		return e.FreeBytes, ""
	case FReclaimBytes:
		return e.ReclaimBytes, ""
	case FPredictedBytes:
		return e.PredictedBytes, ""
	case FIdleFraction:
		return int64(math.Float64bits(e.IdleFraction)), ""
	case FForeground:
		return boolBits(e.Foreground), ""
	case FVictim:
		return int64(e.Victim), ""
	case FValidPages:
		return int64(e.ValidPages), ""
	case FSIPPages:
		return int64(e.SIPPages), ""
	case FFreedPages:
		return e.FreedPages, ""
	case FElapsed:
		return int64(e.Elapsed), ""
	case FEraseCount:
		return e.EraseCount, ""
	case FAction:
		return 0, e.Action
	case FOp:
		return 0, e.Op
	case FPage:
		return int64(e.Page), ""
	case FAttempts:
		return int64(e.Attempts), ""
	case FRecovered:
		return boolBits(e.Recovered), ""
	case FReason:
		return 0, e.Reason
	case FTenant:
		return int64(e.Tenant), ""
	case FClass:
		return 0, e.Class
	case FDropped:
		return e.Dropped, ""
	case FViolations:
		return e.Violations, ""
	case FDirtyPages:
		return int64(e.DirtyPages), ""
	case FWAF:
		return int64(math.Float64bits(e.WAF)), ""
	case FFGC:
		return e.FGCInvocations, ""
	case FBGC:
		return e.BGCCollections, ""
	case FRequests:
		return e.Requests, ""
	}
	return 0, ""
}

func boolBits(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Token hand-off actions (Event.Action for EvToken).
const (
	// ActionGrant: the ask passed through the rotation token unchanged.
	ActionGrant = "grant"
	// ActionDeny: a mid-burst ask deferred to the next inter-burst gap, or
	// an ask beyond the token width.
	ActionDeny = "deny"
	// ActionBoost: a gap grant topped up beyond the device's own ask to
	// pre-collect for the coming burst.
	ActionBoost = "boost"
	// ActionBypass: a critical device allowed past the token because
	// denying it would only convert the work into a foreground stall.
	ActionBypass = "bypass"
)

// Rebuild lifecycle actions (Event.Action for EvRebuild).
const (
	// ActionStart: the rebuild began.
	ActionStart = "start"
	// ActionEnd: the rebuild ran to completion.
	ActionEnd = "end"
	// ActionAbort: the rebuild died mid-way (e.g. the salvage source
	// failed) and will not resume.
	ActionAbort = "abort"
)
