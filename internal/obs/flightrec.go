package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// PhaseTimings splits one request's wall time across the composition
// pipeline phases. Zero fields mean "phase did not run" (e.g. a
// plan-cache hit skips lookup/local/global).
type PhaseTimings struct {
	Resolve time.Duration `json:"resolve,omitempty"`
	Lookup  time.Duration `json:"lookup,omitempty"`
	Local   time.Duration `json:"local,omitempty"`
	Global  time.Duration `json:"global,omitempty"`
}

// BindingRecord is one activity→service binding of a selection, with
// the bound service's contribution to the composition utility (the
// per-candidate utility QASSA ranked it by).
type BindingRecord struct {
	Activity string  `json:"activity"`
	Service  string  `json:"service"`
	Utility  float64 `json:"utility"`
}

// RequestRecord is one entry of the flight recorder: everything needed
// to explain after the fact why a request was slow, degraded, or bound
// the way it was — without re-running it.
type RequestRecord struct {
	// Kind tags the pipeline stage that produced the record: "compose",
	// "execute", or "dist-select" (a distributed selection observed at
	// the core layer; a distributed compose emits both).
	Kind string `json:"kind"`
	// TraceID links the record to its span tree in /debug/spans.
	TraceID string `json:"trace_id,omitempty"`
	// Tenant is the logical environment the request ran in ("default"
	// for the zero tenant; empty when the layer has no tenant notion).
	Tenant string `json:"tenant,omitempty"`
	// Task is the task-tree fingerprint (hex) or task name.
	Task     string        `json:"task,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"`
	Phases   PhaseTimings  `json:"phases"`
	// CacheHit marks a selection served from the plan cache; CacheMiss
	// names the miss cause otherwise ("cold" — no entry; "epoch" — entry
	// invalidated by registry churn; empty for uncacheable requests).
	CacheHit  bool   `json:"cache_hit,omitempty"`
	CacheMiss string `json:"cache_miss,omitempty"`
	// Degraded and DegradedCauses mirror the selection result: activities
	// whose coordinator exhausted the resilience policy and fell back to
	// requester-side selection, with the exhausting failure.
	Degraded       bool              `json:"degraded,omitempty"`
	DegradedCauses map[string]string `json:"degraded_causes,omitempty"`
	// Resilience work of a distributed selection.
	Retries      int `json:"retries,omitempty"`
	Hedges       int `json:"hedges,omitempty"`
	BreakerSkips int `json:"breaker_skips,omitempty"`
	Fallbacks    int `json:"fallbacks,omitempty"`
	// Selection outcome.
	Feasible bool            `json:"feasible,omitempty"`
	Utility  float64         `json:"utility,omitempty"`
	Bindings []BindingRecord `json:"bindings,omitempty"`
	// Events lists adaptation/substitution activity ("substitutions=2",
	// "behaviour-switches=1", ...).
	Events []string `json:"events,omitempty"`
	// Err is the request's failure, if it failed.
	Err string `json:"error,omitempty"`
}

// cloneInto sets *dst to a copy of r whose reference fields are deep
// copies, so a snapshot never aliases ring state.
func (r *RequestRecord) cloneInto(dst *RequestRecord) {
	*dst = *r
	if r.DegradedCauses != nil {
		dst.DegradedCauses = make(map[string]string, len(r.DegradedCauses))
		for k, v := range r.DegradedCauses {
			dst.DegradedCauses[k] = v
		}
	}
	if r.Bindings != nil {
		dst.Bindings = append([]BindingRecord(nil), r.Bindings...)
	}
	if r.Events != nil {
		dst.Events = append([]string(nil), r.Events...)
	}
}

// DefaultFlightCapacity is the record retention a FlightRecorder gets
// when NewFlightRecorder is called with capacity 0 (the NewHub
// default).
const DefaultFlightCapacity = 256

// flightSlot is one ring entry with its own lock. The ticket counter
// spreads concurrent writers across distinct slots, so writers never
// contend with each other in steady state; a slot is busy only while a
// snapshot copies it, or when a writer was lapped by a full ring of
// newer records while stalled.
type flightSlot struct {
	mu sync.Mutex
	// seq is the 1-based ticket of the stored record (0 = empty). It
	// orders snapshots oldest-first and keeps a lapped straggler from
	// overwriting a newer record.
	seq uint64
	rec RequestRecord
}

// FlightRecorder keeps a bounded ring of the most recent request
// records, mirroring the Tracer's ring semantics: Record overwrites the
// oldest entry beyond capacity, Total counts every record ever taken.
// Record never blocks: writers take an atomic ticket and land on that
// ticket's slot, so concurrent Records go to different slots and all
// succeed; only a record whose slot is momentarily held — by a
// /debug/requests snapshot, or by a writer lapped a whole ring — is
// dropped and counted instead. Diagnostics must not be able to stall
// serving. All methods are nil-safe and safe for concurrent use.
type FlightRecorder struct {
	ring    []flightSlot
	tickets atomic.Uint64
	total   atomic.Uint64
	dropped atomic.Uint64
}

// NewFlightRecorder creates a recorder retaining the last capacity
// records; 0 means DefaultFlightCapacity. Negative capacities are a
// programmer error and panic.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity < 0 {
		panic(fmt.Sprintf("obs: NewFlightRecorder capacity must be >= 0, got %d", capacity))
	}
	if capacity == 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{ring: make([]flightSlot, capacity)}
}

// Record copies one request record into the ring. The ring takes
// ownership of the record's map and slices: the caller must not write
// them afterwards (sharing them read-only, as a plan-cache hit shares
// its entry's bindings, is fine). It is drop-don't-block: the slot a
// record's ticket routes it to is free unless a snapshot is copying
// that exact slot (or the writer slept long enough to be lapped), and
// a busy slot costs one failed TryLock and a counter bump, never a
// wait on the serving path.
func (f *FlightRecorder) Record(rec *RequestRecord) {
	if f == nil {
		return
	}
	ticket := f.tickets.Add(1)
	slot := &f.ring[(ticket-1)%uint64(len(f.ring))]
	if !slot.mu.TryLock() {
		f.dropped.Add(1)
		return
	}
	if ticket < slot.seq {
		// Lapped: a full ring of newer records landed while this writer
		// was stalled between ticket and lock. Keep the newer record.
		slot.mu.Unlock()
		f.dropped.Add(1)
		return
	}
	slot.seq = ticket
	slot.rec = *rec
	slot.mu.Unlock()
	f.total.Add(1)
}

// Total counts every record ever taken (monotonic; the ring only
// retains the most recent ones). Dropped records are not included.
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	return f.total.Load()
}

// Dropped counts records discarded because their ring slot was busy (a
// snapshot mid-copy, or the writer lapped by a full ring) when Record
// arrived (monotonic).
func (f *FlightRecorder) Dropped() uint64 {
	if f == nil {
		return 0
	}
	return f.dropped.Load()
}

// FlightQuery filters a Snapshot (the /debug/requests query surface).
type FlightQuery struct {
	// Tenant keeps only records of that tenant when TenantSet is true
	// (the two-field shape because the default tenant renders as
	// "default", and an empty filter must mean "all tenants").
	Tenant    string
	TenantSet bool
	// Degraded keeps only degraded records.
	Degraded bool
	// Slowest returns only the N longest-running matching records,
	// slowest first; 0 returns every match oldest-first.
	Slowest int
}

// Snapshot returns deep copies of the retained records matching q,
// oldest first (or slowest first under q.Slowest). Each slot is held
// only long enough for a shallow copy — safe because nothing writes a
// recorded record's maps and slices (Record's ownership contract), and
// a writer replaces a slot's record instead of mutating it — so a
// concurrent Record contends on at most one slot at a time.
func (f *FlightRecorder) Snapshot(q FlightQuery) []RequestRecord {
	if f == nil {
		return nil
	}
	type tagged struct {
		seq uint64
		rec RequestRecord
	}
	recs := make([]tagged, 0, len(f.ring))
	for i := range f.ring {
		slot := &f.ring[i]
		slot.mu.Lock()
		if slot.seq != 0 {
			recs = append(recs, tagged{slot.seq, slot.rec})
		}
		slot.mu.Unlock()
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	out := make([]RequestRecord, 0, len(recs))
	for i := range recs {
		r := &recs[i].rec
		if q.TenantSet && r.Tenant != q.Tenant {
			continue
		}
		if q.Degraded && !r.Degraded {
			continue
		}
		out = append(out, RequestRecord{})
		r.cloneInto(&out[len(out)-1])
	}
	if q.Slowest > 0 {
		sort.SliceStable(out, func(i, j int) bool { return out[i].Duration > out[j].Duration })
		if len(out) > q.Slowest {
			out = out[:q.Slowest]
		}
	}
	return out
}
