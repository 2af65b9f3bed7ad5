package qasom

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"qasom/internal/core"
	"qasom/internal/obs"
)

// planCache is the bounded selection-plan cache of the serving engine:
// completed (non-distributed) selections are stored under a key derived
// from the task fingerprint, constraints, weights and aggregation
// approach, together with the registry-epoch snapshot of every
// capability the task touches. A lookup whose fresh epoch snapshot
// matches the stored one returns the stored Result itself with zero
// selection work — bit-identical to recomputation, because selections
// are deterministic per seed and the epochs certify that no candidate
// the request could see has changed. An epoch mismatch drops the entry
// (the registry churned underneath it); capacity overflow evicts the
// least-recently-touched entry (exact LRU).
//
// The entry map is immutable and swapped atomically by writers under one
// mutex. The hit path — map load, epoch compare, recency stamp —
// acquires no mutex at all, so concurrent tenants hitting warm plans
// never serialize; only writers (put, stale-entry removal, eviction)
// take the lock.
//
// Cached Results are shared, never copied: a Result is immutable once it
// leaves the selector, every Composition served from the same entry
// reads the same pointer, and adapt.Runtime takes a private copy before
// its first substitution commit (the only writer of a Result).
type planCache struct {
	capacity int
	// items is the immutable key→entry map, swapped wholesale by
	// writers. Never nil after newPlanCache.
	items atomic.Pointer[map[string]*planEntry]
	// tick is the recency clock; every hit and insert stamps the entry
	// with the next tick.
	tick atomic.Uint64
	mu   sync.Mutex

	hits, misses, evictions, invalidations *obs.Counter
}

// planEntry is immutable after publication except for the touch stamp;
// put replaces an entry wholesale rather than mutating it in place.
type planEntry struct {
	epochs []uint64
	res    *core.Result
	// bindings is res.BindingRecords(), computed once at put so hits
	// fill their flight record without walking and sorting the
	// assignment. Shared read-only.
	bindings []obs.BindingRecord
	touch    atomic.Uint64
}

// defaultPlanCacheSize bounds the cache when Options.SelectionCacheSize
// is zero.
const defaultPlanCacheSize = 128

// newPlanCache builds a cache of the given capacity (0 = default,
// negative = disabled).
func newPlanCache(capacity int, r *obs.Registry) *planCache {
	if capacity == 0 {
		capacity = defaultPlanCacheSize
	}
	if capacity < 0 {
		return nil // caching disabled
	}
	c := &planCache{
		capacity: capacity,
		hits: r.Counter("qasom_plan_cache_hits_total",
			"Selections served from the plan cache (zero selection work)."),
		misses: r.Counter("qasom_plan_cache_misses_total",
			"Plan-cache lookups that had to run a fresh selection."),
		evictions: r.Counter("qasom_plan_cache_evictions_total",
			"Plan-cache entries evicted by the LRU capacity bound."),
		invalidations: r.Counter("qasom_plan_cache_epoch_invalidations_total",
			"Plan-cache entries dropped because a capability epoch moved (registry churn)."),
	}
	empty := make(map[string]*planEntry)
	c.items.Store(&empty)
	return c
}

// len returns the number of live entries.
func (c *planCache) len() int {
	if c == nil {
		return 0
	}
	return len(*c.items.Load())
}

// planOutcome classifies one cache probe for the flight recorder:
// served from cache, missed because no entry existed, or missed because
// the stored epoch snapshot went stale (registry churn).
type planOutcome int

const (
	planHit planOutcome = iota
	planMissCold
	planMissEpoch
)

// missCause renders the outcome as the flight-record CacheMiss cause.
func (o planOutcome) missCause() string {
	switch o {
	case planMissCold:
		return "cold"
	case planMissEpoch:
		return "epoch"
	default:
		return ""
	}
}

// lookup returns the entry stored under key when its stored epoch
// snapshot equals now, and nil otherwise, with the probe outcome
// attached. The entry's Result is shared: callers must not write it. A
// stale entry (epoch mismatch) is removed on sight and reported as
// planMissEpoch. The hit path takes no locks.
func (c *planCache) lookup(key string, now []uint64) (*planEntry, planOutcome) {
	if c == nil {
		return nil, planMissCold
	}
	e := (*c.items.Load())[key]
	if e == nil {
		c.misses.Inc()
		return nil, planMissCold
	}
	if !equalEpochs(e.epochs, now) {
		c.remove(key, e)
		c.invalidations.Inc()
		c.misses.Inc()
		return nil, planMissEpoch
	}
	e.touch.Store(c.tick.Add(1))
	c.hits.Inc()
	return e, planHit
}

// remove drops the entry under key, but only if it still is victim (a
// concurrent put of a fresh entry under the same key must win).
func (c *planCache) remove(key string, victim *planEntry) {
	c.mu.Lock()
	cur := *c.items.Load()
	if cur[key] == victim {
		next := make(map[string]*planEntry, len(cur))
		for k, v := range cur {
			if k != key {
				next[k] = v
			}
		}
		c.items.Store(&next)
	}
	c.mu.Unlock()
}

// put stores res under key with its epoch snapshot and flight-record
// bindings, evicting the least-recently-touched entry beyond capacity.
// res is shared from here on: neither the caller nor the cache may write
// it afterwards.
func (c *planCache) put(key string, epochs []uint64, res *core.Result) {
	if c == nil {
		return
	}
	// epochs is usually the caller's stack buffer: keep a copy.
	e := &planEntry{epochs: append([]uint64(nil), epochs...), res: res, bindings: res.BindingRecords()}
	e.touch.Store(c.tick.Add(1))
	evicted := false
	c.mu.Lock()
	cur := *c.items.Load()
	next := make(map[string]*planEntry, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[key] = e
	if len(next) > c.capacity {
		// Evict the minimum touch stamp. Stamps are unique (every hit
		// and insert takes a fresh tick), so the victim is
		// deterministic.
		var victim string
		minTouch := ^uint64(0)
		for k, v := range next {
			if k == key {
				continue
			}
			if tv := v.touch.Load(); tv < minTouch {
				minTouch = tv
				victim = k
			}
		}
		delete(next, victim)
		evicted = true
	}
	c.items.Store(&next)
	c.mu.Unlock()
	if evicted {
		c.evictions.Inc()
	}
}

func equalEpochs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// planCacheKey derives the cache key of a prepared selection request:
// the task-tree fingerprint plus every input that steers the selection
// (approach, constraints in request order, the effective weight vector),
// rendered as "%016x|a%d", then "|c:%s=%x" per constraint bound's bits
// and "|w:%x" per weight's bits. Selector options and the seed are fixed
// per Middleware and the cache is per Middleware, so they need no key
// component.
func planCacheKey(te *taskEntry, req *core.Request) string {
	var buf [128]byte
	b := append(buf[:0], te.id...)
	b = append(b, "|a"...)
	b = strconv.AppendInt(b, int64(req.Approach), 10)
	for _, c := range req.Constraints {
		b = append(b, "|c:"...)
		b = append(b, c.Property...)
		b = append(b, '=')
		b = strconv.AppendUint(b, math.Float64bits(c.Bound), 16)
	}
	for _, w := range req.Weights {
		b = append(b, "|w:"...)
		b = strconv.AppendUint(b, math.Float64bits(w), 16)
	}
	return string(b)
}

// planEpochs snapshots, in task order, the registry epoch of every
// capability the task's activities require (the subsumption-closure
// epochs bumped by any publish/withdraw/QoS-update of a matching
// service), with the ontology version appended. The snapshot is
// tenant-scoped and reads only those capabilities' epochs — churn in
// another tenant, or under unrelated capabilities, leaves it untouched.
// Taken BEFORE candidate lookup: if the registry churns between
// snapshot and selection, the stored snapshot is already stale and the
// next lookup recomputes — conservative, never incorrect.
//
// The snapshot goes through the task entry's epoch probe, which resolves
// the concepts' registry entries once per ontology version.
func (m *Middleware) planEpochs(dst []uint64, te *taskEntry) []uint64 {
	p := te.probe.Load()
	if p == nil {
		p = m.reg.NewEpochProbe(te.concepts...)
		if !te.probe.CompareAndSwap(nil, p) {
			p = te.probe.Load()
		}
	}
	return p.Epochs(dst)
}
