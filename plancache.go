package qasom

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"qasom/internal/core"
	"qasom/internal/obs"
	"qasom/internal/semantics"
	"qasom/internal/task"
)

// planCache is the bounded selection-plan cache of the serving engine:
// completed (non-distributed) selections are stored under a key derived
// from the task fingerprint, constraints, weights and aggregation
// approach, together with the registry-epoch snapshot of every
// capability the task touches. A lookup whose fresh epoch snapshot
// matches the stored one returns a deep copy of the Result with zero
// selection work — bit-identical to recomputation, because selections
// are deterministic per seed and the epochs certify that no candidate
// the request could see has changed. An epoch mismatch drops the entry
// (the registry churned underneath it); capacity overflow evicts the
// least-recently-touched entry of the overflowing segment.
//
// The cache is lock-striped: keys hash (FNV-1a) to one of a power-of-two
// number of segments, each an atomically-swapped immutable map with its
// own writer mutex and capacity share. The hit path — map load, epoch
// compare, recency stamp, deep copy — acquires no mutex at all, so
// concurrent tenants hitting warm plans never serialize; only writers
// (put, stale-entry removal, eviction) take their segment's lock.
// Recency is an approximate LRU over per-entry atomic touch ticks; with
// a single segment it degenerates to exact LRU, which the unit tests
// pin.
//
// Both put and get deep-copy the Result, so cached state is never
// aliased by a live Composition (the adaptation runtime mutates its
// Result during substitution).
type planCache struct {
	segMask uint32
	segCap  int
	segs    []planSegment

	hits, misses, evictions, invalidations *obs.Counter
	// segHits are the per-segment hit counters, label pre-resolved so the
	// hit path never formats.
	segHits []*obs.Counter
}

// planSegment is one lock domain of the cache. Padded so adjacent
// segments' tick counters and map pointers never false-share a cache
// line.
type planSegment struct {
	// items is the segment's immutable key→entry map, swapped wholesale
	// by writers. Never nil after newPlanCache.
	items atomic.Pointer[map[string]*planEntry]
	// tick is the segment's recency clock; every hit and insert stamps
	// the entry with the next tick.
	tick atomic.Uint64
	mu   sync.Mutex
	_    [64]byte
}

// planEntry is immutable after publication except for the touch stamp;
// put replaces an entry wholesale rather than mutating it in place.
type planEntry struct {
	key    string
	epochs []uint64
	res    *core.Result
	touch  atomic.Uint64
}

// defaultPlanCacheSize bounds the cache when Options.SelectionCacheSize
// is zero.
const defaultPlanCacheSize = 128

// maxPlanCacheSegments bounds the stripe count: beyond ~16 segments the
// per-segment capacity share gets too small to behave like an LRU, and
// the hit path is already lock-free so more stripes buy nothing.
const maxPlanCacheSegments = 16

// planSegments resolves the effective segment count: an explicit request
// is rounded up to a power of two; 0 auto-sizes so each segment keeps a
// useful capacity share (≥8 entries) up to maxPlanCacheSegments.
func planSegments(capacity, requested int) int {
	n := 1
	if requested > 0 {
		for n < requested && n < maxPlanCacheSegments {
			n <<= 1
		}
		return n
	}
	for n < maxPlanCacheSegments && capacity/(n*2) >= 8 {
		n <<= 1
	}
	return n
}

// newPlanCache builds a cache of the given capacity (0 = default,
// negative = disabled). segments 0 auto-sizes via planSegments; the
// facade always passes 0, tests pin explicit counts.
func newPlanCache(capacity, segments int, r *obs.Registry) *planCache {
	if capacity == 0 {
		capacity = defaultPlanCacheSize
	}
	if capacity < 0 {
		return nil // caching disabled
	}
	n := planSegments(capacity, segments)
	c := &planCache{
		segMask: uint32(n - 1),
		segCap:  (capacity + n - 1) / n,
		segs:    make([]planSegment, n),
		hits: r.Counter("qasom_plan_cache_hits_total",
			"Selections served from the plan cache (zero selection work)."),
		misses: r.Counter("qasom_plan_cache_misses_total",
			"Plan-cache lookups that had to run a fresh selection."),
		evictions: r.Counter("qasom_plan_cache_evictions_total",
			"Plan-cache entries evicted by the LRU capacity bound."),
		invalidations: r.Counter("qasom_plan_cache_epoch_invalidations_total",
			"Plan-cache entries dropped because a capability epoch moved (registry churn)."),
		segHits: make([]*obs.Counter, n),
	}
	segHits := r.CounterVec("qasom_plan_cache_segment_hits_total",
		"Plan-cache hits per lock-striped segment (distribution check).", "segment")
	for i := range c.segs {
		empty := make(map[string]*planEntry)
		c.segs[i].items.Store(&empty)
		c.segHits[i] = segHits.With(strconv.Itoa(i))
	}
	return c
}

// fnvKey hashes a cache key for segment routing (FNV-1a).
func fnvKey(key string) uint32 {
	const prime = 16777619
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * prime
	}
	return h
}

// len returns the number of live entries across all segments.
func (c *planCache) len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.segs {
		n += len(*c.segs[i].items.Load())
	}
	return n
}

// segments reports the stripe count (test hook).
func (c *planCache) segments() int {
	if c == nil {
		return 0
	}
	return len(c.segs)
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

// get returns a deep copy of the entry under key when its stored epoch
// snapshot equals now, and nil otherwise.
func (c *planCache) get(key string, now []uint64) *core.Result {
	res, _ := c.lookup(key, now)
	return res
}

// lookup is get with the probe outcome attached. A stale entry (epoch
// mismatch) is removed on sight and reported as planMissEpoch. The hit
// path takes no locks.
func (c *planCache) lookup(key string, now []uint64) (*core.Result, planOutcome) {
	if c == nil {
		return nil, planMissCold
	}
	idx := fnvKey(key) & c.segMask
	seg := &c.segs[idx]
	e := (*seg.items.Load())[key]
	if e == nil {
		c.misses.Inc()
		return nil, planMissCold
	}
	if !equalEpochs(e.epochs, now) {
		seg.remove(key, e)
		c.invalidations.Inc()
		c.misses.Inc()
		return nil, planMissEpoch
	}
	e.touch.Store(seg.tick.Add(1))
	c.hits.Inc()
	c.segHits[idx].Inc()
	return e.res.Clone(), planHit
}

// remove drops the entry under key, but only if it still is victim (a
// concurrent put of a fresh entry under the same key must win).
func (seg *planSegment) remove(key string, victim *planEntry) {
	seg.mu.Lock()
	cur := *seg.items.Load()
	if cur[key] == victim {
		next := make(map[string]*planEntry, len(cur))
		for k, v := range cur {
			if k != key {
				next[k] = v
			}
		}
		seg.items.Store(&next)
	}
	seg.mu.Unlock()
}

// put stores a deep copy of res under key with its epoch snapshot,
// evicting the segment's least-recently-touched entry beyond the
// segment's capacity share.
func (c *planCache) put(key string, epochs []uint64, res *core.Result) {
	if c == nil {
		return
	}
	seg := &c.segs[fnvKey(key)&c.segMask]
	e := &planEntry{key: key, epochs: epochs, res: res.Clone()}
	e.touch.Store(seg.tick.Add(1))
	evicted := false
	seg.mu.Lock()
	cur := *seg.items.Load()
	next := make(map[string]*planEntry, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[key] = e
	if len(next) > c.segCap {
		// Evict the minimum touch stamp. Stamps are unique per segment
		// (every hit and insert takes a fresh tick), so the victim is
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
	seg.items.Store(&next)
	seg.mu.Unlock()
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
// (approach, constraints in request order, the effective weight vector).
// Selector options and the seed are fixed per Middleware and the cache
// is per Middleware, so they need no key component.
func planCacheKey(t *task.Task, req *core.Request) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%016x|a%d", t.Fingerprint(), req.Approach)
	for _, c := range req.Constraints {
		fmt.Fprintf(&b, "|c:%s=%x", c.Property, math.Float64bits(c.Bound))
	}
	for _, w := range req.Weights {
		fmt.Fprintf(&b, "|w:%x", math.Float64bits(w))
	}
	return b.String()
}

// planEpochs snapshots, in task order, the registry epoch of every
// capability the task's activities require (the subsumption-closure
// epochs bumped by any publish/withdraw/QoS-update of a matching
// service), with the ontology version appended. The snapshot is
// tenant-scoped and touches only the registry shards those capabilities
// hash to — churn in another tenant, or under capabilities in other
// shards, leaves it untouched. Taken BEFORE candidate lookup: if the
// registry churns between snapshot and selection — even if only some
// shards had landed their updates at snapshot time — the stored
// snapshot is already stale and the next lookup recomputes —
// conservative, never incorrect.
func (m *Middleware) planEpochs(dst []uint64, t *task.Task) []uint64 {
	acts := t.Activities()
	concepts := make([]semantics.ConceptID, len(acts))
	for i, a := range acts {
		concepts[i] = a.Concept
	}
	return m.reg.CapabilityEpochs(dst, concepts...)
}
