// White-box tests for the selection-plan cache: LRU/eviction mechanics
// and counters on the cache itself, and the raced differential that pins
// "a cached hit is bit-identical to a fresh recomputation at the same
// epoch" while the registry churns underneath.
package qasom

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"qasom/internal/bpel"
	"qasom/internal/core"
	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/registry"
)

// fakeResult builds a minimal distinguishable Result for cache-mechanics
// tests (the cache treats results as opaque shared payloads).
func fakeResult(id string, utility float64) *core.Result {
	return &core.Result{
		Assignment: core.Assignment{
			"act": registry.Candidate{
				Service: &registry.Description{ID: registry.ServiceID(id)},
				Vector:  qos.Vector{1, 2},
			},
		},
		Utility:  utility,
		Feasible: true,
	}
}

func counterValue(t *testing.T, r *obs.Registry, name string) float64 {
	t.Helper()
	for _, m := range r.Snapshot() {
		if m.Name == name {
			if len(m.Series) == 0 {
				return 0
			}
			return m.Series[0].Value
		}
	}
	t.Fatalf("metric %s not registered", name)
	return 0
}

func TestPlanCacheLRUEvictionAndCounters(t *testing.T) {
	r := obs.NewRegistry()
	c := newPlanCache(2, r)
	e := []uint64{7}

	if got, _ := c.lookup("a", e); got != nil {
		t.Fatal("empty cache should miss")
	}
	c.put("a", e, fakeResult("sa", 0.1))
	c.put("b", e, fakeResult("sb", 0.2))
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	if got, _ := c.lookup("a", e); got == nil || got.res.Utility != 0.1 {
		t.Fatalf("lookup(a) = %+v", got)
	}
	c.put("c", e, fakeResult("sc", 0.3))
	if c.len() != 2 {
		t.Fatalf("len after eviction = %d, want 2", c.len())
	}
	if got, _ := c.lookup("b", e); got != nil {
		t.Error("LRU entry b should have been evicted")
	}
	if got, _ := c.lookup("a", e); got == nil {
		t.Error("recently used entry a should survive")
	}
	if got, _ := c.lookup("c", e); got == nil {
		t.Error("newest entry c should survive")
	}
	if v := counterValue(t, r, "qasom_plan_cache_evictions_total"); v != 1 {
		t.Errorf("evictions counter = %g, want 1", v)
	}

	// Epoch mismatch drops the entry on sight and counts an invalidation.
	if got, _ := c.lookup("a", []uint64{8}); got != nil {
		t.Error("epoch mismatch should miss")
	}
	if got, _ := c.lookup("a", e); got != nil {
		t.Error("stale entry should have been removed, not just skipped")
	}
	if v := counterValue(t, r, "qasom_plan_cache_epoch_invalidations_total"); v != 1 {
		t.Errorf("invalidations counter = %g, want 1", v)
	}
	if hits := counterValue(t, r, "qasom_plan_cache_hits_total"); hits != 3 {
		t.Errorf("hits counter = %g, want 3", hits)
	}

	// The cache shares, never copies: lookup returns the pointer put stored
	// (leak safety is the adaptation runtime's copy-on-write, pinned by
	// TestSharedPlansDoNotLeak).
	stored := fakeResult("sx", 0.5)
	c.put("x", e, stored)
	if got, _ := c.lookup("x", e); got == nil || got.res != stored {
		t.Error("lookup should return the stored Result itself")
	}
}

// TestPlanCacheRaced storms a cache with concurrent puts, hits, and
// epoch invalidations and then checks the invariants the churn
// differential relies on: the capacity bound holds, stale entries are
// really gone, surviving entries return exactly what was stored, and the
// counters account for the eviction/invalidation traffic. Run under
// -race it proves the lock-free hit path against the copy-on-write
// writers.
func TestPlanCacheRaced(t *testing.T) {
	r := obs.NewRegistry()
	c := newPlanCache(16, r)
	fresh := []uint64{1}
	stale := []uint64{2}
	keyOf := func(i int) string { return fmt.Sprintf("plan-%d", i) }

	const keys = 48 // 3x capacity: the cache must evict
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := keyOf((g*7 + i) % keys)
				switch i % 3 {
				case 0:
					c.put(k, fresh, fakeResult(k, float64((g*7+i)%keys)))
				case 1:
					if got, _ := c.lookup(k, fresh); got != nil {
						// A hit must carry the payload stored under that key.
						if got.res.Utility != float64((g*7+i)%keys) {
							t.Errorf("lookup(%s) returned foreign payload %v", k, got.res.Utility)
							return
						}
					}
				case 2:
					c.lookup(k, stale) // epoch mismatch: removal-on-sight
				}
			}
		}(g)
	}
	wg.Wait()

	if got := c.len(); got > 16 {
		t.Errorf("len = %d exceeds capacity 16", got)
	}
	// Quiesced sweep: every surviving entry carries its own payload and
	// every stale probe removes its entry.
	for i := 0; i < keys; i++ {
		k := keyOf(i)
		if got, _ := c.lookup(k, fresh); got != nil {
			if got.res.Utility != float64(i) || got.res.Assignment["act"].Vector[0] != 1 {
				t.Errorf("entry %s corrupted: %+v", k, got.res)
			}
			if e, _ := c.lookup(k, stale); e != nil {
				t.Errorf("stale probe of %s returned a result", k)
			}
			if e, _ := c.lookup(k, fresh); e != nil {
				t.Errorf("stale probe of %s did not remove the entry", k)
			}
		}
	}
	if v := counterValue(t, r, "qasom_plan_cache_evictions_total"); v == 0 {
		t.Error("no evictions counted despite 3x-capacity key churn")
	}
	if v := counterValue(t, r, "qasom_plan_cache_epoch_invalidations_total"); v == 0 {
		t.Error("no epoch invalidations counted despite stale probes")
	}
}

func TestPlanCacheDisabledIsNil(t *testing.T) {
	c := newPlanCache(-1, obs.NewRegistry())
	if c != nil {
		t.Fatal("negative capacity should disable the cache")
	}
	// The nil cache is a safe no-op (the façade calls it unconditionally
	// for the entries gauge).
	if c.len() != 0 {
		t.Error("nil cache len should be 0")
	}
	if e, _ := c.lookup("k", nil); e != nil {
		t.Error("nil cache lookup should miss")
	}
	c.put("k", nil, fakeResult("s", 1)) // must not panic
}

// TestDifferentialPlanCacheChurnRaced interleaves registry churn with
// concurrent composes and, for every cache hit it can pin to a stable
// epoch window, DeepEquals the cached Result against a fresh
// recomputation: a hit must be bit-identical to running the selection
// again at the same epoch. Run under -race this also exercises the
// cache's locking against Publish/Withdraw.
func TestDifferentialPlanCacheChurnRaced(t *testing.T) {
	mw, err := New(Options{Obs: obs.NewHub()})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []struct{ prefix, capability string }{
		{"browse", "BrowseCatalog"}, {"order", "OrderItem"}, {"pay", "CardPayment"},
	} {
		for i := 0; i < 5; i++ {
			err := mw.Publish(Service{
				ID:         fmt.Sprintf("%s-%d", spec.prefix, i),
				Capability: spec.capability,
				QoS: map[string]float64{
					"responseTime": 40 + float64(5*i), "price": 5,
					"availability": 0.95, "reliability": 0.9, "throughput": 40,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	const doc = `<process name="churn-shopping" concept="Shopping">
	  <sequence>
	    <invoke activity="browse" concept="BrowseCatalog"/>
	    <invoke activity="order" concept="OrderItem"/>
	    <invoke activity="pay" concept="Payment"/>
	  </sequence>
	</process>`
	req := Request{
		Task:        doc,
		Constraints: []Constraint{{Property: "responseTime", Bound: 500}},
	}
	tk, err := mw.resolveTask(doc)
	if err != nil {
		t.Fatal(err)
	}
	// The verifier must key and recompute exactly as compose() does.
	coreReq := &core.Request{
		Task:        tk.task,
		Properties:  mw.props,
		Constraints: []qos.Constraint{{Property: "responseTime", Bound: 500}},
		Approach:    qos.Pessimistic,
	}
	key := planCacheKey(tk, coreReq)

	stop := make(chan struct{})
	var stopOnce sync.Once
	var churnWG sync.WaitGroup
	// One churner on capabilities the task touches (forces epoch
	// invalidations), one on an unrelated capability (must NOT
	// invalidate, keeping the hit rate up).
	churn := func(capability, prefix string) {
		defer churnWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("%s-%d", prefix, i%4)
			err := mw.Publish(Service{
				ID: id, Capability: capability,
				QoS: map[string]float64{
					"responseTime": 30 + float64(i%10), "price": 4,
					"availability": 0.96, "reliability": 0.92, "throughput": 45,
				},
			})
			if err != nil {
				t.Error(err)
				return
			}
			mw.Withdraw(id)
		}
	}
	churnWG.Add(2)
	go churn("OrderItem", "churn-rel")
	go churn("LabAnalysis", "churn-unrel")

	const verifiers = 4
	const iterations = 150
	var verifyWG sync.WaitGroup
	var compared, hits int64
	var statMu sync.Mutex
	errc := make(chan error, verifiers)
	verify := func(stopChurnAt int) {
		defer verifyWG.Done()
		ctx := context.Background()
		localCompared, localHits := int64(0), int64(0)
		for i := 0; i < iterations; i++ {
			if i == stopChurnAt {
				// Second half runs churn-free so hits (and therefore
				// comparisons) are guaranteed, not just likely.
				stopOnce.Do(func() { close(stop) })
			}
			snap := mw.planEpochs(nil, tk)
			entry, _ := mw.plans.lookup(key, snap)
			if entry == nil {
				// Miss: a normal compose repopulates the entry.
				if _, err := mw.Compose(req); err != nil {
					errc <- err
					return
				}
				continue
			}
			localHits++
			cached := entry.res
			// Fresh recomputation through the same pipeline the cache
			// bypassed.
			candidates := make(map[string][]registry.Candidate, tk.task.Size())
			ok := true
			for _, a := range tk.task.Activities() {
				cands := mw.reg.CandidatesForActivity(a, mw.props)
				if len(cands) == 0 {
					ok = false
					break
				}
				candidates[a.ID] = cands
			}
			if !ok {
				continue
			}
			fresh, err := mw.selector.SelectContext(ctx, coreReq, candidates)
			if err != nil {
				errc <- err
				return
			}
			if !equalEpochs(snap, mw.planEpochs(nil, tk)) {
				// The registry churned somewhere inside the hit→recompute
				// window: the comparison is not pinned to one epoch, skip.
				continue
			}
			localCompared++
			if !reflect.DeepEqual(cached.Assignment, fresh.Assignment) {
				errc <- fmt.Errorf("cached assignment diverged: %v vs %v", cached.Assignment, fresh.Assignment)
				return
			}
			if cached.Utility != fresh.Utility ||
				cached.Feasible != fresh.Feasible ||
				cached.Violation != fresh.Violation ||
				!reflect.DeepEqual(cached.Aggregated, fresh.Aggregated) ||
				!reflect.DeepEqual(cached.Alternates(), fresh.Alternates()) {
				errc <- fmt.Errorf("cached result diverged from fresh recomputation at the same epoch")
				return
			}
		}
		statMu.Lock()
		compared += localCompared
		hits += localHits
		statMu.Unlock()
	}
	for g := 0; g < verifiers; g++ {
		verifyWG.Add(1)
		go verify(iterations / 2)
	}
	verifyWG.Wait()
	stopOnce.Do(func() { close(stop) })
	churnWG.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if hits == 0 || compared == 0 {
		t.Fatalf("differential never pinned a hit (hits=%d compared=%d)", hits, compared)
	}
	t.Logf("plan-cache differential: %d hits, %d compared at pinned epochs", hits, compared)
}

// TestPlanCacheKeyBytes pins the plan key's bytes to its "%016x|a%d",
// "|c:%s=%x", "|w:%x" rendering across approaches, constraint lists and
// weight vectors, including zero, negative and non-finite values.
func TestPlanCacheKeyBytes(t *testing.T) {
	reference := func(fp uint64, req *core.Request) string {
		s := fmt.Sprintf("%016x|a%d", fp, req.Approach)
		for _, c := range req.Constraints {
			s += fmt.Sprintf("|c:%s=%x", c.Property, math.Float64bits(c.Bound))
		}
		for _, w := range req.Weights {
			s += fmt.Sprintf("|w:%x", math.Float64bits(w))
		}
		return s
	}
	tk, err := bpel.ParseString(`<process name="k" concept="Shopping"><invoke activity="a" concept="Payment"/></process>`)
	if err != nil {
		t.Fatal(err)
	}
	te := newTaskEntry(tk)
	values := []float64{0, 1, -1, 0.5, 300, 1e-300, math.MaxFloat64, math.Inf(1), math.NaN()}
	for i, a := range []qos.Approach{qos.Pessimistic, qos.Optimistic, qos.MeanValue} {
		for n := 0; n <= len(values); n++ {
			req := &core.Request{Task: tk, Approach: a}
			for j := 0; j < n; j++ {
				req.Constraints = append(req.Constraints, qos.Constraint{Property: fmt.Sprintf("p%d", j), Bound: values[(i+j)%len(values)]})
			}
			if n%2 == 1 {
				req.Weights = append(qos.Weights(nil), values[:n]...)
			}
			if got, want := planCacheKey(te, req), reference(tk.Fingerprint(), req); got != want {
				t.Errorf("key %q, want %q", got, want)
			}
		}
	}
}
