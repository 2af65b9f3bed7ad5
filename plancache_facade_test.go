// Black-box tests for serving mode through the public API: repeated
// Compose calls hit the selection-plan cache, registry churn on touched
// capabilities invalidates, unrelated churn does not, and a cached
// middleware stays composition-for-composition identical to an uncached
// one through a deterministic churn sequence.
package qasom_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"qasom"
	"qasom/internal/obs"
)

// metricValue reads a label-less metric (counter or func gauge) from a
// hub's registry snapshot; ok is false when it is not registered.
func metricValue(hub *obs.Hub, name string) (float64, bool) {
	for _, m := range hub.Metrics.Snapshot() {
		if m.Name == name {
			if len(m.Series) == 0 {
				return 0, true
			}
			return m.Series[0].Value, true
		}
	}
	return 0, false
}

// compositionView flattens the externally observable selection outcome
// for equality checks.
type compositionView struct {
	Bindings   map[string]string
	Alternates map[string][]string
	Aggregated map[string]float64
	Utility    float64
	Feasible   bool
}

func viewOf(c *qasom.Composition) compositionView {
	v := compositionView{
		Bindings:   c.Bindings(),
		Alternates: make(map[string][]string),
		Aggregated: c.AggregatedQoS(),
		Utility:    c.Utility(),
		Feasible:   c.Feasible(),
	}
	for act := range v.Bindings {
		v.Alternates[act] = c.Alternates(act)
	}
	return v
}

func TestComposeCacheHitBitIdentical(t *testing.T) {
	hub := obs.NewHub()
	mw, err := qasom.New(qasom.Options{Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	seedMall(t, mw)
	req := qasom.Request{
		Task: behaviourA,
		Constraints: []qasom.Constraint{
			{Property: "responseTime", Bound: 200},
			{Property: "availability", Bound: 0.8},
		},
		Weights: map[string]float64{"responseTime": 2, "price": 1},
	}
	first, err := mw.Compose(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.SelectionStats().CacheHit {
		t.Fatal("first compose cannot be a cache hit")
	}
	second, err := mw.Compose(req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.SelectionStats().CacheHit {
		t.Fatal("identical repeat compose should be a cache hit")
	}
	if !reflect.DeepEqual(viewOf(first), viewOf(second)) {
		t.Errorf("cached composition differs from original:\n%+v\nvs\n%+v",
			viewOf(first), viewOf(second))
	}
	// Stats describe this request: the miss did the selection work, the
	// hit did none.
	if first.SelectionStats().Evaluations == 0 {
		t.Errorf("the miss should report its evaluations")
	}
	if hit := second.SelectionStats(); hit != (qasom.SelectionStats{CacheHit: true}) {
		t.Errorf("a hit reports zero evaluations and no selection work, got %+v", hit)
	}
	for name, want := range map[string]float64{
		"qasom_plan_cache_hits_total":   1,
		"qasom_plan_cache_misses_total": 1,
		"qasom_plan_cache_entries":      1,
	} {
		got, ok := metricValue(hub, name)
		if !ok {
			t.Errorf("metric %s not registered", name)
		} else if got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	// A cached composition is live: it executes independently of the
	// original (shared read-only plan, private adaptation state).
	if _, err := mw.Execute(context.Background(), second); err != nil {
		t.Fatalf("executing a cached composition: %v", err)
	}
}

func TestComposeCacheEpochInvalidation(t *testing.T) {
	hub := obs.NewHub()
	mw, err := qasom.New(qasom.Options{Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	seedMall(t, mw)
	req := qasom.Request{Task: behaviourA,
		Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 300}}}
	mustCompose := func() *qasom.Composition {
		t.Helper()
		c, err := mw.Compose(req)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	mustCompose() // populate
	if !mustCompose().SelectionStats().CacheHit {
		t.Fatal("warm repeat should hit")
	}

	// Publishing a service for a capability the task touches (CardPayment
	// is plugin-matched by the "pay" activity's Payment concept) bumps
	// that capability's epoch: the entry must be invalidated.
	if err := mw.Publish(qasom.Service{ID: "pay-new", Capability: "CardPayment", QoS: stdQoS(20)}); err != nil {
		t.Fatal(err)
	}
	if mustCompose().SelectionStats().CacheHit {
		t.Error("publish of a touched capability must invalidate the cached plan")
	}
	if v, _ := metricValue(hub, "qasom_plan_cache_epoch_invalidations_total"); v != 1 {
		t.Errorf("invalidations = %g, want 1", v)
	}
	if !mustCompose().SelectionStats().CacheHit {
		t.Fatal("recomputed plan should be cached again")
	}

	// Withdrawing it invalidates again.
	if !mw.Withdraw("pay-new") {
		t.Fatal("withdraw failed")
	}
	if mustCompose().SelectionStats().CacheHit {
		t.Error("withdraw of a touched capability must invalidate the cached plan")
	}

	// Churn on an unrelated capability (MedicalService branch) must NOT
	// invalidate: its epochs are outside the task's capability closure.
	mustCompose() // re-populate after the withdraw invalidation
	if err := mw.Publish(qasom.Service{ID: "lab-1", Capability: "LabAnalysis", QoS: stdQoS(80)}); err != nil {
		t.Fatal(err)
	}
	mw.Withdraw("lab-1")
	if !mustCompose().SelectionStats().CacheHit {
		t.Error("unrelated-capability churn should not invalidate the cached plan")
	}
}

func TestComposeCacheDisabledAndDistributedBypass(t *testing.T) {
	mw, err := qasom.New(qasom.Options{Obs: obs.NewHub(), SelectionCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	seedMall(t, mw)
	req := qasom.Request{Task: behaviourA}
	for i := 0; i < 2; i++ {
		comp, err := mw.Compose(req)
		if err != nil {
			t.Fatal(err)
		}
		if comp.SelectionStats().CacheHit {
			t.Fatal("disabled cache must never hit")
		}
	}

	// Distributed selections bypass the cache even when it is enabled.
	mw2, err := qasom.New(qasom.Options{Obs: obs.NewHub()})
	if err != nil {
		t.Fatal(err)
	}
	seedMall(t, mw2)
	for i := 0; i < 2; i++ {
		comp, err := mw2.Compose(qasom.Request{Task: behaviourA, Distributed: true})
		if err != nil {
			t.Fatal(err)
		}
		if comp.SelectionStats().CacheHit {
			t.Fatal("distributed compose must never be served from the cache")
		}
	}
}

func TestComposeCacheKeyDistinguishesRequests(t *testing.T) {
	mw, err := qasom.New(qasom.Options{Obs: obs.NewHub()})
	if err != nil {
		t.Fatal(err)
	}
	seedMall(t, mw)
	variants := []qasom.Request{
		{Task: behaviourA},
		{Task: behaviourA, Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 200}}},
		{Task: behaviourA, Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 250}}},
		{Task: behaviourA, Weights: map[string]float64{"price": 3}},
		{Task: behaviourA, Approach: "optimistic"},
		{Task: behaviourB},
	}
	for i, req := range variants {
		comp, err := mw.Compose(req)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if comp.SelectionStats().CacheHit {
			t.Errorf("variant %d: first compose of a distinct request must miss", i)
		}
	}
	for i, req := range variants {
		comp, err := mw.Compose(req)
		if err != nil {
			t.Fatalf("variant %d repeat: %v", i, err)
		}
		if !comp.SelectionStats().CacheHit {
			t.Errorf("variant %d: repeat compose should hit", i)
		}
	}
}

// TestDifferentialPlanCacheChurn drives a cached and an uncached
// middleware through the same deterministic publish/withdraw sequence
// and requires composition-for-composition equality: the cache may only
// change how a result is produced, never what it is.
func TestDifferentialPlanCacheChurn(t *testing.T) {
	newSide := func(cacheSize int) *qasom.Middleware {
		mw, err := qasom.New(qasom.Options{Obs: obs.NewHub(), SelectionCacheSize: cacheSize})
		if err != nil {
			t.Fatal(err)
		}
		seedMall(t, mw)
		return mw
	}
	cached := newSide(0)    // default cache
	uncached := newSide(-1) // always recomputes
	both := []*qasom.Middleware{cached, uncached}

	req := qasom.Request{Task: behaviourA,
		Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 300}}}
	hits := 0
	step := func(label string, churn func(mw *qasom.Middleware)) {
		t.Helper()
		for _, mw := range both {
			churn(mw)
		}
		ca, err := cached.Compose(req)
		if err != nil {
			t.Fatalf("%s: cached compose: %v", label, err)
		}
		cb, err := uncached.Compose(req)
		if err != nil {
			t.Fatalf("%s: uncached compose: %v", label, err)
		}
		if !reflect.DeepEqual(viewOf(ca), viewOf(cb)) {
			t.Fatalf("%s: cached middleware diverged from uncached:\n%+v\nvs\n%+v",
				label, viewOf(ca), viewOf(cb))
		}
		if ca.SelectionStats().CacheHit {
			hits++
		}
	}

	step("warmup", func(mw *qasom.Middleware) {})
	for round := 0; round < 3; round++ {
		id := fmt.Sprintf("order-extra-%d", round)
		step("idle", func(mw *qasom.Middleware) {})
		step("publish related", func(mw *qasom.Middleware) {
			if err := mw.Publish(qasom.Service{
				ID: id, Capability: "OrderItem", QoS: stdQoS(25 + float64(round)),
			}); err != nil {
				t.Fatal(err)
			}
		})
		step("publish unrelated", func(mw *qasom.Middleware) {
			if err := mw.Publish(qasom.Service{
				ID: id + "-lab", Capability: "LabAnalysis", QoS: stdQoS(90),
			}); err != nil {
				t.Fatal(err)
			}
		})
		step("withdraw related", func(mw *qasom.Middleware) {
			if !mw.Withdraw(id) {
				t.Fatalf("withdraw %s failed", id)
			}
		})
		step("withdraw unrelated", func(mw *qasom.Middleware) {
			mw.Withdraw(id + "-lab")
		})
	}
	// Idle and unrelated-churn steps must have been served from the cache
	// (1 warmup-follow-up idle + 1 unrelated publish + 1 unrelated
	// withdraw per round, give or take the first idle's population).
	if hits < 6 {
		t.Errorf("cached side hit only %d times; caching is not engaging", hits)
	}
}

// A finished context must surface ctx.Err() even when the request would
// be served straight from a warm plan cache — the fast path is not
// allowed to outrun cancellation.
func TestComposeCacheHitRespectsCancelledContext(t *testing.T) {
	mw, err := qasom.New(qasom.Options{Obs: obs.NewHub()})
	if err != nil {
		t.Fatal(err)
	}
	seedMall(t, mw)
	req := qasom.Request{Task: behaviourA}
	if _, err := mw.Compose(req); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mw.ComposeContext(ctx, req); err == nil {
		t.Fatal("cancelled context served from the plan cache without error")
	}
	// The cache entry stays valid for live callers.
	c, err := mw.Compose(req)
	if err != nil {
		t.Fatal(err)
	}
	if !c.SelectionStats().CacheHit {
		t.Error("warm entry lost after the cancelled probe")
	}
}

// TestSharedPlansDoNotLeak pins the ownership rule behind the plan
// cache: every hit shares the cached Result read-only, and a
// composition's substitutions land on its own private copy. Goroutines
// keep hitting the same warm plan while the others substitute every
// activity of their compositions; no hit may ever observe a foreign
// substitution, and the cached plan must come out untouched. Run under
// -race it also proves that substitution never writes the shared Result.
func TestSharedPlansDoNotLeak(t *testing.T) {
	mw, err := qasom.New(qasom.Options{Obs: obs.NewHub()})
	if err != nil {
		t.Fatal(err)
	}
	seedMall(t, mw)
	req := qasom.Request{Task: behaviourA,
		Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 300}}}
	first, err := mw.Compose(req)
	if err != nil {
		t.Fatal(err)
	}
	want := viewOf(first)

	const goroutines, rounds = 4, 50
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var own *qasom.Composition
			for i := 0; i < rounds; i++ {
				c, err := mw.Compose(req)
				if err != nil {
					errc <- err
					return
				}
				if !c.SelectionStats().CacheHit {
					errc <- fmt.Errorf("round %d: warm compose missed the plan cache", i)
					return
				}
				if got := c.Bindings(); !reflect.DeepEqual(got, want.Bindings) {
					errc <- fmt.Errorf("round %d: hit bindings %v, want %v", i, got, want.Bindings)
					return
				}
				own = c
			}
			for act, orig := range want.Bindings {
				id, err := own.Substitute(act)
				if err != nil {
					errc <- err
					return
				}
				if id == orig || own.Bindings()[act] != id {
					errc <- fmt.Errorf("substitution of %s did not rebind %s (got %s)", act, orig, id)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	again, err := mw.Compose(req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.SelectionStats().CacheHit {
		t.Fatal("final compose should still be a plan-cache hit")
	}
	got := viewOf(again)
	if !reflect.DeepEqual(got.Bindings, want.Bindings) || !reflect.DeepEqual(got.Alternates, want.Alternates) {
		t.Fatalf("substitutions leaked into the cached plan:\n got %+v\nwant %+v", got, want)
	}
}

// TestFlightRecordHitPhases: a compose's flight record is the one
// source of its phase timings. The miss timed lookup and QASSA's
// local/global phases; the hit replayed the stored decision, so its
// selection phases are zero rather than copied from the miss that
// populated the cache; a miss that gathers candidates and then fails
// validation ran resolve and lookup only. For each, the phase
// histogram counts exactly the phases the record holds, SelectionStats
// reports the record's durations, and the root span carries the
// record's trace ID.
func TestFlightRecordHitPhases(t *testing.T) {
	hub := obs.NewHub()
	mw, err := qasom.New(qasom.Options{Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	seedMall(t, mw)
	phaseVec := hub.Metrics.HistogramVec("qasom_compose_phase_seconds", "", nil, "phase")
	phases := [4]string{"resolve", "lookup", "local", "global"}
	phaseCounts := func() (c [4]uint64) {
		for i, p := range phases {
			c[i] = phaseVec.With(p).Snapshot().Count
		}
		return c
	}
	req := qasom.Request{Task: behaviourA,
		Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 300}}}
	failing := qasom.Request{Task: behaviourA, Weights: map[string]float64{"price": -1}}

	var recs []obs.RequestRecord
	for _, c := range []struct {
		name    string
		req     qasom.Request
		wantErr bool
	}{{"miss", req, false}, {"hit", req, false}, {"failed miss", failing, true}} {
		before := phaseCounts()
		comp, err := mw.Compose(c.req)
		if (err != nil) != c.wantErr {
			t.Fatalf("%s: compose error %v, want error %v", c.name, err, c.wantErr)
		}
		after := phaseCounts()
		snap := hub.Flight.Snapshot(obs.FlightQuery{})
		rec := snap[len(snap)-1]
		recs = append(recs, rec)
		ph := [4]time.Duration{rec.Phases.Resolve, rec.Phases.Lookup, rec.Phases.Local, rec.Phases.Global}
		for i, d := range ph {
			if ran := after[i] - before[i]; ran > 1 || (ran == 1) != (d > 0) {
				t.Errorf("%s: phase %s observed %d times, record has %v", c.name, phases[i], ran, d)
			}
		}
		if comp != nil {
			st := comp.SelectionStats()
			if st.CandidateLookup != rec.Phases.Lookup || st.LocalPhase != rec.Phases.Local || st.GlobalPhase != rec.Phases.Global {
				t.Errorf("%s: SelectionStats lookup/local/global %v/%v/%v, record %+v",
					c.name, st.CandidateLookup, st.LocalPhase, st.GlobalPhase, rec.Phases)
			}
		}
		spans := hub.Tracer.Snapshot()
		if root := spans[len(spans)-1]; root.Name != "compose" || root.TraceID != rec.TraceID {
			t.Errorf("%s: root span %q trace %s, record trace %s", c.name, root.Name, root.TraceID, rec.TraceID)
		}
	}
	miss, hit, failed := recs[0], recs[1], recs[2]
	if miss.CacheHit || !hit.CacheHit || failed.CacheHit {
		t.Fatalf("records cache_hit = %v, %v, %v; want false, true, false", miss.CacheHit, hit.CacheHit, failed.CacheHit)
	}
	if miss.Phases.Lookup <= 0 || miss.Phases.Local <= 0 || miss.Phases.Global <= 0 {
		t.Errorf("miss record lacks selection phases: %+v", miss.Phases)
	}
	if hit.Phases.Lookup != 0 || hit.Phases.Local != 0 || hit.Phases.Global != 0 {
		t.Errorf("hit record reports phases it never ran: %+v", hit.Phases)
	}
	if failed.Err == "" || failed.Phases.Resolve <= 0 || failed.Phases.Lookup <= 0 ||
		failed.Phases.Local != 0 || failed.Phases.Global != 0 {
		t.Errorf("failed miss record %q: phases %+v, want resolve and lookup only", failed.Err, failed.Phases)
	}
	if !reflect.DeepEqual(hit.Bindings, miss.Bindings) {
		t.Errorf("hit bindings %v, miss bindings %v", hit.Bindings, miss.Bindings)
	}
}
