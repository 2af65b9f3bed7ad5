package adapt

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"qasom/internal/core"
	"qasom/internal/exec"
	"qasom/internal/monitor"
	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/semantics"
	"qasom/internal/subidx"
	"qasom/internal/task"
)

// indexedFixture extends fixture with a monitor, a tracker and a warm
// substitution index on the manager.
func indexedFixture(t *testing.T) (*Manager, *Runtime, *registry.Registry, *monitor.Monitor, *subidx.Tracker) {
	t.Helper()
	m, rt, reg := fixture(t)
	mon := monitor.New(stdPS(), monitor.Options{})
	m.Monitor = mon
	tr := subidx.NewTracker(reg, mon, subidx.Options{})
	t.Cleanup(tr.Close)
	rt.AttachIndex(tr.Track(rt))
	rt.Index().SetStager(
		func() string { return m.FrontierKey(rt) },
		func() *subidx.StagedBehaviours { return m.StageBehaviours(rt) },
	)
	rt.Index().BuildNow()
	return m, rt, reg, mon, tr
}

// boundID reads the current binding of an activity.
func boundID(rt *Runtime, act string) registry.ServiceID {
	var id registry.ServiceID
	rt.View(func(res *core.Result) { id = res.Assignment[act].Service.ID })
	return id
}

// altIDs reads the current alternate rotation of an activity.
func altIDs(rt *Runtime, act string) []registry.ServiceID {
	var out []registry.ServiceID
	rt.View(func(res *core.Result) {
		for _, a := range res.Alternates[act] {
			out = append(out, a.Service.ID)
		}
	})
	return out
}

// TestDifferentialDecisionIdentity proves the acceptance criterion:
// index-first failover picks the same substitute as the reactive scan
// given identical registry/monitor state, across a script of
// withdrawals, health demotions, recoveries and repeated failovers
// (publishes frozen — index-inserted extras are a documented index-only
// bonus).
func TestDifferentialDecisionIdentity(t *testing.T) {
	mA, rtA, reg, mon, tr := indexedFixture(t)

	// The reactive twin: same registry, monitor and options, no index,
	// operating on a deep copy of the same selection.
	var twinRes *core.Result
	rtA.View(func(res *core.Result) { twinRes = res.Clone() })
	rtB := NewRuntime(rtA.Req, twinRes)
	mB := &Manager{Registry: reg, Repo: mA.Repo, Selector: mA.Selector, Monitor: mon}

	failover := func(step string) {
		t.Helper()
		tr.Quiesce() // both sides must see the same registry/monitor state
		for _, act := range []string{"browse", "order", "pay"} {
			idA, idB := boundID(rtA, act), boundID(rtB, act)
			if idA != idB {
				t.Fatalf("%s: bindings diverged before failover: %s vs %s", step, idA, idB)
			}
			exclude := map[registry.ServiceID]bool{idA: true}
			subA, errA := mA.Substitute(rtA, act, exclude)
			subB, errB := mB.Substitute(rtB, act, exclude)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s/%s: error divergence: %v vs %v", step, act, errA, errB)
			}
			if errA != nil {
				continue
			}
			if subA.Service.ID != subB.Service.ID {
				t.Fatalf("%s/%s: index picked %s, reactive picked %s",
					step, act, subA.Service.ID, subB.Service.ID)
			}
			a, b := altIDs(rtA, act), altIDs(rtB, act)
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("%s/%s: rotation diverged: %v vs %v", step, act, a, b)
			}
		}
	}

	report := func(id registry.ServiceID, success bool, n int) {
		for i := 0; i < n; i++ {
			if err := mon.Report(monitor.Observation{
				Service: id, Vector: stdPS().NewVector(), Success: success,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	failover("baseline")
	// Withdraw the head alternate of "order".
	reg.Withdraw(altIDs(rtA, "order")[0])
	failover("after-withdraw")
	// Demote the new head by monitor observations.
	report(altIDs(rtA, "order")[0], false, 5)
	failover("after-demotion")
	// Recover it.
	report(altIDs(rtA, "order")[0], true, 15)
	failover("after-recovery")
	// Exhaust: repeated failovers rotate through everything.
	failover("rotate-1")
	failover("rotate-2")
}

// TestIndexHitPerformsZeroRegistryMonitorChecks asserts, via the obs
// counters, that an index-served failover touches neither the registry
// nor the monitor.
func TestIndexHitPerformsZeroRegistryMonitorChecks(t *testing.T) {
	m, rt, _, _, _ := indexedFixture(t)
	hub := obs.NewHub()
	m.Obs = hub

	counter := func(name string) uint64 {
		return hub.Metrics.Counter(name, "").Value()
	}
	sub, err := m.Substitute(rt, "order", map[registry.ServiceID]bool{boundID(rt, "order"): true})
	if err != nil {
		t.Fatalf("Substitute: %v", err)
	}
	if sub.Service.ID == "" {
		t.Fatal("empty substitute")
	}
	if got := counter(failoverHitMetric); got != 1 {
		t.Errorf("index hits = %d, want 1", got)
	}
	if got := counter(failoverRegistryChecksMetric); got != 0 {
		t.Errorf("registry checks on index hit = %d, want 0", got)
	}
	if got := counter(failoverMonitorChecksMetric); got != 0 {
		t.Errorf("monitor checks on index hit = %d, want 0", got)
	}
	fs := rt.FailoverStats()
	if fs.IndexHits != 1 || len(fs.Fallbacks) != 0 {
		t.Errorf("failover stats = %+v, want 1 hit, no fallbacks", fs)
	}

	// A cold index (fresh manager state) falls back and probes.
	rt.Index().MarkCold()
	if _, err := m.Substitute(rt, "order", map[registry.ServiceID]bool{boundID(rt, "order"): true}); err != nil {
		t.Fatalf("reactive Substitute: %v", err)
	}
	if got := counter(failoverRegistryChecksMetric); got == 0 {
		t.Error("reactive fallback should probe the registry")
	}
	fs = rt.FailoverStats()
	if fs.Fallbacks["cold"] != 1 {
		t.Errorf("fallback causes = %v, want cold=1", fs.Fallbacks)
	}
}

// TestIndexedSubstituteAllocFloor floors the per-failover allocation
// count on the index path. The commit allocates exactly one fresh
// replacement slice (immutability contract for lock-free readers);
// everything else is in-place or pooled, independent of candidate-set
// size.
func TestIndexedSubstituteAllocFloor(t *testing.T) {
	m, rt, _, _, _ := indexedFixture(t)
	exclude := make(map[registry.ServiceID]bool, 1)
	allocs := testing.AllocsPerRun(200, func() {
		clear(exclude)
		exclude[boundID(rt, "order")] = true
		if _, err := m.Substitute(rt, "order", exclude); err != nil {
			t.Fatal(err)
		}
	})
	// boundID's View closure + the Commit slice are the budget; the
	// lookup and rotation themselves are allocation-free.
	if allocs > 4 {
		t.Errorf("index-path Substitute allocs = %g, want ≤ 4", allocs)
	}
}

// parallelTask builds par(a1, a2, a3) over three concepts with published
// candidates.
func parallelFixture(t *testing.T) (*Manager, *Runtime, *registry.Registry) {
	t.Helper()
	onto := semantics.PervasiveWithScenarios()
	reg := registry.New(onto)
	publish(t, reg, semantics.BrowseCatalog, "browse", 6)
	publish(t, reg, semantics.OrderItem, "order", 6)
	publish(t, reg, semantics.CardPayment, "pay", 6)
	pt := &task.Task{Name: "par3", Concept: semantics.ShoppingService, Root: task.Parallel(
		task.NewActivity(&task.Activity{ID: "a1", Concept: semantics.BrowseCatalog}),
		task.NewActivity(&task.Activity{ID: "a2", Concept: semantics.OrderItem}),
		task.NewActivity(&task.Activity{ID: "a3", Concept: semantics.CardPayment}),
	)}
	req := &core.Request{Task: pt, Properties: stdPS()}
	cands := make(map[string][]registry.Candidate)
	for _, a := range pt.Activities() {
		cands[a.ID] = reg.CandidatesForActivity(a, stdPS())
	}
	sel := core.NewSelector(core.Options{MaxAlternates: 8})
	res, err := sel.Select(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(req, res)
	m := &Manager{Registry: reg, Selector: sel}
	return m, rt, reg
}

// checkBindingInvariant asserts that, per activity, the binding plus the
// alternates contain no duplicates and exactly the services selection
// handed out (no service lost, none invented).
func checkBindingInvariant(t *testing.T, rt *Runtime, want map[string]map[registry.ServiceID]bool) {
	t.Helper()
	rt.View(func(res *core.Result) {
		for act, expect := range want {
			seen := map[registry.ServiceID]bool{}
			add := func(id registry.ServiceID) {
				if seen[id] {
					t.Errorf("%s: duplicate binding of %s", act, id)
				}
				seen[id] = true
				if !expect[id] {
					t.Errorf("%s: unexpected service %s", act, id)
				}
			}
			add(res.Assignment[act].Service.ID)
			for _, a := range res.Alternates[act] {
				add(a.Service.ID)
			}
			if len(seen) != len(expect) {
				t.Errorf("%s: %d services, want %d", act, len(seen), len(expect))
			}
		}
	})
}

// bindingUniverse snapshots the per-activity service sets.
func bindingUniverse(rt *Runtime) map[string]map[registry.ServiceID]bool {
	want := map[string]map[registry.ServiceID]bool{}
	rt.View(func(res *core.Result) {
		for act, cand := range res.Assignment {
			set := map[registry.ServiceID]bool{cand.Service.ID: true}
			for _, a := range res.Alternates[act] {
				set[a.Service.ID] = true
			}
			want[act] = set
		}
	})
	return want
}

// TestConcurrentSubstitutionExactlyOnce races simultaneous failovers of
// parallel activities (with and without the index) and checks the
// exactly-once / no-duplicate-binding invariants.
func TestConcurrentSubstitutionExactlyOnce(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		name := "reactive"
		if indexed {
			name = "indexed"
		}
		t.Run(name, func(t *testing.T) {
			m, rt, reg := parallelFixture(t)
			if indexed {
				mon := monitor.New(stdPS(), monitor.Options{})
				m.Monitor = mon
				tr := subidx.NewTracker(reg, mon, subidx.Options{})
				t.Cleanup(tr.Close)
				rt.AttachIndex(tr.Track(rt))
				rt.Index().BuildNow()
			}
			want := bindingUniverse(rt)
			const rounds = 50
			var wg sync.WaitGroup
			for _, act := range []string{"a1", "a2", "a3"} {
				wg.Add(1)
				go func(act string) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						exclude := map[registry.ServiceID]bool{boundID(rt, act): true}
						if _, err := m.Substitute(rt, act, exclude); err != nil {
							t.Errorf("%s round %d: %v", act, i, err)
							return
						}
					}
				}(act)
			}
			wg.Wait()
			if got := rt.Substitutions(); got != 3*rounds {
				t.Errorf("substitutions = %d, want exactly %d", got, 3*rounds)
			}
			checkBindingInvariant(t, rt, want)
		})
	}
}

// TestExecutorParallelFailuresSubstituteOnce drives the invariant
// through the real executor: every bound service of a parallel task is
// dead, so all three failovers race inside one Run.
func TestExecutorParallelFailuresSubstituteOnce(t *testing.T) {
	m, rt, reg := parallelFixture(t)
	mon := monitor.New(stdPS(), monitor.Options{})
	m.Monitor = mon
	tr := subidx.NewTracker(reg, mon, subidx.Options{})
	t.Cleanup(tr.Close)
	rt.AttachIndex(tr.Track(rt))
	rt.Index().BuildNow()
	want := bindingUniverse(rt)

	dead := map[registry.ServiceID]bool{}
	rt.View(func(res *core.Result) {
		for _, cand := range res.Assignment {
			dead[cand.Service.ID] = true
		}
	})
	e := &exec.Executor{
		Invoker:    &failingInvoker{dead: dead},
		Binder:     rt,
		OnFailure:  m.FailureHandler(rt),
		OnComplete: m.CompletionHook(rt),
	}
	if _, err := e.Run(context.Background(), rt.Req.Task); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := rt.Substitutions(); got != 3 {
		t.Errorf("substitutions = %d, want exactly 3 (one per failed activity)", got)
	}
	if rt.CompletedCount() != 3 {
		t.Errorf("completed = %d, want 3", rt.CompletedCount())
	}
	checkBindingInvariant(t, rt, want)
}

// TestIndexTracksChurnDuringFailovers runs failovers while the registry
// churns underneath; afterwards the index must mirror the runtime's
// rotation order exactly (selection-order prefix) and the binding
// invariant must hold.
func TestIndexTracksChurnDuringFailovers(t *testing.T) {
	m, rt, reg := parallelFixture(t)
	mon := monitor.New(stdPS(), monitor.Options{})
	m.Monitor = mon
	tr := subidx.NewTracker(reg, mon, subidx.Options{})
	t.Cleanup(tr.Close)
	rt.AttachIndex(tr.Track(rt))
	rt.Index().BuildNow()

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := registry.ServiceID(fmt.Sprintf("order-%d", 1+i%5))
			if i%2 == 0 {
				reg.Withdraw(id)
			} else {
				reg.Publish(registry.Description{
					ID: id, Concept: semantics.OrderItem,
					Offers: offers(40+float64(5*(1+i%5)), 5, 0.95, 0.9, 40),
				})
			}
		}
	}()
	for i := 0; i < 200; i++ {
		for _, act := range []string{"a1", "a2", "a3"} {
			exclude := map[registry.ServiceID]bool{boundID(rt, act): true}
			if _, err := m.Substitute(rt, act, exclude); err != nil {
				t.Fatalf("%s round %d: %v", act, i, err)
			}
		}
	}
	close(stop)
	churn.Wait()
	tr.Quiesce()

	for _, act := range []string{"a1", "a2", "a3"} {
		want := altIDs(rt, act)
		reps := rt.Index().Replacements(act)
		if len(reps) < len(want) {
			t.Fatalf("%s: index has %d entries, runtime has %d alternates", act, len(reps), len(want))
		}
		for i, id := range want {
			if reps[i].Service != id {
				t.Fatalf("%s: rotation diverged at %d: index %v, runtime %v", act, i, reps[i].Service, want)
			}
		}
	}
}

// TestResultIsDetachedCopy pins the new aliasing contract: Result()
// returns a deep copy that later substitutions do not mutate.
func TestResultIsDetachedCopy(t *testing.T) {
	m, rt, _ := fixture(t)
	before := rt.Result()
	beforeBound := before.Assignment["order"].Service.ID
	if _, err := m.Substitute(rt, "order", nil); err != nil {
		t.Fatal(err)
	}
	if got := before.Assignment["order"].Service.ID; got != beforeBound {
		t.Errorf("Result() copy mutated by Substitute: %s -> %s", beforeBound, got)
	}
	if rt.Result().Assignment["order"].Service.ID == beforeBound {
		t.Error("runtime itself should have substituted")
	}
}

// TestStagedBehaviouralAdaptation verifies the staged fast path: after
// the index pre-stages the match search, AdaptBehaviour consumes it
// (Staged=true), picks the same alternative as the unstaged search, and
// invalidates the index on switch.
func TestStagedBehaviouralAdaptation(t *testing.T) {
	m, rt, _, _, tr := indexedFixture(t)
	rt.MarkCompleted("browse", qos.Vector{80, 5, 0.95, 0.9, 40})
	tr.Quiesce() // restage for the moved frontier

	staged := rt.Index().Staged(m.FrontierKey(rt))
	if staged == nil || len(staged.Matches) == 0 {
		t.Fatal("expected staged behavioural alternates for the current frontier")
	}
	plan, err := m.AdaptBehaviour(rt)
	if err != nil {
		t.Fatalf("AdaptBehaviour: %v", err)
	}
	if !plan.Staged {
		t.Error("plan should have consumed the staged matches")
	}
	if plan.Alternative.Name != "b2" {
		t.Errorf("alternative = %s, want b2 (same as unstaged search)", plan.Alternative.Name)
	}
	if ids := plan.NewTask.ActivityIDs(); len(ids) != 2 || ids[0] != "bundle" || ids[1] != "mpay" {
		t.Errorf("new task activities = %v, want [bundle mpay]", ids)
	}
	if rt.Behaviour.Name != "b2" {
		t.Errorf("runtime behaviour = %s, want b2", rt.Behaviour.Name)
	}
	// The switch marked the index cold; a BuildNow re-indexes the new
	// selection.
	rt.Index().BuildNow()
	if got := rt.Index().State(); got != subidx.StateBuilt {
		t.Fatalf("index state after rebuild = %v", got)
	}
	if rt.Index().Replacements("bundle") == nil {
		t.Error("rebuilt index should cover the new behaviour's activities")
	}
}
