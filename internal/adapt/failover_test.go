package adapt

import (
	"context"
	"errors"
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

// withTable gives the manager a monitor and a started eligibility table
// over its registry.
func withTable(t *testing.T, m *Manager) (*monitor.Monitor, *subidx.Table) {
	t.Helper()
	mon := monitor.New(stdPS(), monitor.Options{})
	m.Monitor = mon
	tab := subidx.NewTable(m.Registry, mon, nil)
	t.Cleanup(tab.Close)
	m.Table = tab
	tab.Start()
	return mon, tab
}

// indexedFixture extends fixture with a monitor and a started
// eligibility table on the manager.
func indexedFixture(t *testing.T) (*Manager, *Runtime, *registry.Registry, *monitor.Monitor, *subidx.Table) {
	t.Helper()
	m, rt, reg := fixture(t)
	mon, tab := withTable(t, m)
	return m, rt, reg, mon, tab
}

// boundID reads the current binding of an activity.
func boundID(rt *Runtime, act string) registry.ServiceID {
	var id registry.ServiceID
	rt.View(func(res *core.Result) { id = res.Assignment[act].Service.ID })
	return id
}

// twinOf returns a runtime over a deep copy of rt's current selection.
func twinOf(rt *Runtime) *Runtime {
	var res *core.Result
	rt.View(func(r *core.Result) { res = r.Clone() })
	return NewRuntime(rt.Req, res)
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
// table-backed failover picks the same substitute as the reactive scan
// given identical registry/monitor state, across a script of
// withdrawals, health demotions, recoveries and repeated failovers
// (publishes frozen — late services served after an exhausted rotation
// are a table-only bonus).
func TestDifferentialDecisionIdentity(t *testing.T) {
	mA, rtA, reg, mon, tr := indexedFixture(t)

	// The reactive twin: same registry, monitor and options, no table,
	// operating on a deep copy of the same selection.
	rtB := twinOf(rtA)
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
	// Demote, by monitor observations, the first alternate still
	// published: the one the next failover would pick (the withdrawn
	// head stays in the rotation).
	var sick registry.ServiceID
	for _, id := range altIDs(rtA, "order") {
		if _, ok := reg.Get(id); ok {
			sick = id
			break
		}
	}
	report(sick, false, 5)
	failover("after-demotion")
	if boundID(rtA, "order") == sick {
		t.Fatalf("failover bound the demoted %s", sick)
	}
	// Recover it: the next failover picks it again.
	report(sick, true, 15)
	failover("after-recovery")
	if got := boundID(rtA, "order"); got != sick {
		t.Fatalf("after recovery order bound %s, want the recovered %s", got, sick)
	}
	// Exhaust: repeated failovers rotate through everything.
	failover("rotate-1")
	failover("rotate-2")
	// Every table-side substitution was a rotation walk over the table.
	if hits, subs := rtA.FailoverStats().IndexHits, rtA.Substitutions(); hits != subs || subs == 0 {
		t.Errorf("table hits = %d, substitutions = %d; want every substitution table-served", hits, subs)
	}
}

// TestIndexHitPerformsZeroRegistryMonitorChecks asserts, via the obs
// counters, that a table-served failover touches neither the registry
// nor the monitor, and that a closed table reverts to probing.
func TestIndexHitPerformsZeroRegistryMonitorChecks(t *testing.T) {
	m, rt, _, _, tab := indexedFixture(t)
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
	if fs.IndexHits != 1 || fs.Exhausted != 0 {
		t.Errorf("failover stats = %+v, want 1 hit, no fallbacks", fs)
	}

	// A closed table is inactive: the reactive scan probes instead.
	tab.Close()
	if _, err := m.Substitute(rt, "order", map[registry.ServiceID]bool{boundID(rt, "order"): true}); err != nil {
		t.Fatalf("reactive Substitute: %v", err)
	}
	if got := counter(failoverRegistryChecksMetric); got == 0 {
		t.Error("reactive scan should probe the registry")
	}
	if got := counter(failoverMonitorChecksMetric); got == 0 {
		t.Error("reactive scan should probe the monitor")
	}
	fs = rt.FailoverStats()
	if fs.IndexHits != 1 || fs.Exhausted != 0 {
		t.Errorf("failover stats = %+v, want the reactive scan unaccounted", fs)
	}
}

// TestIndexedSubstituteAllocFloor floors the per-failover allocation
// count on the table path: the walk and the rotation are in place,
// independent of candidate-set size.
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
	// boundID's View closure is the budget; the walk and rotation
	// themselves are allocation-free.
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
// parallel activities (with and without the table) and checks the
// exactly-once / no-duplicate-binding invariants.
func TestConcurrentSubstitutionExactlyOnce(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		name := "reactive"
		if indexed {
			name = "indexed"
		}
		t.Run(name, func(t *testing.T) {
			m, rt, _ := parallelFixture(t)
			if indexed {
				withTable(t, m)
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
	m, rt, _ := parallelFixture(t)
	withTable(t, m)
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

// TestIndexTracksChurnDuringFailovers runs table-backed failovers while
// the registry churns underneath. After Quiesce the table matches
// registry and monitor truth, the binding invariant holds, and the next
// failover of every activity picks what a reactive twin picks.
func TestIndexTracksChurnDuringFailovers(t *testing.T) {
	m, rt, reg := parallelFixture(t)
	mon, tab := withTable(t, m)
	want := bindingUniverse(rt)

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
	tab.Quiesce()

	checkBindingInvariant(t, rt, want)
	for _, set := range want {
		for id := range set {
			_, live := reg.Get(id)
			truth := live && mon.SuccessRate(id) >= monitor.MinSuccessRate
			if got := tab.Eligible(id); got != truth {
				t.Errorf("Eligible(%s) = %v after Quiesce, truth %v", id, got, truth)
			}
		}
	}
	twin := twinOf(rt)
	reactive := &Manager{Registry: reg, Monitor: mon}
	for _, act := range []string{"a1", "a2", "a3"} {
		exclude := map[registry.ServiceID]bool{boundID(rt, act): true}
		got, errA := m.Substitute(rt, act, exclude)
		ref, errB := reactive.Substitute(twin, act, exclude)
		if (errA == nil) != (errB == nil) || got.Service.ID != ref.Service.ID {
			t.Errorf("%s: table picked %s (%v), reactive picked %s (%v)", act, got.Service.ID, errA, ref.Service.ID, errB)
		}
	}
}

// TestTableServesLateServiceOnceRotationExhausted checks the one
// registry query of the table path: when no alternate of the rotation
// is left, the best eligible service published after selection is bound
// — the reactive twin has nothing — and the displaced binding joins the
// rotation.
func TestTableServesLateServiceOnceRotationExhausted(t *testing.T) {
	m, rt, reg, mon, tab := indexedFixture(t)
	hub := obs.NewHub()
	m.Obs = hub
	twin := twinOf(rt)
	reactive := &Manager{Registry: reg, Monitor: mon}

	// order-sick outranks order-late but fails: the table skips it.
	for id, ms := range map[registry.ServiceID]float64{"order-late": 30, "order-sick": 20} {
		if err := reg.Publish(registry.Description{
			ID: id, Concept: semantics.OrderItem, Offers: offers(ms, 5, 0.95, 0.9, 40),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if err := mon.Report(monitor.Observation{
			Service: "order-sick", Vector: stdPS().NewVector(), Success: false,
		}); err != nil {
			t.Fatal(err)
		}
	}
	tab.Quiesce()
	old := boundID(rt, "order")
	exclude := map[registry.ServiceID]bool{old: true}
	for _, id := range altIDs(rt, "order") {
		exclude[id] = true
	}
	if _, err := reactive.Substitute(twin, "order", exclude); !errors.Is(err, ErrNoSubstitute) {
		t.Fatalf("reactive twin: got %v, want ErrNoSubstitute", err)
	}
	sub, err := m.Substitute(rt, "order", exclude)
	if err != nil {
		t.Fatalf("table Substitute: %v", err)
	}
	if sub.Service.ID != "order-late" || boundID(rt, "order") != "order-late" {
		t.Fatalf("table bound %s, want order-late", sub.Service.ID)
	}
	if alts := altIDs(rt, "order"); alts[len(alts)-1] != old {
		t.Errorf("rotation %v should end with the displaced %s", alts, old)
	}
	if fs := rt.FailoverStats(); fs.IndexHits != 0 || fs.Exhausted != 1 {
		t.Errorf("failover stats = %+v, want one exhausted fallback", fs)
	}
	if got := hub.Metrics.Counter(failoverRegistryChecksMetric, "").Value(); got != 1 {
		t.Errorf("registry checks = %d, want the one candidate query", got)
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

// TestTableSubstituteAfterBehaviourSwitchProbesNothing checks that the
// table covers a new behaviour's services with no rebuild: right after a
// behavioural switch to b2, a failover of bundle is a table hit with zero
// registry or monitor probes.
func TestTableSubstituteAfterBehaviourSwitchProbesNothing(t *testing.T) {
	m, rt, _, _, _ := indexedFixture(t)
	rt.MarkCompleted("browse", qos.Vector{80, 5, 0.95, 0.9, 40})
	plan, err := m.AdaptBehaviour(rt)
	if err != nil {
		t.Fatalf("AdaptBehaviour: %v", err)
	}
	if plan.Alternative.Name != "b2" {
		t.Fatalf("alternative = %s, want b2", plan.Alternative.Name)
	}
	hub := obs.NewHub()
	m.Obs = hub
	bound := boundID(rt, "bundle")
	sub, err := m.Substitute(rt, "bundle", map[registry.ServiceID]bool{bound: true})
	if err != nil {
		t.Fatalf("Substitute(bundle): %v", err)
	}
	if sub.Service.ID == bound || boundID(rt, "bundle") != sub.Service.ID {
		t.Fatalf("bundle not rebound: %s -> %s", bound, sub.Service.ID)
	}
	for _, name := range []string{failoverRegistryChecksMetric, failoverMonitorChecksMetric} {
		if got := hub.Metrics.Counter(name, "").Value(); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
	if got := hub.Metrics.Counter(failoverHitMetric, "").Value(); got != 1 {
		t.Errorf("table hits = %d, want 1", got)
	}
}
