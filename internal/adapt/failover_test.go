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
	"qasom/internal/task"
)

// withMonitor gives the manager a fresh monitor, so failover probes
// health as well as presence.
func withMonitor(m *Manager) *monitor.Monitor {
	m.Monitor = monitor.New(stdPS(), monitor.Options{})
	return m.Monitor
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
		for _, a := range res.Alternates()[act] {
			out = append(out, a.Service.ID)
		}
	})
	return out
}

// referencePick is the reference the walk is compared against, written
// independently over Registry.Get copies: the first alternate of the
// rotation that is not excluded, still published and, with a monitor, at
// or above monitor.MinSuccessRate. It ignores dependency rules, so it
// only serves fixtures without them.
func referencePick(rt *Runtime, reg *registry.Registry, mon *monitor.Monitor, act string, exclude map[registry.ServiceID]bool) (registry.ServiceID, bool) {
	for _, id := range altIDs(rt, act) {
		if exclude[id] {
			continue
		}
		if _, ok := reg.Get(id); !ok {
			continue
		}
		if mon != nil && mon.SuccessRate(id) < monitor.MinSuccessRate {
			continue
		}
		return id, true
	}
	return "", false
}

// TestDifferentialDecisionIdentity checks the walk against referencePick
// across a script of withdrawals, health demotions, recoveries and
// repeated failovers: every failover binds the reference's pick and
// leaves the reference's rotation (the pick removed, the displaced
// binding at the tail). Publishes are frozen, so an exhausted rotation
// finds no late service either.
func TestDifferentialDecisionIdentity(t *testing.T) {
	m, rt, reg := fixture(t)
	mon := withMonitor(m)

	failover := func(step string) {
		t.Helper()
		for _, act := range []string{"browse", "order", "pay"} {
			old := boundID(rt, act)
			exclude := map[registry.ServiceID]bool{old: true}
			want, ok := referencePick(rt, reg, mon, act, exclude)
			var wantRot []registry.ServiceID
			for _, id := range altIDs(rt, act) {
				if id != want {
					wantRot = append(wantRot, id)
				}
			}
			wantRot = append(wantRot, old)
			sub, err := m.Substitute(rt, act, exclude)
			if !ok {
				if !errors.Is(err, ErrNoSubstitute) {
					t.Fatalf("%s/%s: reference found nothing, walk bound %s (%v)", step, act, sub.Service.ID, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s/%s: walk failed (%v), reference picked %s", step, act, err, want)
			}
			if sub.Service.ID != want {
				t.Fatalf("%s/%s: walk picked %s, reference picked %s", step, act, sub.Service.ID, want)
			}
			if got := altIDs(rt, act); fmt.Sprint(got) != fmt.Sprint(wantRot) {
				t.Fatalf("%s/%s: rotation %v, want %v", step, act, got, wantRot)
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
	reg.Withdraw(altIDs(rt, "order")[0])
	failover("after-withdraw")
	// Demote, by monitor observations, the first alternate still
	// published: the one the next failover would pick (the withdrawn
	// head stays in the rotation).
	var sick registry.ServiceID
	for _, id := range altIDs(rt, "order") {
		if reg.Has(id) {
			sick = id
			break
		}
	}
	report(sick, false, 5)
	failover("after-demotion")
	if boundID(rt, "order") == sick {
		t.Fatalf("failover bound the demoted %s", sick)
	}
	// Recover it: the next failover picks it again.
	report(sick, true, 15)
	failover("after-recovery")
	if got := boundID(rt, "order"); got != sick {
		t.Fatalf("after recovery order bound %s, want the recovered %s", got, sick)
	}
	// Exhaust: repeated failovers rotate through everything.
	failover("rotate-1")
	failover("rotate-2")
	if hits, subs := rt.FailoverStats().RotationHits, rt.Substitutions(); hits != subs || subs == 0 {
		t.Errorf("rotation hits = %d, substitutions = %d; want every substitution served by the walk", hits, subs)
	}
}

// TestSubstituteAllocFloor floors the per-failover allocation count of
// the probing walk: the probes copy nothing and the rotation moves in
// place, so the count does not grow with the dead alternates walked past.
func TestSubstituteAllocFloor(t *testing.T) {
	m, rt, reg := fixture(t)
	withMonitor(m)
	// The withdrawn head stays in the rotation, so every walk probes at
	// least one dead alternate.
	reg.Withdraw(altIDs(rt, "order")[0])
	exclude := make(map[registry.ServiceID]bool, 1)
	allocs := testing.AllocsPerRun(200, func() {
		clear(exclude)
		exclude[boundID(rt, "order")] = true
		if _, err := m.Substitute(rt, "order", exclude); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Substitute allocs = %g, want 0", allocs)
	}
}

// TestSubstituteSeesRedeployWithoutWait: an alternate withdrawn and
// redeployed just before a failover is bound by the very next
// Substitute, with no wait in between, and a service published just
// before an exhausted walk is served by the late-service rung. An
// eligibility view maintained from change events could still read the
// redeployed alternate as dead and report the rotation exhausted.
func TestSubstituteSeesRedeployWithoutWait(t *testing.T) {
	m, rt, reg := fixture(t)
	withMonitor(m)
	old := boundID(rt, "order")
	alts := altIDs(rt, "order")
	head := alts[0]
	// Only the head alternate may be picked.
	exclude := map[registry.ServiceID]bool{old: true}
	for _, id := range alts[1:] {
		exclude[id] = true
	}
	desc, ok := reg.Get(head)
	if !ok {
		t.Fatalf("%s not published", head)
	}
	reg.Withdraw(head)
	if err := reg.Publish(desc); err != nil {
		t.Fatal(err)
	}
	if sub, err := m.Substitute(rt, "order", exclude); err != nil || sub.Service.ID != head {
		t.Fatalf("failover after redeploy = %s, %v; want %s", sub.Service.ID, err, head)
	}
	if fs := rt.FailoverStats(); fs.RotationHits != 1 || fs.Exhausted != 0 {
		t.Errorf("failover stats = %+v, want one rotation hit", fs)
	}

	// Every service of the rotation is now excluded; one published just
	// before the failover is the only way out.
	exclude[head] = true
	if err := reg.Publish(registry.Description{
		ID: "order-new", Concept: semantics.OrderItem, Offers: offers(30, 5, 0.95, 0.9, 40),
	}); err != nil {
		t.Fatal(err)
	}
	if sub, err := m.Substitute(rt, "order", exclude); err != nil || sub.Service.ID != "order-new" {
		t.Fatalf("exhausted failover = %s, %v; want order-new", sub.Service.ID, err)
	}
	if fs := rt.FailoverStats(); fs.RotationHits != 1 || fs.Exhausted != 1 {
		t.Errorf("failover stats = %+v, want one hit and one exhausted walk", fs)
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
			for _, a := range res.Alternates()[act] {
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
			for _, a := range res.Alternates()[act] {
				set[a.Service.ID] = true
			}
			want[act] = set
		}
	})
	return want
}

// TestConcurrentSubstitutionExactlyOnce races simultaneous failovers of
// parallel activities and checks the exactly-once / no-duplicate-binding
// invariants. Failover is the reactive probing walk, run as the
// "reactive" subtest.
func TestConcurrentSubstitutionExactlyOnce(t *testing.T) {
	t.Run("reactive", func(t *testing.T) {
		m, rt, _ := parallelFixture(t)
		withMonitor(m)
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

// TestExecutorParallelFailuresSubstituteOnce drives the invariant
// through the real executor: every bound service of a parallel task is
// dead, so all three failovers race inside one Run.
func TestExecutorParallelFailuresSubstituteOnce(t *testing.T) {
	m, rt, _ := parallelFixture(t)
	withMonitor(m)
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

// TestConcurrentChurnDuringFailovers runs failovers while the registry
// churns underneath. The binding invariant holds, and once the churn
// stops the next failover of every activity binds referencePick's pick.
// The churn touches order-1..3 only: order-0, order-4 and order-5 stay
// published, so every walk has a live alternate. With every alternate
// churning, a walk could probe each one just as it was withdrawn and
// rightly report the rotation exhausted.
func TestConcurrentChurnDuringFailovers(t *testing.T) {
	m, rt, reg := parallelFixture(t)
	mon := withMonitor(m)
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
			k := 1 + i%3
			id := registry.ServiceID(fmt.Sprintf("order-%d", k))
			if i%2 == 0 {
				reg.Withdraw(id)
			} else {
				reg.Publish(registry.Description{
					ID: id, Concept: semantics.OrderItem,
					Offers: offers(40+float64(5*k), 5, 0.95, 0.9, 40),
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

	checkBindingInvariant(t, rt, want)
	for _, act := range []string{"a1", "a2", "a3"} {
		exclude := map[registry.ServiceID]bool{boundID(rt, act): true}
		ref, ok := referencePick(rt, reg, mon, act, exclude)
		got, err := m.Substitute(rt, act, exclude)
		if !ok || err != nil || got.Service.ID != ref {
			t.Errorf("%s: walk picked %s (%v), reference picked %s (found %v)", act, got.Service.ID, err, ref, ok)
		}
	}
}

// TestLateServiceServedOnceRotationExhausted checks the late-service
// rung: when no alternate of the rotation is left, the best service
// published after selection that passes the probe is bound, and the
// displaced binding joins the rotation.
func TestLateServiceServedOnceRotationExhausted(t *testing.T) {
	m, rt, reg := fixture(t)
	mon := withMonitor(m)
	hub := obs.NewHub()
	m.Obs = hub

	// order-sick outranks order-late but fails: the probe skips it.
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
	old := boundID(rt, "order")
	exclude := map[registry.ServiceID]bool{old: true}
	for _, id := range altIDs(rt, "order") {
		exclude[id] = true
	}
	sub, err := m.Substitute(rt, "order", exclude)
	if err != nil {
		t.Fatalf("Substitute: %v", err)
	}
	if sub.Service.ID != "order-late" || boundID(rt, "order") != "order-late" {
		t.Fatalf("bound %s, want order-late", sub.Service.ID)
	}
	if alts := altIDs(rt, "order"); alts[len(alts)-1] != old {
		t.Errorf("rotation %v should end with the displaced %s", alts, old)
	}
	if fs := rt.FailoverStats(); fs.RotationHits != 0 || fs.Exhausted != 1 {
		t.Errorf("failover stats = %+v, want one exhausted walk", fs)
	}
	exhausted := hub.Metrics.CounterVec(failoverFallbackMetric, "", "cause").With("exhausted").Value()
	if hits := hub.Metrics.Counter(failoverHitMetric, "").Value(); hits != 0 || exhausted != 1 {
		t.Errorf("hit/exhausted counters = %d/%d, want 0/1", hits, exhausted)
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

// TestSubstituteAfterBehaviourSwitch checks that failover serves a new
// behaviour's activities: right after a behavioural switch to b2, a
// failover of bundle is a rotation hit on the new selection.
func TestSubstituteAfterBehaviourSwitch(t *testing.T) {
	m, rt, _ := fixture(t)
	withMonitor(m)
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
	if got := hub.Metrics.Counter(failoverHitMetric, "").Value(); got != 1 {
		t.Errorf("rotation hits counter = %d, want 1", got)
	}
	if fs := rt.FailoverStats(); fs.RotationHits != 1 || fs.Exhausted != 0 {
		t.Errorf("failover stats = %+v, want one rotation hit", fs)
	}
}

// TestExtrasOrder checks how the late-service rung ranks services
// published after selection: by pool score, then ID, within the
// replacement cap.
func TestExtrasOrder(t *testing.T) {
	reg := registry.New(semantics.PervasiveWithScenarios())
	publish(t, reg, semantics.OrderItem, "order", 6)
	for _, id := range []registry.ServiceID{"tie-b", "tie-a"} {
		if err := reg.Publish(registry.Description{
			ID: id, Concept: semantics.OrderItem, Offers: offers(50, 5, 0.95, 0.9, 40),
		}); err != nil {
			t.Fatal(err)
		}
	}
	cands := reg.Candidates(semantics.OrderItem, stdPS())
	byID := map[registry.ServiceID]registry.Candidate{}
	for _, c := range cands {
		byID[c.Service.ID] = c
	}
	ids := func(cs []registry.Candidate) []registry.ServiceID {
		out := make([]registry.ServiceID, len(cs))
		for i, c := range cs {
			out[i] = c.Service.ID
		}
		return out
	}
	bound := byID["order-0"]
	alts := []registry.Candidate{byID["order-1"], byID["order-2"]}
	want := []registry.ServiceID{"tie-a", "tie-b", "order-3", "order-4", "order-5"}
	if got := Extras(stdPS(), nil, bound, alts, cands); fmt.Sprint(ids(got)) != fmt.Sprint(want) {
		t.Fatalf("Extras = %v, want %v", ids(got), want)
	}
	// A rotation two short of the cap leaves room for two late services.
	long := make([]registry.Candidate, MaxReplacements-2)
	for i := range long {
		long[i] = alts[i%2]
	}
	if got := Extras(stdPS(), nil, bound, long, cands); fmt.Sprint(ids(got)) != fmt.Sprint(want[:2]) {
		t.Fatalf("capped Extras = %v, want %v", ids(got), want[:2])
	}
}
