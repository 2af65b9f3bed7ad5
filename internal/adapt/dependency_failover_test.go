package adapt

import (
	"errors"
	"testing"

	"qasom/internal/core"
	"qasom/internal/registry"
	"qasom/internal/semantics"
)

// depFixture is the shopping fixture with dependency rules: any browse
// binding requires order ∈ {order-0, order-1}, and order-0 excludes
// pay-1.
func depFixture(t *testing.T) (*Manager, *Runtime, *registry.Registry, *core.DependencySet) {
	t.Helper()
	onto := semantics.PervasiveWithScenarios()
	reg := registry.New(onto)
	publish(t, reg, semantics.BrowseCatalog, "browse", 4)
	publish(t, reg, semantics.OrderItem, "order", 4)
	publish(t, reg, semantics.CardPayment, "pay", 4)

	class := shoppingBehaviours()
	req := &core.Request{
		Task:       class.Behaviours[0],
		Properties: stdPS(),
		Dependencies: []core.Dependency{
			{Kind: core.DepRequires, From: "browse", To: "order",
				ToServices: []registry.ServiceID{"order-0", "order-1"}},
			{Kind: core.DepExcludes, From: "order", To: "pay", FromService: "order-0",
				ToServices: []registry.ServiceID{"pay-1"}},
		},
	}
	cands := make(map[string][]registry.Candidate)
	for _, a := range req.Task.Activities() {
		cands[a.ID] = reg.CandidatesForActivity(a, req.Properties)
	}
	sel := core.NewSelector(core.Options{})
	res, err := sel.Select(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("dep fixture selection should be feasible")
	}
	ds, err := req.CompiledDependencies()
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(req, res)
	m := &Manager{Registry: reg, Selector: sel}
	return m, rt, reg, ds
}

// depViolations counts rule violations of the runtime's live assignment.
func depViolations(rt *Runtime, ds *core.DependencySet) int {
	n := 0
	rt.View(func(res *core.Result) {
		n = ds.Violations(func(id string) (registry.Candidate, bool) {
			c, ok := res.Assignment[id]
			return c, ok
		})
	})
	return n
}

// TestDifferentialFailoverNeverViolatesDependencies drives the
// failover walk through every substitution it can make and asserts the
// dependency invariant after each: the assignment never violates a rule,
// and exhaustion — not an inadmissible binding — is what ends the chain.
func TestDifferentialFailoverNeverViolatesDependencies(t *testing.T) {
	m, rt, _, ds := depFixture(t)
	if n := depViolations(rt, ds); n != 0 {
		t.Fatalf("selection starts with %d dependency violations", n)
	}

	// order may only ever bind order-0 or order-1: fail it until the
	// admissible pool is exhausted.
	exclude := map[registry.ServiceID]bool{}
	admissible := map[registry.ServiceID]bool{"order-0": true, "order-1": true}
	first := boundID(rt, "order")
	if !admissible[first] {
		t.Fatalf("selection bound order to inadmissible %s", first)
	}
	exclude[first] = true
	sub, err := m.Substitute(rt, "order", exclude)
	if err != nil {
		t.Fatalf("first order failover: %v", err)
	}
	if !admissible[sub.Service.ID] {
		t.Fatalf("failover bound order to inadmissible %s", sub.Service.ID)
	}
	if n := depViolations(rt, ds); n != 0 {
		t.Fatalf("after order failover: %d dependency violations", n)
	}
	// Both admissible services spent: the requires rule must make the
	// next failover fail even though order-2/order-3 are alive and
	// healthy.
	exclude[sub.Service.ID] = true
	if _, err := m.Substitute(rt, "order", exclude); !errors.Is(err, ErrNoSubstitute) {
		t.Fatalf("exhausted admissible pool: got %v, want ErrNoSubstitute", err)
	}
	if n := depViolations(rt, ds); n != 0 {
		t.Fatalf("failed failover left %d dependency violations", n)
	}

	// While order-0 is bound, pay failovers must never land on pay-1.
	if cur := boundID(rt, "order"); cur != "order-0" {
		// Rotate back: exclude only the currently bound one.
		if _, err := m.Substitute(rt, "order", map[registry.ServiceID]bool{cur: true}); err != nil {
			t.Fatalf("rotating order back: %v", err)
		}
	}
	if cur := boundID(rt, "order"); cur != "order-0" {
		t.Fatalf("order bound to %s, want order-0", cur)
	}
	payExclude := map[registry.ServiceID]bool{}
	for i := 0; i < 3; i++ {
		payExclude[boundID(rt, "pay")] = true
		sub, err := m.Substitute(rt, "pay", payExclude)
		if err != nil {
			break // pool exhausted, acceptable
		}
		if sub.Service.ID == "pay-1" {
			t.Fatal("failover bound pay-1 while order-0 excludes it")
		}
		if n := depViolations(rt, ds); n != 0 {
			t.Fatalf("pay failover %d left %d dependency violations", i, n)
		}
	}
}

// TestFailoverRespectsDependencyMask proves that failover keeps the
// dependency invariant with a monitor attached: the rotation walk and the
// late-service rung apply the admissibility filter against the
// assignment of the moment, so no substitution violates a rule.
func TestFailoverRespectsDependencyMask(t *testing.T) {
	m, rt, reg, ds := depFixture(t)
	withMonitor(m)

	for i := 0; i < 4; i++ {
		for _, act := range []string{"order", "pay", "browse"} {
			cur := boundID(rt, act)
			sub, err := m.Substitute(rt, act, map[registry.ServiceID]bool{cur: true})
			if err != nil {
				continue // exhausted is fine; invariant is what matters
			}
			if act == "order" && sub.Service.ID != "order-0" && sub.Service.ID != "order-1" {
				t.Fatalf("failover bound inadmissible %s to order", sub.Service.ID)
			}
			if act == "pay" && sub.Service.ID == "pay-1" && boundID(rt, "order") == "order-0" {
				t.Fatal("failover bound pay-1 while order-0 excludes it")
			}
			if n := depViolations(rt, ds); n != 0 {
				t.Fatalf("round %d %s: %d dependency violations", i, act, n)
			}
		}
	}
	if rt.FailoverStats().RotationHits == 0 {
		t.Fatal("expected at least one rotation hit")
	}

	// Selection filters alternates against the selected assignment, so
	// the walk's own filter matters once another activity has moved. Start
	// from order-1 bound with pay-1 in pay's rotation, fail order over to
	// order-0, and pay-1 becomes inadmissible.
	cands := map[registry.ServiceID]registry.Candidate{}
	for _, act := range []string{"order", "pay"} {
		for _, c := range reg.CandidatesForActivity(rt.Req.Task.ActivityByID(act), rt.Req.Properties) {
			cands[c.Service.ID] = c
		}
	}
	var res *core.Result
	rt.View(func(r *core.Result) { res = r.Clone() })
	res.Assignment["order"] = cands["order-1"]
	res.Alternates()["order"] = []registry.Candidate{cands["order-0"]}
	res.Assignment["pay"] = cands["pay-0"]
	res.Alternates()["pay"] = []registry.Candidate{cands["pay-1"], cands["pay-2"]}
	moved := NewRuntime(rt.Req, res)
	if sub, err := m.Substitute(moved, "order", map[registry.ServiceID]bool{"order-1": true}); err != nil || sub.Service.ID != "order-0" {
		t.Fatalf("order failover = %s, %v; want order-0", sub.Service.ID, err)
	}
	if sub, err := m.Substitute(moved, "pay", map[registry.ServiceID]bool{"pay-0": true}); err != nil || sub.Service.ID != "pay-2" {
		t.Fatalf("pay failover = %s, %v; want pay-2 (pay-1 is excluded by order-0)", sub.Service.ID, err)
	}
	// An exhausted rotation must not bind a late service the requires
	// rule forbids: order-2, order-3 and order-late are all outside it.
	if err := reg.Publish(registry.Description{
		ID: "order-late", Concept: semantics.OrderItem, Offers: offers(20, 5, 0.95, 0.9, 40),
	}); err != nil {
		t.Fatal(err)
	}
	exclude := map[registry.ServiceID]bool{"order-1": true}
	if sub, err := m.Substitute(moved, "order", exclude); !errors.Is(err, ErrNoSubstitute) {
		t.Fatalf("exhausted order failover bound %s (%v), want ErrNoSubstitute", sub.Service.ID, err)
	}
	if n := depViolations(moved, ds); n != 0 {
		t.Fatalf("moved runtime has %d dependency violations", n)
	}
}
