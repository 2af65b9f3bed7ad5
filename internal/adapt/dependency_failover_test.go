package adapt

import (
	"errors"
	"testing"

	"qasom/internal/core"
	"qasom/internal/monitor"
	"qasom/internal/registry"
	"qasom/internal/semantics"
	"qasom/internal/subidx"
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

// TestDifferentialFailoverNeverViolatesDependencies drives the reactive
// failover path through every substitution it can make and asserts the
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

// TestIndexRespectsDependencyMask proves the indexed failover path keeps
// the dependency invariant: the rebuilt index publishes no inadmissible
// replacement, index-served substitutions stay admissible, and a stale
// index entry is revalidated at commit time rather than installed.
func TestIndexRespectsDependencyMask(t *testing.T) {
	m, rt, reg, ds := depFixture(t)
	mon := monitor.New(stdPS(), monitor.Options{})
	m.Monitor = mon
	tr := subidx.NewTracker(reg, mon, subidx.Options{})
	t.Cleanup(tr.Close)
	rt.AttachIndex(tr.Track(rt))
	rt.Index().BuildNow()

	// The published replacement list for order may only contain the
	// requires-admissible services.
	for _, r := range rt.Index().Replacements("order") {
		if r.Service != "order-0" && r.Service != "order-1" {
			t.Fatalf("index published inadmissible replacement %s for order", r.Service)
		}
	}
	// And with order-0 bound, pay-1 must not be published for pay.
	if boundID(rt, "order") == "order-0" {
		for _, r := range rt.Index().Replacements("pay") {
			if r.Service == "pay-1" {
				t.Fatal("index published pay-1 while order-0 excludes it")
			}
		}
	}

	// Index-served failovers keep the invariant across a burst.
	for i := 0; i < 4; i++ {
		for _, act := range []string{"order", "pay", "browse"} {
			cur := boundID(rt, act)
			sub, err := m.Substitute(rt, act, map[registry.ServiceID]bool{cur: true})
			if err != nil {
				continue // exhausted is fine; invariant is what matters
			}
			if act == "order" && sub.Service.ID != "order-0" && sub.Service.ID != "order-1" {
				t.Fatalf("indexed failover bound inadmissible %s to order", sub.Service.ID)
			}
			if n := depViolations(rt, ds); n != 0 {
				t.Fatalf("round %d %s: %d dependency violations", i, act, n)
			}
		}
	}
	stats := rt.FailoverStats()
	if stats.IndexHits == 0 {
		t.Fatal("expected at least one index-served failover")
	}
}
