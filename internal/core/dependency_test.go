package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/workload"
)

// stampProviders assigns provider dev(k mod 3) to every pool's k-th
// candidate, in place, so co-location rules have substance.
func stampProviders(cands map[string][]registry.Candidate) {
	for _, list := range cands {
		for k := range list {
			list[k].Service.Provider = registry.DeviceID(fmt.Sprintf("dev%d", k%3))
		}
	}
}

// mixedDeps builds one rule of each kind over the generator's naming
// scheme (activities a1..an, services <act>-s<k>): a1 requires a2 in its
// first three services, a2 bound to a2-s0 excludes a3-s1, and (when the
// task is wide enough) a4 and a5 must be co-located.
func mixedDeps(nActs, pool int) []Dependency {
	reqSet := []registry.ServiceID{"a2-s0", "a2-s1"}
	if pool > 2 {
		reqSet = append(reqSet, "a2-s2")
	}
	deps := []Dependency{
		{Kind: DepRequires, From: "a1", To: "a2", ToServices: reqSet},
		{Kind: DepExcludes, From: "a2", To: "a3", FromService: "a2-s0", ToServices: []registry.ServiceID{"a3-s1"}},
	}
	if nActs >= 5 {
		deps = append(deps, Dependency{Kind: DepColocated, From: "a4", To: "a5"})
	}
	return deps
}

// TestDependencyCompileErrors exercises every typed compile error and
// the structural edge cases around them.
func TestDependencyCompileErrors(t *testing.T) {
	g := workload.NewGenerator(1)
	tk := g.Task("D", 4, workload.ShapeLinear)
	set := []registry.ServiceID{"x"}
	cases := []struct {
		name string
		deps []Dependency
		want error
	}{
		{"bad kind", []Dependency{{Kind: 0, From: "a1", To: "a2", ToServices: set}}, ErrDependencyInvalid},
		{"self edge", []Dependency{{Kind: DepRequires, From: "a1", To: "a1", ToServices: set}}, ErrDependencyInvalid},
		{"empty set", []Dependency{{Kind: DepExcludes, From: "a1", To: "a2"}}, ErrDependencyInvalid},
		{"unknown from", []Dependency{{Kind: DepRequires, From: "zz", To: "a2", ToServices: set}}, ErrDependencyUnknownActivity},
		{"unknown to", []Dependency{{Kind: DepColocated, From: "a1", To: "zz"}}, ErrDependencyUnknownActivity},
		{"two-cycle", []Dependency{
			{Kind: DepRequires, From: "a1", To: "a2", ToServices: set},
			{Kind: DepRequires, From: "a2", To: "a1", ToServices: set},
		}, ErrDependencyCycle},
		{"three-cycle", []Dependency{
			{Kind: DepRequires, From: "a1", To: "a2", ToServices: set},
			{Kind: DepRequires, From: "a2", To: "a3", ToServices: set},
			{Kind: DepRequires, From: "a3", To: "a1", ToServices: set},
		}, ErrDependencyCycle},
		{"contradiction any-trigger", []Dependency{
			{Kind: DepRequires, From: "a1", To: "a2", ToServices: []registry.ServiceID{"a2-s0", "a2-s1"}},
			{Kind: DepExcludes, From: "a1", To: "a2", ToServices: []registry.ServiceID{"a2-s0", "a2-s1", "a2-s2"}},
		}, ErrDependencyContradiction},
		{"contradiction same-trigger", []Dependency{
			{Kind: DepRequires, From: "a1", To: "a2", FromService: "a1-s0", ToServices: []registry.ServiceID{"a2-s0"}},
			{Kind: DepExcludes, From: "a1", To: "a2", FromService: "a1-s0", ToServices: []registry.ServiceID{"a2-s0"}},
		}, ErrDependencyContradiction},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := CompileDependencies(tk, tc.deps)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			// The request surface must report the same typed error.
			req := &Request{Task: tk, Properties: qos.StandardSet(), Dependencies: tc.deps}
			if err := req.Validate(); !errors.Is(err, tc.want) {
				t.Fatalf("Validate: got %v, want %v", err, tc.want)
			}
		})
	}
	// Disjoint triggers do NOT contradict: the rules can never fire
	// together, so the pair must compile.
	ok := []Dependency{
		{Kind: DepRequires, From: "a1", To: "a2", FromService: "a1-s0", ToServices: []registry.ServiceID{"a2-s0"}},
		{Kind: DepExcludes, From: "a1", To: "a2", FromService: "a1-s1", ToServices: []registry.ServiceID{"a2-s0"}},
	}
	if _, err := CompileDependencies(tk, ok); err != nil {
		t.Fatalf("disjoint triggers should compile, got %v", err)
	}
	// A DAG of requires-edges is fine.
	dag := []Dependency{
		{Kind: DepRequires, From: "a1", To: "a2", ToServices: set},
		{Kind: DepRequires, From: "a1", To: "a3", ToServices: set},
		{Kind: DepRequires, From: "a2", To: "a3", ToServices: set},
	}
	if _, err := CompileDependencies(tk, dag); err != nil {
		t.Fatalf("requires DAG should compile, got %v", err)
	}
	// The empty rule set compiles to a nil set that admits everything.
	ds, err := CompileDependencies(tk, nil)
	if err != nil || ds != nil {
		t.Fatalf("empty rules: got (%v, %v), want (nil, nil)", ds, err)
	}
	if !ds.Admissible("a1", registry.Candidate{}, nil) || ds.Violations(nil) != 0 {
		t.Fatal("nil set must admit everything")
	}
}

// TestDependencySemantics pins Admissible/Violations against hand-built
// bindings, including the unbound-endpoint and trigger cases, and checks
// the adjacency the repair loop walks.
func TestDependencySemantics(t *testing.T) {
	g := workload.NewGenerator(2)
	tk := g.Task("S", 5, workload.ShapeLinear)
	deps := mixedDeps(5, 4)
	ds, err := CompileDependencies(tk, deps)
	if err != nil {
		t.Fatal(err)
	}
	cand := func(id string, dev string) registry.Candidate {
		return registry.Candidate{Service: &registry.Description{
			ID: registry.ServiceID(id), Provider: registry.DeviceID(dev)}}
	}
	bindings := map[string]registry.Candidate{}
	bound := func(id string) (registry.Candidate, bool) {
		c, ok := bindings[id]
		return c, ok
	}

	// Nothing bound: no rule can fire.
	if got := ds.Violations(bound); got != 0 {
		t.Fatalf("empty bindings: %d violations, want 0", got)
	}
	if !ds.Admissible("a2", cand("a2-s9", "dev0"), bound) {
		t.Fatal("a2-s9 must be admissible while a1 is unbound")
	}

	// a1 bound (any trigger): a2 outside the requires set is inadmissible.
	bindings["a1"] = cand("a1-s0", "dev0")
	if ds.Admissible("a2", cand("a2-s9", "dev0"), bound) {
		t.Fatal("requires must reject a2-s9 once a1 is bound")
	}
	if !ds.Admissible("a2", cand("a2-s1", "dev0"), bound) {
		t.Fatal("requires must admit a2-s1")
	}

	// Excludes fires only on its trigger binding.
	bindings["a2"] = cand("a2-s0", "dev0")
	if ds.Admissible("a3", cand("a3-s1", "dev0"), bound) {
		t.Fatal("excludes must reject a3-s1 while a2=a2-s0")
	}
	bindings["a2"] = cand("a2-s1", "dev0")
	if !ds.Admissible("a3", cand("a3-s1", "dev0"), bound) {
		t.Fatal("excludes must not fire for a2=a2-s1")
	}

	// Co-location compares providers, both directions.
	bindings["a4"] = cand("a4-s0", "devA")
	if ds.Admissible("a5", cand("a5-s0", "devB"), bound) {
		t.Fatal("colocated must reject a different provider")
	}
	if !ds.Admissible("a5", cand("a5-s0", "devA"), bound) {
		t.Fatal("colocated must admit the same provider")
	}
	bindings["a5"] = cand("a5-s0", "devB")
	if ds.Admissible("a4", cand("a4-s1", "devA"), bound) {
		t.Fatal("colocated must reject from the other endpoint too")
	}

	// Violations counts each violated rule once over a full assignment.
	bindings["a1"] = cand("a1-s0", "dev0")
	bindings["a2"] = cand("a2-s0", "dev0") // requires satisfied, excludes trigger armed
	bindings["a3"] = cand("a3-s1", "dev0") // violates excludes
	bindings["a4"] = cand("a4-s0", "devA")
	bindings["a5"] = cand("a5-s0", "devB") // violates colocated
	if got := ds.Violations(bound); got != 2 {
		t.Fatalf("violations = %d, want 2", got)
	}

	// Adjacency: a2 shares rules with a1 (requires) and a3 (excludes).
	adj := ds.adjacent[ds.actIdx["a2"]]
	if want := []int{ds.actIdx["a1"], ds.actIdx["a3"]}; !reflect.DeepEqual(adj, want) {
		t.Fatalf("adjacent(a2) = %v, want %v", adj, want)
	}
}

// TestDifferentialDependencyRepair runs the full scalar pipeline with
// dependency rules through both kernels and demands bit-identical
// results, then checks the invariant the rules exist for: no returned
// binding — including every ranked alternate — violates a dependency.
func TestDifferentialDependencyRepair(t *testing.T) {
	ps := qos.StandardSet()
	laws := workload.DefaultLaws(ps)
	shapes := []workload.TaskShape{workload.ShapeLinear, workload.ShapeMixed}
	for seed := int64(1); seed <= 6; seed++ {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("seed=%d/shape=%d", seed, sh), func(t *testing.T) {
				g := workload.NewGenerator(seed)
				tk := g.Task("DR", 5, sh)
				cands := g.Candidates(tk, 8, ps, laws)
				stampProviders(cands)
				req := &Request{
					Task:         tk,
					Properties:   ps,
					Constraints:  g.Constraints(tk, ps, laws, workload.AtMean, 3),
					Dependencies: mixedDeps(5, 8),
				}
				fast, err := NewSelector(Options{Workers: 1}).Select(req, cands)
				if err != nil {
					t.Fatalf("incremental: %v", err)
				}
				slow, err := NewSelector(Options{Workers: 1, NaiveEvaluation: true}).Select(req, cands)
				if err != nil {
					t.Fatalf("naive: %v", err)
				}
				sameDecision(t, fast, slow)

				ds, err := req.CompiledDependencies()
				if err != nil {
					t.Fatal(err)
				}
				bound := func(id string) (registry.Candidate, bool) {
					c, ok := fast.Assignment[id]
					return c, ok
				}
				if !fast.Feasible {
					// Infeasible is acceptable (tight constraints); the
					// reported violation must then include the dep count.
					deps := float64(ds.Violations(bound))
					if fast.Violation < deps {
						t.Fatalf("violation %v < dep violations %v", fast.Violation, deps)
					}
					return
				}
				if n := ds.Violations(bound); n != 0 {
					t.Fatalf("feasible result violates %d dependency rules", n)
				}
				// Every advertised alternate must be a legal in-place swap.
				for id, alts := range fast.Alternates {
					for _, alt := range alts {
						if !ds.Admissible(id, alt, bound) {
							t.Fatalf("alternate %s for %s violates a dependency", alt.Service.ID, id)
						}
					}
				}
			})
		}
	}
}

// TestDependencyRepairFindsFeasible pins a scenario the dependency-blind
// search would get wrong: the highest-utility candidates violate a
// requires edge, and only the dependency-aware repair path lands on a
// feasible composition.
func TestDependencyRepairFindsFeasible(t *testing.T) {
	ps := qos.StandardSet()
	laws := workload.DefaultLaws(ps)
	g := workload.NewGenerator(11)
	tk := g.Task("RF", 4, workload.ShapeLinear)
	cands := g.Candidates(tk, 6, ps, laws)
	stampProviders(cands)
	// Force a2 into exactly one service, triggered by any a1 binding.
	req := &Request{
		Task:       tk,
		Properties: ps,
		Dependencies: []Dependency{
			{Kind: DepRequires, From: "a1", To: "a2", ToServices: []registry.ServiceID{"a2-s3"}},
			{Kind: DepColocated, From: "a3", To: "a4"},
		},
	}
	res, err := NewSelector(Options{Workers: 1}).Select(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("unconstrained QoS + satisfiable deps must be feasible, got violation %v", res.Violation)
	}
	if got := res.Assignment["a2"].Service.ID; got != "a2-s3" {
		t.Fatalf("a2 bound to %s, want a2-s3", got)
	}
	if p1, p2 := res.Assignment["a3"].Service.Provider, res.Assignment["a4"].Service.Provider; p1 != p2 {
		t.Fatalf("a3 on %s, a4 on %s: colocated violated", p1, p2)
	}
}
