package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/workload"
)

// TestDifferentialParetoKernels runs the Pareto-front mode through both
// evaluation kernels and demands bit-identical results — front order,
// members, aggregates, stats — mirroring the scalar differential.
func TestDifferentialParetoKernels(t *testing.T) {
	ps := qos.StandardSet()
	laws := workload.DefaultLaws(ps)
	objSets := [][]string{
		{"responseTime", "availability"},
		{"responseTime", "price", "reliability"},
	}
	for seed := int64(1); seed <= 4; seed++ {
		for oi, objectives := range objSets {
			for _, withDeps := range []bool{false, true} {
				t.Run(fmt.Sprintf("seed=%d/obj=%d/deps=%v", seed, oi, withDeps), func(t *testing.T) {
					g := workload.NewGenerator(seed)
					tk := g.Task("P", 5, workload.ShapeMixed)
					cands := g.Candidates(tk, 4, ps, laws)
					stampProviders(cands)
					req := &Request{
						Task:        tk,
						Properties:  ps,
						Constraints: g.Constraints(tk, ps, laws, workload.AtMeanPlusSigma, 2),
						Objectives:  objectives,
					}
					if withDeps {
						req.Dependencies = mixedDeps(5, 4)
					}
					fast, err := NewSelector(Options{Workers: 1, ParetoMode: true}).Select(req, cands)
					if err != nil {
						t.Fatalf("incremental: %v", err)
					}
					slow, err := NewSelector(Options{Workers: 1, ParetoMode: true, NaiveEvaluation: true}).Select(req, cands)
					if err != nil {
						t.Fatalf("naive: %v", err)
					}
					sameDecision(t, fast, slow)
					checkFrontInvariants(t, req, fast)
				})
			}
		}
	}
}

// checkFrontInvariants asserts the structural contract of a Pareto
// result: every front member is feasible and dependency-clean, members
// are mutually non-dominated over the objectives, Front[0] is the
// scalarized-best member and mirrors the top-level result fields, and
// FrontSize matches.
func checkFrontInvariants(t *testing.T, req *Request, res *Result) {
	t.Helper()
	if res.Stats.FrontSize != len(res.Front) {
		t.Fatalf("FrontSize %d != len(Front) %d", res.Stats.FrontSize, len(res.Front))
	}
	if !res.Feasible {
		if res.Front != nil {
			t.Fatal("infeasible result must carry no front")
		}
		return
	}
	if len(res.Front) == 0 {
		t.Fatal("feasible Pareto result must carry a front")
	}
	first := res.Front[0]
	if !reflect.DeepEqual(first.Assignment, res.Assignment) ||
		!reflect.DeepEqual(first.Aggregated, res.Aggregated) ||
		first.Utility != res.Utility {
		t.Fatal("Front[0] must mirror the top-level scalarized-best result")
	}
	objIdx := req.EffectiveObjectives()
	props := make([]*qos.Property, len(objIdx))
	for i, j := range objIdx {
		props[i] = req.Properties.At(j)
	}
	project := func(v qos.Vector) qos.Vector {
		out := make(qos.Vector, len(objIdx))
		for i, j := range objIdx {
			out[i] = v[j]
		}
		return out
	}
	ds, err := req.CompiledDependencies()
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range res.Front {
		if !m.Feasible {
			t.Fatalf("front member %d marked infeasible", i)
		}
		if m.Utility > first.Utility {
			t.Fatalf("front member %d utility %v exceeds Front[0]'s %v: the scalarized-best member must come first", i, m.Utility, first.Utility)
		}
		if !req.Constraints.Satisfied(req.Properties, m.Aggregated) {
			t.Fatalf("front member %d violates the global constraints", i)
		}
		if n := ds.Violations(func(id string) (registry.Candidate, bool) {
			cc, ok := m.Assignment[id]
			return cc, ok
		}); n != 0 {
			t.Fatalf("front member %d violates %d dependency rules", i, n)
		}
		for j, o := range res.Front {
			if i == j {
				continue
			}
			if qos.DominatesOver(props, project(o.Aggregated), project(m.Aggregated)) {
				t.Fatalf("front member %d dominates member %d", j, i)
			}
		}
	}
}

// TestParetoSweepRegime forces the Pareto local search (exhaustive bound
// 1) and checks the front still satisfies every invariant — it may be a
// subset of the true front, but never an invalid one.
func TestParetoSweepRegime(t *testing.T) {
	ps := qos.StandardSet()
	laws := workload.DefaultLaws(ps)
	for seed := int64(1); seed <= 4; seed++ {
		g := workload.NewGenerator(seed)
		tk := g.Task("PS", 6, workload.ShapeMixed)
		cands := g.Candidates(tk, 10, ps, laws)
		stampProviders(cands)
		req := &Request{
			Task:         tk,
			Properties:   ps,
			Constraints:  g.Constraints(tk, ps, laws, workload.AtMeanPlusSigma, 2),
			Objectives:   []string{"responseTime", "price"},
			Dependencies: mixedDeps(6, 10),
		}
		res, err := NewSelector(Options{Workers: 1, ParetoMode: true, ParetoExhaustiveBound: 1}).Select(req, cands)
		if err != nil {
			t.Fatal(err)
		}
		checkFrontInvariants(t, req, res)
	}
}

// TestParetoObjectiveValidation covers the error paths: fewer than two
// objectives, unknown names, duplicates.
func TestParetoObjectiveValidation(t *testing.T) {
	ps := qos.StandardSet()
	laws := workload.DefaultLaws(ps)
	g := workload.NewGenerator(1)
	tk := g.Task("PE", 3, workload.ShapeLinear)
	cands := g.Candidates(tk, 3, ps, laws)
	sel := NewSelector(Options{Workers: 1, ParetoMode: true})

	_, err := sel.Select(&Request{Task: tk, Properties: ps, Objectives: []string{"price"}}, cands)
	if err == nil || !strings.Contains(err.Error(), "at least 2 objectives") {
		t.Fatalf("single objective: got %v", err)
	}
	_, err = sel.Select(&Request{Task: tk, Properties: ps, Objectives: []string{"price", "nope"}}, cands)
	if err == nil || !strings.Contains(err.Error(), "not in the property set") {
		t.Fatalf("unknown objective: got %v", err)
	}
	_, err = sel.Select(&Request{Task: tk, Properties: ps, Objectives: []string{"price", "price"}}, cands)
	if err == nil || !strings.Contains(err.Error(), "duplicate objective") {
		t.Fatalf("duplicate objective: got %v", err)
	}
	// Scalar mode ignores objectives entirely.
	if _, err := NewSelector(Options{Workers: 1}).Select(&Request{Task: tk, Properties: ps, Objectives: []string{"price", "availability"}}, cands); err != nil {
		t.Fatalf("scalar mode with objectives: %v", err)
	}
}

// TestParetoCloneDeepCopiesFront guards Result.Clone against aliasing
// the front members.
func TestParetoCloneDeepCopiesFront(t *testing.T) {
	ps := qos.StandardSet()
	laws := workload.DefaultLaws(ps)
	g := workload.NewGenerator(2)
	tk := g.Task("PC", 4, workload.ShapeLinear)
	cands := g.Candidates(tk, 3, ps, laws)
	req := &Request{Task: tk, Properties: ps, Objectives: []string{"responseTime", "price"}}
	res, err := NewSelector(Options{Workers: 1, ParetoMode: true}).Select(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Skip("no front to clone")
	}
	cl := res.Clone()
	if !reflect.DeepEqual(cl.Front, res.Front) {
		t.Fatal("clone front differs")
	}
	cl.Front[0].Aggregated[0] += 1
	if res.Front[0].Aggregated[0] == cl.Front[0].Aggregated[0] {
		t.Fatal("clone aliases the original front member's aggregate")
	}
}

// TestProbeVectorZeroAlloc pins the vector-probe hot path: re-assign +
// AggregateInto through a caller-owned buffer must not allocate, and the
// folded vector must be bit-identical to a full Aggregate.
func TestProbeVectorZeroAlloc(t *testing.T) {
	ps := qos.StandardSet()
	laws := workload.DefaultLaws(ps)
	g := workload.NewGenerator(6)
	tk := g.Task("PV", 6, workload.ShapeMixed)
	cands := g.Candidates(tk, 12, ps, laws)
	req := &Request{Task: tk, Properties: ps}
	eval, err := NewEvaluator(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEvalEngine(eval, cands)
	if err != nil {
		t.Fatal(err)
	}
	buf := make(qos.Vector, ps.Len())
	n := eng.Activities()
	step := 0
	avg := testing.AllocsPerRun(200, func() {
		a := step % n
		k := step % eng.PoolSize(a)
		step++
		eng.ProbeVector(a, k, buf)
	})
	if avg != 0 {
		t.Errorf("ProbeVector allocates %.2f/op, want 0", avg)
	}
	// Correctness: the buffer holds exactly what Aggregate reports.
	for a := 0; a < n; a++ {
		got := eng.ProbeVector(a, (a+1)%eng.PoolSize(a), buf)
		want := eng.Aggregate()
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("ProbeVector[%d] = %v, Aggregate = %v", j, got[j], want[j])
			}
		}
	}
}
