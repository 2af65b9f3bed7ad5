package baseline

import (
	"errors"
	"fmt"
	"testing"

	"qasom/internal/core"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/semantics"
	"qasom/internal/task"
	"qasom/internal/workload"
)

func twoProps() *qos.PropertySet {
	return qos.MustNewPropertySet(
		&qos.Property{Name: "rt", Concept: semantics.ResponseTime, Direction: qos.Minimized, Kind: qos.KindTime, Unit: qos.Milliseconds},
		&qos.Property{Name: "avail", Concept: semantics.Availability, Direction: qos.Maximized, Kind: qos.KindProbability, Unit: qos.Ratio},
	)
}

func cand(id string, vals ...float64) registry.Candidate {
	return registry.Candidate{
		Service: &registry.Description{ID: registry.ServiceID(id), Concept: "C"},
		Vector:  qos.Vector(vals),
	}
}

func seqTask(ids ...string) *task.Task {
	nodes := make([]*task.Node, len(ids))
	for i, id := range ids {
		nodes[i] = task.NewActivity(&task.Activity{ID: id, Concept: "C"})
	}
	root := task.Sequence(nodes...)
	if len(nodes) == 1 {
		root = nodes[0]
	}
	return &task.Task{Name: "t", Concept: "C", Root: root}
}

// tinyInstance is small enough to verify the exhaustive optimum by hand:
// activities a and b, two candidates each.
//
//	a1: rt 100, avail 0.99    a2: rt 10, avail 0.90
//	b1: rt 100, avail 0.99    b2: rt 10, avail 0.90
//
// Constraint rt ≤ 120 forbids (a1,b1); the best feasible utility picks
// one fast and one good service.
func tinyInstance() (*core.Request, map[string][]registry.Candidate) {
	req := &core.Request{
		Task:        seqTask("a", "b"),
		Properties:  twoProps(),
		Constraints: qos.Constraints{{Property: "rt", Bound: 120}},
	}
	cands := map[string][]registry.Candidate{
		"a": {cand("a1", 100, 0.99), cand("a2", 10, 0.90)},
		"b": {cand("b1", 100, 0.99), cand("b2", 10, 0.90)},
	}
	return req, cands
}

func TestExhaustiveFindsOptimum(t *testing.T) {
	req, cands := tinyInstance()
	res, err := Exhaustive(req, cands, ExhaustiveOptions{})
	if err != nil {
		t.Fatalf("Exhaustive: %v", err)
	}
	if !res.Feasible {
		t.Fatal("feasible composition exists")
	}
	// (a1,b1) has rt 200 — infeasible. The three feasible combos have
	// utility 0.5 (one of each) or 0 (both fast): optimum picks mixed.
	ids := []string{string(res.Assignment["a"].Service.ID), string(res.Assignment["b"].Service.ID)}
	if !(ids[0] == "a1" && ids[1] == "b2") && !(ids[0] == "a2" && ids[1] == "b1") {
		t.Errorf("optimum should mix fast and good: got %v (utility %g)", ids, res.Utility)
	}
	if res.Aggregated[0] > 120 {
		t.Errorf("optimum violates constraint: %v", res.Aggregated)
	}
}

func TestExhaustiveInfeasible(t *testing.T) {
	req, cands := tinyInstance()
	req.Constraints = qos.Constraints{{Property: "rt", Bound: 5}}
	res, err := Exhaustive(req, cands, ExhaustiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("nothing satisfies rt ≤ 5")
	}
	// Minimum violation = both fast services (rt 20).
	if res.Aggregated[0] != 20 {
		t.Errorf("min violation composition should have rt 20, got %g", res.Aggregated[0])
	}
}

func TestExhaustiveTooLarge(t *testing.T) {
	tk := seqTask("a", "b", "c", "d", "e", "f")
	cands := make(map[string][]registry.Candidate)
	for _, a := range tk.Activities() {
		list := make([]registry.Candidate, 50)
		for i := range list {
			list[i] = cand(fmt.Sprintf("%s-%d", a.ID, i), float64(i+1), 0.9)
		}
		cands[a.ID] = list
	}
	req := &core.Request{Task: tk, Properties: twoProps()}
	_, err := Exhaustive(req, cands, ExhaustiveOptions{MaxCombinations: 1000})
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("expected ErrTooLarge, got %v", err)
	}
}

func TestGreedyIgnoresConstraints(t *testing.T) {
	req, cands := tinyInstance()
	// Weight availability heavily: greedy picks a1 and b1 → infeasible.
	req.Weights = qos.Weights{0.01, 0.99}
	res, err := Greedy(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment["a"].Service.ID != "a1" || res.Assignment["b"].Service.ID != "b1" {
		t.Errorf("greedy should pick per-activity best: %v", res.Assignment)
	}
	if res.Feasible {
		t.Error("greedy result should be infeasible here")
	}
	if res.Violation <= 0 {
		t.Error("violation should be reported")
	}
}

func TestGreedyFeasibleWhenUnconstrained(t *testing.T) {
	req, cands := tinyInstance()
	req.Constraints = nil
	res, err := Greedy(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Error("unconstrained greedy should be feasible")
	}
}

func TestLocalSearchFindsFeasible(t *testing.T) {
	req, cands := tinyInstance()
	res, err := LocalSearch(req, cands, LocalSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Errorf("local search should find a feasible composition, got violation %g", res.Violation)
	}
}

func TestQASSAOptimalityAgainstExhaustive(t *testing.T) {
	// The headline property of the thesis: QASSA's utility stays close
	// to the exhaustive optimum on realistic workloads. We require ≥85%
	// on every seed and ≥92% on average (the thesis reports >90%).
	ps := qos.StandardSet()
	laws := workload.DefaultLaws(ps)
	sumRatio, runs := 0.0, 0
	for seed := int64(1); seed <= 8; seed++ {
		g := workload.NewGenerator(seed)
		tk := g.Task("T", 5, workload.ShapeMixed)
		cands := g.Candidates(tk, 10, ps, laws)
		req := &core.Request{
			Task:        tk,
			Properties:  ps,
			Constraints: g.Constraints(tk, ps, laws, workload.AtMeanPlusSigma, 3),
		}
		opt, err := Exhaustive(req, cands, ExhaustiveOptions{})
		if err != nil {
			t.Fatalf("seed %d: exhaustive: %v", seed, err)
		}
		heur, err := core.NewSelector(core.Options{}).Select(req, cands)
		if err != nil {
			t.Fatalf("seed %d: qassa: %v", seed, err)
		}
		if opt.Feasible && !heur.Feasible {
			t.Errorf("seed %d: exhaustive feasible but QASSA not", seed)
			continue
		}
		if !opt.Feasible {
			continue // nothing to compare
		}
		ratio := heur.Utility / opt.Utility
		if ratio < 0.85 {
			t.Errorf("seed %d: optimality %.1f%% below 85%%", seed, 100*ratio)
		}
		sumRatio += ratio
		runs++
	}
	if runs > 0 && sumRatio/float64(runs) < 0.92 {
		t.Errorf("mean optimality %.1f%% below 92%%", 100*sumRatio/float64(runs))
	}
}

func TestQASSABeatsGreedyUnderConstraints(t *testing.T) {
	// Where greedy goes infeasible, QASSA should stay feasible.
	ps := qos.StandardSet()
	laws := workload.DefaultLaws(ps)
	wins := 0
	for seed := int64(1); seed <= 6; seed++ {
		g := workload.NewGenerator(seed)
		tk := g.Task("T", 6, workload.ShapeLinear)
		cands := g.Candidates(tk, 20, ps, laws)
		req := &core.Request{
			Task:        tk,
			Properties:  ps,
			Constraints: g.Constraints(tk, ps, laws, workload.AtMean, 3),
			// Skew preferences away from the constrained properties so
			// greedy picks constraint-hostile services.
			Weights: qos.Weights{0.05, 0.05, 0.3, 0.3, 0.3},
		}
		greedy, err := Greedy(req, cands)
		if err != nil {
			t.Fatal(err)
		}
		heur, err := core.NewSelector(core.Options{}).Select(req, cands)
		if err != nil {
			t.Fatal(err)
		}
		if heur.Feasible && !greedy.Feasible {
			wins++
		}
		if greedy.Feasible && !heur.Feasible {
			t.Errorf("seed %d: greedy feasible but QASSA infeasible", seed)
		}
	}
	if wins == 0 {
		t.Error("QASSA never out-performed greedy on feasibility across seeds; workload too easy to be meaningful")
	}
}
