package core

import (
	"testing"

	"qasom/internal/qos"
	"qasom/internal/workload"
)

// TestSelectInvariantsRandomized checks QASSA's structural invariants on
// randomized workloads across shapes, tightness settings, approaches and
// option combinations:
//
//   - the assignment covers exactly the task's activities
//   - every assigned/alternate service comes from the activity's pool
//   - Feasible ⇔ (Violation == 0) ⇔ constraints hold on Aggregated
//   - the utility is in [0,1]
//   - alternates never duplicate the chosen service
//   - local constraints are never violated by chosen or alternate services
func TestSelectInvariantsRandomized(t *testing.T) {
	ps := qos.StandardSet()
	laws := workload.DefaultLaws(ps)
	shapes := []workload.TaskShape{workload.ShapeLinear, workload.ShapeMixed, workload.ShapeChoiceHeavy}
	tights := []workload.Tightness{workload.AtMean, workload.AtMeanPlusSigma}
	approaches := qos.Approaches()
	optVariants := []Options{
		{},
		{K: 2},
		{FlatGlobal: true},
		{PruneDominated: true},
		{K: 6, PruneDominated: true},
	}

	run := 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, shape := range shapes {
			for _, tight := range tights {
				g := workload.NewGenerator(seed)
				tk := g.Task("R", 6, shape)
				cands := g.Candidates(tk, 12, ps, laws)
				req := &Request{
					Task:        tk,
					Properties:  ps,
					Constraints: g.Constraints(tk, ps, laws, tight, 3),
					Approach:    approaches[run%len(approaches)],
				}
				opts := optVariants[run%len(optVariants)]
				run++

				res, err := NewSelector(opts).Select(req, cands)
				if err != nil {
					t.Fatalf("seed %d shape %d tight %v: %v", seed, shape, tight, err)
				}

				// Coverage.
				if len(res.Assignment) != tk.Size() {
					t.Fatalf("assignment covers %d of %d activities", len(res.Assignment), tk.Size())
				}
				pools := make(map[string]map[string]bool, len(cands))
				for id, list := range cands {
					pools[id] = make(map[string]bool, len(list))
					for _, c := range list {
						pools[id][string(c.Service.ID)] = true
					}
				}
				for _, a := range tk.Activities() {
					chosen, ok := res.Assignment[a.ID]
					if !ok {
						t.Fatalf("activity %s unassigned", a.ID)
					}
					if !pools[a.ID][string(chosen.Service.ID)] {
						t.Fatalf("activity %s assigned foreign service %s", a.ID, chosen.Service.ID)
					}
					for _, alt := range res.Alternates()[a.ID] {
						if !pools[a.ID][string(alt.Service.ID)] {
							t.Fatalf("activity %s alternate %s not in pool", a.ID, alt.Service.ID)
						}
						if alt.Service.ID == chosen.Service.ID {
							t.Fatalf("activity %s alternate duplicates the chosen service", a.ID)
						}
					}
				}

				// Consistency of feasibility reporting.
				holds := req.Constraints.Satisfied(req.Properties, res.Aggregated)
				if res.Feasible != holds {
					t.Fatalf("Feasible=%v but constraints hold=%v (agg %v vs %s)",
						res.Feasible, holds, res.Aggregated, req.Constraints)
				}
				if (res.Violation == 0) != res.Feasible {
					t.Fatalf("Violation %g inconsistent with Feasible=%v", res.Violation, res.Feasible)
				}
				if res.Utility < 0 || res.Utility > 1 {
					t.Fatalf("utility %g outside [0,1]", res.Utility)
				}
			}
		}
	}
}

// TestSelectLocalConstraintInvariant adds local constraints on top of
// the randomized sweep and checks they hold for chosen and alternate
// services alike.
func TestSelectLocalConstraintInvariant(t *testing.T) {
	ps := qos.StandardSet()
	laws := workload.DefaultLaws(ps)
	for seed := int64(1); seed <= 5; seed++ {
		g := workload.NewGenerator(seed)
		tk := g.Task("L", 5, workload.ShapeMixed)
		cands := g.Candidates(tk, 15, ps, laws)
		first := tk.Activities()[0].ID
		req := &Request{
			Task:       tk,
			Properties: ps,
			Local: map[string]qos.Constraints{
				first: {{Property: "responseTime", Bound: 60}},
			},
		}
		res, err := NewSelector(Options{}).Select(req, cands)
		if err != nil {
			// The local constraint may genuinely be unsatisfiable for this
			// seed; that is a legal outcome, not an invariant violation.
			continue
		}
		if got := res.Assignment[first].Vector[0]; got > 60 {
			t.Fatalf("seed %d: chosen service violates local constraint (rt %g)", seed, got)
		}
		for _, alt := range res.Alternates()[first] {
			if alt.Vector[0] > 60 {
				t.Fatalf("seed %d: alternate violates local constraint (rt %g)", seed, alt.Vector[0])
			}
		}
	}
}
