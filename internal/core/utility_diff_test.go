package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/workload"
)

// referenceSelect is SelectReusing with the evaluator built by
// NewEvaluator over the admissible pools, so the engine scores every
// candidate through its own normalizers instead of reading the local
// phase's utilities.
func referenceSelect(s *Selector, req *Request, cands map[string][]registry.Candidate, known map[string]*LocalResult) (*Result, error) {
	if len(req.Local) > 0 || s.opts.PruneDominated {
		known = nil
	}
	cands, err := FilterLocal(req, cands)
	if err != nil {
		return nil, err
	}
	eval, err := NewEvaluator(req, cands)
	if err != nil {
		return nil, err
	}
	if s.opts.PruneDominated {
		cands = pruneDominated(req.Properties, cands)
	}
	opts := s.opts.withDefaults()
	locals, _, err := runLocalPhase(context.Background(), req.Task.Activities(), cands, known, req.Properties, req.weights(), opts)
	if err != nil {
		return nil, err
	}
	return s.selectGlobal(context.Background(), req, eval, locals, opts)
}

// utilityPools draws generated pools and then makes them awkward:
// repeated vectors under distinct IDs, a column that is constant over
// one activity's pool (every score 1) and a one-candidate pool.
func utilityPools(rng *rand.Rand, gen *workload.Generator, req *Request, n int) map[string][]registry.Candidate {
	ps := req.Properties
	cands := gen.Candidates(req.Task, n, ps, workload.DefaultLaws(ps))
	for _, a := range req.Task.Activities() {
		list := cands[a.ID]
		for k := 1; k < len(list); k++ {
			if rng.Intn(3) == 0 {
				list[k].Vector = list[rng.Intn(k)].Vector.Clone()
			}
		}
		switch rng.Intn(4) {
		case 0:
			j, x := rng.Intn(ps.Len()), list[0].Vector[rng.Intn(ps.Len())]
			for k := range list {
				list[k].Vector[j] = x
			}
		case 1:
			cands[a.ID] = list[:1]
		}
	}
	return cands
}

// localConstraints bounds one property of one activity at its pool's
// median, so about half of that pool stays admissible.
func localConstraints(rng *rand.Rand, req *Request, cands map[string][]registry.Candidate) map[string]qos.Constraints {
	acts := req.Task.Activities()
	id := acts[rng.Intn(len(acts))].ID
	j := rng.Intn(req.Properties.Len())
	vals := make([]float64, len(cands[id]))
	for k, c := range cands[id] {
		vals[k] = c.Vector[j]
	}
	sort.Float64s(vals)
	p := req.Properties.At(j)
	bound := vals[len(vals)/2]
	if p.Direction == qos.Maximized {
		bound = vals[(len(vals)-1)/2]
	}
	return map[string]qos.Constraints{id: {{Property: p.Name, Bound: bound}}}
}

// TestDifferentialLocalUtilities holds the global phase's reuse of the
// local phase's normalizers and utilities to an independent scoring.
// Every ranked utility must equal, bit for bit, what NewEvaluator over
// the pool the local phase saw scores for that candidate; and every
// SelectReusing decision must equal the reference that builds its
// evaluator with NewEvaluator. Pools carry repeated vectors and
// constant columns; requests carry local constraints and non-uniform
// weights; selections run with memo-supplied known results (with and
// without their normalizers), with PruneDominated and on both
// evaluation kernels.
func TestDifferentialLocalUtilities(t *testing.T) {
	ps := qos.StandardSet()
	laws := workload.DefaultLaws(ps)
	shapes := []workload.TaskShape{workload.ShapeLinear, workload.ShapeMixed, workload.ShapeChoiceHeavy}
	var cov struct{ constrained, weighted, known, pruned int }
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gen := workload.NewGenerator(seed)
		tk := gen.Task("U", 3+rng.Intn(4), shapes[seed%int64(len(shapes))])
		req := &Request{Task: tk, Properties: ps, Approach: qos.Approaches()[seed%3]}
		cands := utilityPools(rng, gen, req, 5+rng.Intn(20))
		req.Constraints = gen.Constraints(tk, ps, laws, workload.AtMean, 1+rng.Intn(3))
		if seed%3 != 0 {
			req.Weights = make(qos.Weights, ps.Len())
			for j := range req.Weights {
				req.Weights[j] = 0.05 + rng.Float64()
			}
			cov.weighted++
		}
		if seed%4 == 1 {
			req.Local = localConstraints(rng, req, cands)
			cov.constrained++
		}
		for _, prune := range []bool{false, true} {
			for _, naive := range []bool{false, true} {
				label := fmt.Sprintf("seed %d prune=%v naive=%v", seed, prune, naive)
				sel := NewSelector(Options{Workers: 2, PruneDominated: prune, NaiveEvaluation: naive})
				res, locals, err := sel.SelectReusing(context.Background(), req, cands, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkLocalUtilities(t, label, req, cands, prune, locals)
				want, err := referenceSelect(sel, req, cands, nil)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				sameDecision(t, want, res)
				if prune {
					cov.pruned++
				}

				// The memo's route: some or all activities supplied, and
				// supplied results that carry no normalizer (built outside
				// the local phase), which the evaluator and the engine
				// must score themselves.
				for _, every := range []int{1, 2, -1} {
					known := make(map[string]*LocalResult)
					for i, a := range tk.Activities() {
						switch {
						case every < 0:
							known[a.ID] = &LocalResult{Ranked: locals[a.ID].Ranked, Levels: locals[a.ID].Levels}
						case i%every == 0:
							known[a.ID] = locals[a.ID]
						}
					}
					got, again, err := sel.SelectReusing(context.Background(), req, cands, known)
					if err != nil {
						t.Fatalf("%s known/%d: %v", label, every, err)
					}
					checkLocalUtilities(t, label, req, cands, prune, again)
					want, err := referenceSelect(sel, req, cands, known)
					if err != nil {
						t.Fatalf("%s known/%d: reference: %v", label, every, err)
					}
					sameDecision(t, want, got)
					sameDecision(t, res, got)
					if !prune && len(req.Local) == 0 {
						cov.known++
					}
				}
			}
		}
	}
	if cov.constrained == 0 || cov.weighted == 0 || cov.known == 0 || cov.pruned == 0 {
		t.Fatalf("a regime went unexercised: %+v", cov)
	}
}

// checkLocalUtilities scores every ranked candidate with NewEvaluator
// over the pools the local phase saw (filtered by the local
// constraints, pruned under PruneDominated) and requires the ranked
// utility to carry the same bits.
func checkLocalUtilities(t *testing.T, label string, req *Request, cands map[string][]registry.Candidate,
	prune bool, locals map[string]*LocalResult) {
	t.Helper()
	seen, err := FilterLocal(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	if prune {
		seen = pruneDominated(req.Properties, seen)
	}
	eval, err := NewEvaluator(req, seen)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range req.Task.Activities() {
		for k := range locals[a.ID].Ranked {
			rc := &locals[a.ID].Ranked[k]
			if want := eval.CandidateUtility(a.ID, rc.Candidate()); math.Float64bits(rc.Utility) != math.Float64bits(want) {
				t.Fatalf("%s: activity %s candidate %s: ranked utility %v, NewEvaluator scores %v",
					label, a.ID, rc.Service.ID, rc.Utility, want)
			}
		}
	}
}
