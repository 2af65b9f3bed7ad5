// Package baseline implements the comparison algorithms for QASSA's
// evaluation: the exhaustive optimal search (the reference for the
// optimality measurements of Figs. VI.6, VI.8 and VI.11), the greedy
// per-activity selection the thesis's introduction discusses, and a
// random-restart local search. All baselines share QASSA's Evaluator, so
// utilities and feasibility are strictly comparable.
package baseline

import (
	"fmt"
	"math"
	"math/rand"

	"qasom/internal/core"
	"qasom/internal/qos"
	"qasom/internal/registry"
)

// ErrTooLarge is returned when the exhaustive search space exceeds the
// configured bound.
var ErrTooLarge = fmt.Errorf("baseline: search space exceeds the exhaustive bound")

// ExhaustiveOptions bound the exhaustive search.
type ExhaustiveOptions struct {
	// MaxCombinations aborts the search when the full product exceeds
	// this bound; 0 means 20 million.
	MaxCombinations int
}

// Exhaustive enumerates every composition and returns the
// maximum-utility feasible one; when no composition is feasible it
// returns the minimum-violation one with Feasible=false. It is exact but
// exponential (ℓ^n) — the evaluation uses it only on small instances.
// Enumeration probes through the incremental core.EvalEngine: advancing
// one activity's candidate re-folds only that leaf's path, so a leaf
// visit costs O(depth·p) instead of a full O(n·p) re-aggregation plus a
// fresh assignment map.
func Exhaustive(req *core.Request, candidates map[string][]registry.Candidate, opts ExhaustiveOptions) (*core.Result, error) {
	candidates, err := filterLocal(req, candidates)
	if err != nil {
		return nil, err
	}
	eval, err := core.NewEvaluator(req, candidates)
	if err != nil {
		return nil, err
	}
	if opts.MaxCombinations <= 0 {
		opts.MaxCombinations = 20_000_000
	}
	acts := req.Task.Activities()
	total := 1
	for _, a := range acts {
		n := len(candidates[a.ID])
		if n == 0 {
			return nil, fmt.Errorf("baseline: activity %q has no candidates", a.ID)
		}
		if total > opts.MaxCombinations/n {
			return nil, fmt.Errorf("%w: >%d combinations", ErrTooLarge, opts.MaxCombinations)
		}
		total *= n
	}
	eng, err := core.NewEvalEngine(eval, candidates)
	if err != nil {
		return nil, err
	}
	deps, err := depCounter(req, eng)
	if err != nil {
		return nil, err
	}

	n := len(acts)
	var bestFeasible []int
	bestUtility := math.Inf(-1)
	var bestInfeasible []int
	bestViolation := math.Inf(1)
	evaluations := 0

	var rec func(i int)
	rec = func(i int) {
		if i == n {
			evaluations++
			v := eng.Violation()
			if deps != nil {
				v += float64(deps())
			}
			if v == 0 {
				if u := eng.Utility(); u > bestUtility {
					bestUtility = u
					bestFeasible = eng.Snapshot(bestFeasible)
				}
			} else if bestFeasible == nil && v < bestViolation {
				bestViolation = v
				bestInfeasible = eng.Snapshot(bestInfeasible)
			}
			return
		}
		for k := 0; k < eng.PoolSize(i); k++ {
			eng.Assign(i, k)
			rec(i + 1)
		}
	}
	rec(0)

	chosen := bestFeasible
	feasible := true
	if chosen == nil {
		chosen = bestInfeasible
		feasible = false
	}
	res := finalize(eval, assignmentOf(eng, chosen), feasible, evaluations)
	if deps != nil {
		// Match the core's combined semantics: one violation unit per
		// violated dependency rule on top of the QoS excess.
		eng.Load(chosen)
		res.Violation = eng.Violation() + float64(deps())
	}
	return res, nil
}

// depCounter compiles the request's dependency rules and returns a
// closure counting the rule violations of the engine's CURRENT
// assignment (nil when the request declares no rules). Baselines count
// a dependency-violating composition as infeasible, exactly like the
// QASSA global phase, so optimality ratios stay comparable.
func depCounter(req *core.Request, eng *core.EvalEngine) (func() int, error) {
	ds, err := req.CompiledDependencies()
	if err != nil {
		return nil, err
	}
	if ds == nil {
		return nil, nil
	}
	idx := make(map[string]int, eng.Activities())
	for a := 0; a < eng.Activities(); a++ {
		idx[eng.ActivityID(a)] = a
	}
	bound := func(id string) (registry.Candidate, bool) {
		a, ok := idx[id]
		if !ok {
			return registry.Candidate{}, false
		}
		return eng.Candidate(a, eng.Current(a)), true
	}
	return func() int { return ds.Violations(bound) }, nil
}

// ExhaustiveFront enumerates every composition and returns the EXACT
// non-dominated front of the feasible ones over the request's effective
// objectives — the reference the Pareto-front selection mode is
// differentially tested against (set equality on aggregated vectors).
// Entries are slim results (assignment, aggregated QoS, utility, no
// alternates) in archive insertion order; exact-duplicate objective
// vectors keep the first composition encountered, mirroring
// qos.ParetoFront. Dependency rules make a composition infeasible
// exactly as in Exhaustive.
func ExhaustiveFront(req *core.Request, candidates map[string][]registry.Candidate, opts ExhaustiveOptions) ([]core.Result, error) {
	candidates, err := filterLocal(req, candidates)
	if err != nil {
		return nil, err
	}
	eval, err := core.NewEvaluator(req, candidates)
	if err != nil {
		return nil, err
	}
	objIdx := req.EffectiveObjectives()
	if len(objIdx) < 2 {
		return nil, fmt.Errorf("baseline: Pareto front needs at least 2 objectives, got %d", len(objIdx))
	}
	if opts.MaxCombinations <= 0 {
		opts.MaxCombinations = 20_000_000
	}
	acts := req.Task.Activities()
	total := 1
	for _, a := range acts {
		n := len(candidates[a.ID])
		if n == 0 {
			return nil, fmt.Errorf("baseline: activity %q has no candidates", a.ID)
		}
		if total > opts.MaxCombinations/n {
			return nil, fmt.Errorf("%w: >%d combinations", ErrTooLarge, opts.MaxCombinations)
		}
		total *= n
	}
	eng, err := core.NewEvalEngine(eval, candidates)
	if err != nil {
		return nil, err
	}
	deps, err := depCounter(req, eng)
	if err != nil {
		return nil, err
	}
	props := make([]*qos.Property, len(objIdx))
	for i, j := range objIdx {
		props[i] = req.Properties.At(j)
	}
	arch := qos.NewArchive(props)
	snaps := make(map[int][]int)
	nextID := 0
	aggBuf := make(qos.Vector, req.Properties.Len())
	objBuf := make(qos.Vector, len(objIdx))

	n := len(acts)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if eng.Violation() != 0 || (deps != nil && deps() != 0) {
				return
			}
			agg := eng.AggregateInto(aggBuf)
			for x, j := range objIdx {
				objBuf[x] = agg[j]
			}
			if arch.Dominated(objBuf) {
				return
			}
			obj := append(qos.Vector(nil), objBuf...)
			inserted, removed := arch.Insert(obj, nextID)
			if !inserted {
				return
			}
			snaps[nextID] = eng.Snapshot(nil)
			nextID++
			for _, rid := range removed {
				delete(snaps, rid)
			}
			return
		}
		for k := 0; k < eng.PoolSize(i); k++ {
			eng.Assign(i, k)
			rec(i + 1)
		}
	}
	rec(0)

	pts := arch.Points()
	front := make([]core.Result, len(pts))
	for i, pt := range pts {
		snap := snaps[pt.ID]
		eng.Load(snap)
		front[i] = core.Result{
			Assignment: assignmentOf(eng, snap),
			Aggregated: eng.Aggregate(),
			Utility:    eng.Utility(),
			Feasible:   true,
		}
	}
	return front, nil
}

// assignmentOf materialises a per-activity candidate-index snapshot as
// the Assignment map the rest of the system consumes.
func assignmentOf(eng *core.EvalEngine, idx []int) core.Assignment {
	out := make(core.Assignment, len(idx))
	for a, k := range idx {
		out[eng.ActivityID(a)] = eng.Candidate(a, k)
	}
	return out
}

// Greedy picks, independently for every activity, the highest-utility
// candidate — the low-cost strategy the thesis contrasts with global
// selection: it ignores the global constraints entirely, so the result
// may be infeasible.
func Greedy(req *core.Request, candidates map[string][]registry.Candidate) (*core.Result, error) {
	candidates, err := filterLocal(req, candidates)
	if err != nil {
		return nil, err
	}
	eval, err := core.NewEvaluator(req, candidates)
	if err != nil {
		return nil, err
	}
	acts := req.Task.Activities()
	assign := make(core.Assignment, len(acts))
	evaluations := 0
	for _, a := range acts {
		best := candidates[a.ID][0]
		bestU := eval.CandidateUtility(a.ID, best)
		for _, c := range candidates[a.ID][1:] {
			evaluations++
			if u := eval.CandidateUtility(a.ID, c); u > bestU {
				best, bestU = c, u
			}
		}
		assign[a.ID] = best
	}
	return finalize(eval, assign, eval.Feasible(assign), evaluations), nil
}

// Fixed parameters of the random-restart local search.
const (
	// lsRestarts is the number of random starting assignments.
	lsRestarts = 10
	// lsMaxMoves bounds hill-climbing moves per restart.
	lsMaxMoves = 200
)

// LocalSearchOptions tune the random-restart local search.
type LocalSearchOptions struct {
	// Penalty scales constraint violation against utility in the
	// objective; 0 means 10.
	Penalty float64
	// Seed drives the randomness; 0 means 1.
	Seed int64
}

// LocalSearch runs a penalty-objective hill climb from random starts:
// objective = utility − Penalty·violation, moves are single-activity
// swaps, each probed incrementally through the shared evaluation
// engine. A simple metaheuristic baseline between greedy and exhaustive.
func LocalSearch(req *core.Request, candidates map[string][]registry.Candidate, opts LocalSearchOptions) (*core.Result, error) {
	candidates, err := filterLocal(req, candidates)
	if err != nil {
		return nil, err
	}
	eval, err := core.NewEvaluator(req, candidates)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEvalEngine(eval, candidates)
	if err != nil {
		return nil, err
	}
	if opts.Penalty == 0 {
		opts.Penalty = 10
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	n := eng.Activities()

	objective := func() float64 {
		return eng.Utility() - opts.Penalty*eng.Violation()
	}

	var best []int
	bestObj := math.Inf(-1)
	evaluations := 0

	for r := 0; r < lsRestarts; r++ {
		for a := 0; a < n; a++ {
			eng.Assign(a, rng.Intn(eng.PoolSize(a)))
		}
		cur := objective()
		evaluations++
		for move := 0; move < lsMaxMoves; move++ {
			improved := false
			for a := 0; a < n; a++ {
				prev := eng.Current(a)
				for k := 0; k < eng.PoolSize(a); k++ {
					if eng.Candidate(a, k).Service.ID == eng.Candidate(a, prev).Service.ID {
						continue
					}
					eng.Assign(a, k)
					evaluations++
					if obj := objective(); obj > cur {
						cur = obj
						prev = k
						improved = true
					} else {
						eng.Assign(a, prev)
					}
				}
				eng.Assign(a, prev)
			}
			if !improved {
				break
			}
		}
		if cur > bestObj {
			bestObj = cur
			best = eng.Snapshot(best)
		}
	}
	assign := assignmentOf(eng, best)
	return finalize(eval, assign, eval.Feasible(assign), evaluations), nil
}

func finalize(eval *core.Evaluator, assign core.Assignment, feasible bool, evaluations int) *core.Result {
	res := &core.Result{
		Assignment: assign,
		Aggregated: eval.Aggregate(assign),
		Utility:    eval.Utility(assign),
		Feasible:   feasible,
		Violation:  eval.Violation(assign),
		Stats:      core.Stats{Evaluations: evaluations},
	}
	res.SetAlternates(map[string][]registry.Candidate{})
	return res
}

// filterLocal enforces the request's local constraints so baselines and
// QASSA search the same candidate space.
func filterLocal(req *core.Request, candidates map[string][]registry.Candidate) (map[string][]registry.Candidate, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return core.FilterLocal(req, candidates)
}
