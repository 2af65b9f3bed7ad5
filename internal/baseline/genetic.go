package baseline

import (
	"math"
	"math/rand"
	"sort"

	"qasom/internal/core"
	"qasom/internal/registry"
)

// Fixed parameters of the genetic-algorithm baseline.
const (
	// gaPopulation is the population size.
	gaPopulation = 40
	// gaCrossoverRate is the single-point crossover probability.
	gaCrossoverRate = 0.8
	// gaMutationRate is the per-gene mutation probability.
	gaMutationRate = 0.1
	// gaElite is the number of individuals copied unchanged per
	// generation.
	gaElite = 2
)

// GeneticOptions tune the genetic-algorithm baseline (after Canfora et
// al., the classic metaheuristic for QoS-aware selection the thesis's
// related work surveys).
type GeneticOptions struct {
	// Generations; 0 means 60.
	Generations int
	// Penalty scales constraint violation in the fitness; 0 means 10.
	Penalty float64
	// Seed drives the randomness; 0 means 1.
	Seed int64
}

func (o GeneticOptions) withDefaults() GeneticOptions {
	if o.Generations <= 0 {
		o.Generations = 60
	}
	if o.Penalty == 0 {
		o.Penalty = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Genetic runs a penalty-fitness genetic algorithm: chromosomes are
// per-activity candidate indices, tournament selection, single-point
// crossover, per-gene mutation, elitism. Fitness probes go through the
// incremental evaluation engine — loading a chromosome re-folds only
// the leaves that differ from the previous individual, and no per-
// evaluation assignment map is built.
func Genetic(req *core.Request, candidates map[string][]registry.Candidate, opts GeneticOptions) (*core.Result, error) {
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
	o := opts.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed))
	acts := req.Task.Activities()
	n := len(acts)
	pools := make([][]registry.Candidate, n)
	for i, a := range acts {
		pools[i] = candidates[a.ID]
	}

	evaluations := 0
	toAssign := func(genes []int) core.Assignment {
		assign := make(core.Assignment, n)
		for i, g := range genes {
			assign[acts[i].ID] = pools[i][g]
		}
		return assign
	}
	fitness := func(genes []int) float64 {
		evaluations++
		for i, g := range genes {
			eng.Assign(i, g)
		}
		return eng.Utility() - o.Penalty*eng.Violation()
	}

	type individual struct {
		genes []int
		fit   float64
	}
	pop := make([]individual, gaPopulation)
	for p := range pop {
		genes := make([]int, n)
		for i := range genes {
			genes[i] = rng.Intn(len(pools[i]))
		}
		pop[p] = individual{genes: genes, fit: fitness(genes)}
	}
	byFitness := func() {
		sort.SliceStable(pop, func(a, b int) bool { return pop[a].fit > pop[b].fit })
	}
	byFitness()

	tournament := func() individual {
		best := pop[rng.Intn(len(pop))]
		for k := 0; k < 2; k++ {
			if c := pop[rng.Intn(len(pop))]; c.fit > best.fit {
				best = c
			}
		}
		return best
	}

	for gen := 0; gen < o.Generations; gen++ {
		next := make([]individual, 0, gaPopulation)
		for e := 0; e < gaElite && e < len(pop); e++ {
			elite := individual{genes: append([]int(nil), pop[e].genes...), fit: pop[e].fit}
			next = append(next, elite)
		}
		for len(next) < gaPopulation {
			a, b := tournament(), tournament()
			child := append([]int(nil), a.genes...)
			if rng.Float64() < gaCrossoverRate && n > 1 {
				cut := 1 + rng.Intn(n-1)
				copy(child[cut:], b.genes[cut:])
			}
			for i := range child {
				if rng.Float64() < gaMutationRate {
					child[i] = rng.Intn(len(pools[i]))
				}
			}
			next = append(next, individual{genes: child, fit: fitness(child)})
		}
		pop = next
		byFitness()
	}

	best := toAssign(pop[0].genes)
	res := finalize(eval, best, eval.Feasible(best), evaluations)
	return res, nil
}

// BranchAndBound is an exact solver that scales further than the plain
// exhaustive search: it orders each activity's candidates by utility and
// prunes any partial assignment whose utility upper bound (achieved
// utility so far + per-activity maxima for the rest) cannot beat the
// incumbent. Results are identical to Exhaustive; only the visit order
// and the pruning differ. Leaf feasibility checks probe through the
// incremental engine built over the utility-sorted pools, so each leaf
// costs one path re-fold instead of a full re-aggregation.
func BranchAndBound(req *core.Request, candidates map[string][]registry.Candidate) (*core.Result, error) {
	candidates, err := filterLocal(req, candidates)
	if err != nil {
		return nil, err
	}
	eval, err := core.NewEvaluator(req, candidates)
	if err != nil {
		return nil, err
	}
	acts := req.Task.Activities()
	n := len(acts)

	// Per-activity candidate utilities, sorted descending so good
	// branches are explored first and bounds tighten quickly.
	type scored struct {
		cand registry.Candidate
		util float64
	}
	pools := make([][]scored, n)
	maxUtil := make([]float64, n)
	sorted := make(map[string][]registry.Candidate, n)
	for i, a := range acts {
		list := candidates[a.ID]
		pool := make([]scored, len(list))
		for k, c := range list {
			pool[k] = scored{cand: c, util: eval.CandidateUtility(a.ID, c)}
		}
		sort.SliceStable(pool, func(x, y int) bool { return pool[x].util > pool[y].util })
		pools[i] = pool
		if len(pool) > 0 {
			maxUtil[i] = pool[0].util
		}
		ordered := make([]registry.Candidate, len(pool))
		for k := range pool {
			ordered[k] = pool[k].cand
		}
		sorted[a.ID] = ordered
	}
	eng, err := core.NewEvalEngine(eval, sorted)
	if err != nil {
		return nil, err
	}
	// Suffix sums of the best attainable utility from activity i on.
	suffix := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + maxUtil[i]
	}

	var bestFeasible []int
	bestUtility := math.Inf(-1)
	var bestInfeasible []int
	bestViolation := math.Inf(1)
	evaluations := 0

	var rec func(i int, acc float64)
	rec = func(i int, acc float64) {
		if bestFeasible != nil && (acc+suffix[i])/float64(n) <= bestUtility {
			return // even perfect completions cannot beat the incumbent
		}
		if i == n {
			evaluations++
			v := eng.Violation()
			if v == 0 {
				if u := acc / float64(n); u > bestUtility {
					bestUtility = u
					bestFeasible = eng.Snapshot(bestFeasible)
				}
			} else if bestFeasible == nil && v < bestViolation {
				bestViolation = v
				bestInfeasible = eng.Snapshot(bestInfeasible)
			}
			return
		}
		for k, s := range pools[i] {
			eng.Assign(i, k)
			rec(i+1, acc+s.util)
		}
	}
	rec(0, 0)

	chosen := bestFeasible
	feasible := true
	if chosen == nil {
		chosen = bestInfeasible
		feasible = false
	}
	return finalize(eval, assignmentOf(eng, chosen), feasible, evaluations), nil
}
