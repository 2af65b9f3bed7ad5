package core

import (
	"context"
	"math"

	"qasom/internal/registry"
)

const (
	// repairPassesPerActivity bounds the violation-repair swaps per
	// level: 4× the activity count.
	repairPassesPerActivity = 4
	// improvePasses bounds the utility hill-climbing sweeps.
	improvePasses = 3
)

// globalState carries one global-phase run (§3.3): level-wise pool
// widening, constraint repair and utility hill-climbing. The context is
// checked at level-iteration and repair-pass boundaries so a cancelled
// selection returns promptly without leaving partial state behind.
//
// All probing goes through an evalKernel holding the one current
// assignment as dense candidate indices into each activity's full
// ranked shortlist: the incremental EvalEngine by default (O(path)
// swap probes, cached candidate utilities, zero allocations per probe),
// or the naive Evaluator route when Options.NaiveEvaluation asks for
// the reference path. Both produce bit-identical results (enforced by
// the differential tests), so the switch is a pure performance knob.
type globalState struct {
	ctx    context.Context
	req    *Request
	eval   *Evaluator
	locals map[string]*LocalResult
	opts   Options
	stats  Stats

	acts   []string            // dense activity index → ID, task order
	ranked [][]RankedCandidate // per activity: full ranked shortlist
	eng    evalKernel

	// depSet/deps carry the request's compiled dependency rules (nil when
	// none are declared — the scalar hot path is untouched then). deps is
	// the pool-bound form: per-probe admissibility and violation checks
	// over pool-index bitmaps, allocation-free.
	depSet *DependencySet
	deps   *boundDeps

	altBuf []altKey // alternatesFor's ordering scratch, reused per activity
}

// init resolves the dense activity indexing and builds the evaluation
// kernel over the full ranked shortlists (alternates probe beyond the
// current level pool, so the kernel must address every ranked entry).
func (g *globalState) init() error {
	acts := g.req.Task.Activities()
	g.acts = make([]string, len(acts))
	g.ranked = make([][]RankedCandidate, len(acts))
	for i, a := range acts {
		g.acts[i] = a.ID
		g.ranked[i] = g.locals[a.ID].Ranked
	}
	ds, err := g.req.CompiledDependencies()
	if err != nil {
		return err
	}
	g.depSet = ds
	g.deps = bindDeps(ds, g.ranked)
	if g.opts.NaiveEvaluation {
		pools := make(map[string][]registry.Candidate, len(acts))
		for i, a := range acts {
			list := make([]registry.Candidate, len(g.ranked[i]))
			for k := range g.ranked[i] {
				list[k] = g.ranked[i][k].Candidate()
			}
			pools[a.ID] = list
		}
		g.eng = newNaiveKernel(g.eval, pools)
		return nil
	}
	eng, err := newEvalEngineRanked(g.eval, g.ranked)
	if err != nil {
		return err
	}
	g.eng = eng
	return nil
}

// run executes the global selection phase and assembles the result.
func (g *globalState) run() (*Result, error) {
	if err := g.init(); err != nil {
		return nil, err
	}
	maxLevel := 1
	for _, id := range g.acts {
		if l := g.locals[id].Levels; l > maxLevel {
			maxLevel = l
		}
	}
	if g.opts.FlatGlobal {
		// Ablation: one iteration over the full candidate lists.
		maxLevel = 1
	}

	var bestInfeasible []int
	bestViolation := math.Inf(1)

	for level := 1; level <= maxLevel; level++ {
		if err := g.ctx.Err(); err != nil {
			return nil, err
		}
		g.stats.LevelsExplored++
		limits := g.poolLimits(level)
		// Try several starting points: the utility-best assignment first,
		// then one "constraint-friendly" start per constrained property
		// (each activity's best candidate for that property). For a single
		// additive constraint the friendly start is the global optimum of
		// that property, so feasibility is found whenever it exists; for
		// multiple constraints the starts diversify the repair search.
		// Identical starts are deduplicated — with one constrained
		// property the utility-best and constraint-friendly starts often
		// coincide, and repairing twice from the same assignment is pure
		// rework.
		for _, start := range g.startingPoints(limits) {
			g.eng.Load(start)
			ok, err := g.repair(limits)
			if err != nil {
				return nil, err
			}
			if ok {
				g.improve(limits)
				return g.finish(true), nil
			}
			if v := g.violation(); v < bestViolation {
				bestViolation = v
				bestInfeasible = g.eng.Snapshot(nil)
			}
		}
	}
	if err := g.ctx.Err(); err != nil {
		return nil, err
	}

	// No feasible composition found at any level: return the best-effort
	// minimum-violation assignment over the full pools.
	if bestInfeasible == nil {
		bestInfeasible = g.bestUtilityStart(g.poolLimits(maxLevel))
	}
	g.eng.Load(bestInfeasible)
	return g.finish(false), nil
}

// poolLimits returns, per activity, how many ranked candidates are in
// play at the given level (the cumulative shortlist of §3.3); with
// FlatGlobal every candidate is in the pool regardless of level.
func (g *globalState) poolLimits(level int) []int {
	limits := make([]int, len(g.acts))
	for a := range g.acts {
		ranked := g.ranked[a]
		if g.opts.FlatGlobal {
			limits[a] = len(ranked)
			continue
		}
		// Ranked is sorted by level first: take the prefix.
		end := 0
		for end < len(ranked) && ranked[end].Level <= level {
			end++
		}
		if end == 0 {
			end = 1 // always keep at least the top candidate
		}
		limits[a] = end
	}
	return limits
}

// startingPoints yields the repair starting assignments for one level
// as per-activity candidate indices: the utility-best assignment, then
// one per constrained property where each activity picks its best
// candidate for that property — with exact duplicates removed.
func (g *globalState) startingPoints(limits []int) [][]int {
	starts := make([][]int, 0, 1+len(g.req.Constraints))
	starts = append(starts, g.bestUtilityStart(limits))
	for _, c := range g.req.Constraints {
		j, ok := g.req.Properties.Index(c.Property)
		if !ok {
			continue
		}
		p := g.req.Properties.At(j)
		start := make([]int, len(g.acts))
		for a := range g.acts {
			best := 0
			for i := 1; i < limits[a]; i++ {
				if p.Better(g.ranked[a][i].Vector[j], g.ranked[a][best].Vector[j]) {
					best = i
				}
			}
			start[a] = best
		}
		starts = append(starts, start)
	}
	uniq := make([][]int, 0, len(starts))
	for _, s := range starts {
		dup := false
		for _, u := range uniq {
			if equalIndices(u, s) {
				dup = true
				break
			}
		}
		if !dup {
			uniq = append(uniq, s)
		}
	}
	return uniq
}

func equalIndices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// bestUtilityStart picks, per activity, the highest-utility pool
// member (on the evaluator's scale — RankedCandidate.Utility is
// normalized over the possibly-pruned local pool and may differ).
func (g *globalState) bestUtilityStart(limits []int) []int {
	start := make([]int, len(g.acts))
	for a := range g.acts {
		best := 0
		bestU := g.eng.CandidateUtility(a, 0)
		for i := 1; i < limits[a]; i++ {
			if u := g.eng.CandidateUtility(a, i); u > bestU {
				best, bestU = i, u
			}
		}
		start[a] = best
	}
	return start
}

// violation measures the current assignment's constraint excess,
// counting the logical aggregate evaluation. With dependency rules in
// force it adds one unit per violated rule, so the repair loop drives
// QoS excess and dependency violations down through the same greedy
// swaps; without rules the scalar path is bit-identical to before.
func (g *globalState) violation() float64 {
	g.stats.Evaluations++
	v := g.eng.Violation()
	if g.deps != nil {
		v += float64(g.deps.violations(g.eng))
	}
	return v
}

// feasibleNow reports combined feasibility: every global constraint and
// every dependency rule holds for the current assignment.
func (g *globalState) feasibleNow() bool {
	if !g.eng.Feasible() {
		return false
	}
	return g.deps == nil || g.deps.violations(g.eng) == 0
}

// repair drives the assignment toward feasibility: each pass applies the
// single swap (one activity, one pool candidate) that reduces the total
// constraint violation the most, preferring higher utility among equal
// reductions. It stops at feasibility, when no swap helps, when the
// pass budget is spent, or when the selection context is cancelled.
// Utility is consulted only for swaps that can still win (those not
// worse than the best violation seen), so losing probes cost one
// violation read and nothing more.
func (g *globalState) repair(limits []int) (bool, error) {
	cur := g.violation()
	if cur == 0 {
		return true, nil
	}
	for pass := 0; pass < repairPassesPerActivity*len(g.acts); pass++ {
		if err := g.ctx.Err(); err != nil {
			return false, err
		}
		bestAct, bestCand := -1, -1
		bestViol := cur
		bestUtil := math.Inf(-1)
		for a := range g.acts {
			prev := g.eng.Current(a)
			prevID := g.ranked[a][prev].Service.ID
			for i := 0; i < limits[a]; i++ {
				if g.ranked[a][i].Service.ID == prevID {
					continue
				}
				g.eng.Assign(a, i)
				v := g.violation()
				if v > bestViol || (v == bestViol && bestAct < 0) {
					continue // cannot win: skip the utility lookup
				}
				u := g.eng.CandidateUtility(a, i)
				if v < bestViol || u > bestUtil {
					bestViol, bestUtil = v, u
					bestAct, bestCand = a, i
				}
			}
			g.eng.Assign(a, prev)
		}
		if bestAct < 0 || bestViol >= cur {
			return false, nil
		}
		g.eng.Assign(bestAct, bestCand)
		g.stats.RepairSwaps++
		cur = bestViol
		if cur == 0 {
			return true, nil
		}
		// Dependency-aware repair: a swap that leaves (or creates) a
		// violated dependency edge immediately re-opens the activities
		// adjacent to the swapped one, rebinding each to its best
		// admissible candidate before the next full pass — the targeted
		// fix for "binding A restricts candidates for B".
		if g.deps != nil && g.deps.violations(g.eng) > 0 {
			cur = g.reopenDependents(bestAct, limits, cur)
			if cur == 0 {
				return true, nil
			}
		}
	}
	return g.violation() == 0, nil
}

// reopenDependents revisits the dependency-adjacent activities of a
// just-swapped binding, greedily rebinding each to the pool candidate
// that lowers the combined violation the most (utility breaks ties).
// Returns the resulting combined violation.
func (g *globalState) reopenDependents(act int, limits []int, cur float64) float64 {
	for _, b := range g.deps.adjacent[act] {
		prev := g.eng.Current(b)
		bestCand := -1
		bestViol := cur
		bestUtil := math.Inf(-1)
		for i := 0; i < limits[b]; i++ {
			if i == prev {
				continue
			}
			g.eng.Assign(b, i)
			v := g.violation()
			if v > bestViol || (v == bestViol && bestCand < 0) {
				continue
			}
			u := g.eng.CandidateUtility(b, i)
			if v < bestViol || u > bestUtil {
				bestViol, bestUtil = v, u
				bestCand = i
			}
		}
		if bestCand >= 0 && bestViol < cur {
			g.eng.Assign(b, bestCand)
			g.stats.RepairSwaps++
			cur = bestViol
			if cur == 0 {
				return 0
			}
		} else {
			g.eng.Assign(b, prev)
		}
	}
	return cur
}

// improve hill-climbs utility while preserving feasibility. Utility is
// separable per activity, so each sweep tries, per activity, the
// pool candidates in descending utility and keeps the best feasible one.
func (g *globalState) improve(limits []int) {
	for pass := 0; pass < improvePasses; pass++ {
		improved := false
		for a := range g.acts {
			prev := g.eng.Current(a)
			prevID := g.ranked[a][prev].Service.ID
			bestUtil := g.eng.CandidateUtility(a, prev)
			bestCand := -1
			for i := 0; i < limits[a]; i++ {
				if g.ranked[a][i].Service.ID == prevID {
					continue
				}
				u := g.eng.CandidateUtility(a, i)
				if u <= bestUtil {
					continue
				}
				// The dependency mask gates the probe: an inadmissible
				// candidate cannot be part of a feasible climb step.
				if g.deps != nil && !g.deps.admissible(a, i, g.eng) {
					continue
				}
				g.eng.Assign(a, i)
				g.stats.Evaluations++
				if g.feasibleNow() {
					bestUtil = u
					bestCand = i
				}
			}
			if bestCand >= 0 {
				g.eng.Assign(a, bestCand)
				improved = true
			} else {
				g.eng.Assign(a, prev)
			}
		}
		if !improved {
			break
		}
	}
}

// finish assembles the result: aggregated QoS, utility, and per-activity
// alternates ordered substitution-first (candidates that keep the
// composition feasible when swapped in alone, then by utility).
func (g *globalState) finish(feasible bool) *Result {
	assign := make(Assignment, len(g.acts))
	for a, id := range g.acts {
		assign[id] = g.ranked[a][g.eng.Current(a)].Candidate()
	}
	viol := g.eng.Violation()
	if g.deps != nil {
		viol += float64(g.deps.violations(g.eng))
	}
	res := &Result{
		Assignment: assign,
		Alternates: make(map[string][]registry.Candidate, len(g.acts)),
		Aggregated: g.eng.Aggregate(),
		Utility:    g.eng.Utility(),
		Feasible:   feasible,
		Violation:  viol,
		Breakdown:  make(map[string]float64, len(g.acts)),
	}
	for a, id := range g.acts {
		// Per-service utility contribution through the same kernel the
		// selection ranked with (bit-identical across naive/incremental
		// engines — the differential tests rely on it).
		res.Breakdown[id] = g.eng.CandidateUtility(a, g.eng.Current(a))
	}
	for a, id := range g.acts {
		// Alternates draw from the FULL ranked shortlist, not just the
		// level pool the winner came from: the thesis's design keeps
		// "several concrete services per abstract activity" available for
		// run-time substitution even when the top level alone satisfied
		// the request.
		res.Alternates[id] = g.alternatesFor(a)
	}
	res.Stats = g.stats
	return res
}

// altKey is one admissible pool member of the rotation being built: its
// evaluator-scale utility and its pool index. The flat pair is what the
// rotation orders, so no comparison goes through the kernel.
type altKey struct {
	utility float64
	idx     int
}

// alternatesFor ranks the remaining pool members of one activity as
// substitution fallbacks: candidates that keep the composition feasible
// when swapped in alone come first, then by utility (higher first), then
// by service ID, then by pool index. The utility table orders the
// admissible members without a probe; they are probed in that order only
// until MaxAlternates keepers are found, and members that break
// feasibility fill any remaining slots in the same order. Utilities are
// finite (Request.Validate rejects non-finite weights), so this is the
// keepers-first stable sort of the whole probed pool, truncated.
func (g *globalState) alternatesFor(a int) []registry.Candidate {
	pool := g.ranked[a]
	prev := g.eng.Current(a)
	chosen := pool[prev].Service.ID
	keys := g.altBuf[:0]
	for i := range pool {
		if pool[i].Service.ID == chosen {
			continue
		}
		// The dependency mask removes inadmissible candidates outright:
		// alternates feed run-time failover, which must never be handed a
		// substitution that breaks a dependency rule.
		if g.deps != nil && !g.deps.admissible(a, i, g.eng) {
			continue
		}
		keys = append(keys, altKey{utility: g.eng.CandidateUtility(a, i), idx: i})
	}
	g.altBuf = keys
	// The members are popped best-first from a heap built in place: the
	// probing usually stops after a few pops, so sorting the whole pool
	// would mostly order members that are never probed. Popped
	// non-keepers are parked, in reverse pop order, at the tail the heap
	// has shrunk away from.
	n := len(keys)
	for i := n/2 - 1; i >= 0; i-- {
		siftAlt(keys[:n], i, pool)
	}
	limit := min(g.opts.MaxAlternates, len(keys))
	out := make([]registry.Candidate, 0, limit)
	tail := len(keys)
	for n > 0 && len(out) < limit {
		k := keys[0]
		n--
		keys[0] = keys[n]
		siftAlt(keys[:n], 0, pool)
		g.eng.Assign(a, k.idx)
		// A substitution must keep the constraints AND the dependency
		// rules intact to count as feasibility-preserving.
		if g.feasibleNow() {
			out = append(out, pool[k.idx].Candidate())
		} else {
			tail--
			keys[tail] = k
		}
	}
	g.eng.Assign(a, prev)
	for j := len(keys) - 1; j >= tail && len(out) < limit; j-- {
		out = append(out, pool[keys[j].idx].Candidate())
	}
	return out
}

// altBefore is the rotation order before feasibility: higher utility
// first, then service ID, then pool index. It is a strict total order,
// so the heap pops members in exactly this order.
func altBefore(x, y altKey, pool []RankedCandidate) bool {
	if x.utility != y.utility {
		return x.utility > y.utility
	}
	if xid, yid := pool[x.idx].Service.ID, pool[y.idx].Service.ID; xid != yid {
		return xid < yid
	}
	return x.idx < y.idx
}

// siftAlt moves h[i] down until it precedes both its children.
func siftAlt(h []altKey, i int, pool []RankedCandidate) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && altBefore(h[c+1], h[c], pool) {
			c++
		}
		if !altBefore(h[c], h[i], pool) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
