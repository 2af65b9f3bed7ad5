package core

// Pareto-front selection mode (ROADMAP item 4): instead of returning the
// single scalarized-best composition, the global phase maintains a
// non-dominated archive over the request's objectives and returns the
// feasible trade-off front, letting the caller pick. The search is the
// existing deterministic machinery pointed at an archive instead of a
// single incumbent:
//
//   - The scalar search runs first, unchanged: its winner seeds the
//     archive and remains the backward-compatible answer shape.
//   - Small instances (pool-size product ≤ Options.ParetoExhaustiveBound)
//     are enumerated exhaustively through the incremental engine — each
//     step is one O(path·p) ProbeVector re-fold, so at ℓ ≤ 8 the exact
//     front costs milliseconds. The returned front then EQUALS the
//     exhaustive reference front (the differential tests hold it to
//     baseline.ExhaustiveFront).
//   - Larger instances run a deterministic Pareto local search: archive
//     members are explored in insertion order, every admissible one-swap
//     neighbour is offered to the archive, and the sweep runs to closure
//     or paretoSweepBudget probes.
//
// Dependency rules gate both regimes: only assignments with zero rule
// violations enter the archive, and the sweep consults the admissibility
// mask before probing a swap.

import (
	"fmt"
	"sort"

	"qasom/internal/qos"
)

// paretoSweepBudget caps the swap probes of the archive sweep used
// beyond the exhaustive bound (Pareto local search seeded from the
// scalar incumbent, explored to closure or budget).
const paretoSweepBudget = 100000

// paretoEntry is one archived feasible assignment.
type paretoEntry struct {
	id    int
	snap  []int      // per-activity pool indices
	obj   qos.Vector // aggregated QoS projected onto the objectives
	agg   qos.Vector // full aggregated QoS vector
	util  float64    // scalarized utility F
	crowd float64    // crowding distance, filled in by ordered()
}

// paretoSearch carries one archive-based search over a globalState.
type paretoSearch struct {
	g      *globalState
	props  []*qos.Property
	objIdx []int
	arch   *qos.Archive
	store  map[int]*paretoEntry
	queue  []int // archive IDs in insertion order (the exploration order)
	nextID int
	aggBuf qos.Vector
	objBuf qos.Vector
}

// runPareto executes the Pareto-front selection mode.
func (g *globalState) runPareto() (*Result, error) {
	objIdx := g.req.objectiveIndices()
	if len(objIdx) < 2 {
		return nil, fmt.Errorf("core: Pareto-front mode needs at least 2 objectives, got %d", len(objIdx))
	}
	scalar, err := g.run()
	if err != nil {
		return nil, err
	}
	scalarSnap := g.eng.Snapshot(nil) // finish left the engine on the winner
	props := make([]*qos.Property, len(objIdx))
	for i, j := range objIdx {
		props[i] = g.req.Properties.At(j)
	}
	ps := &paretoSearch{
		g:      g,
		props:  props,
		objIdx: objIdx,
		arch:   qos.NewArchive(props),
		store:  make(map[int]*paretoEntry),
		aggBuf: make(qos.Vector, g.req.Properties.Len()),
		objBuf: make(qos.Vector, len(objIdx)),
	}
	if scalar.Feasible {
		ps.offer()
	}
	total := 1
	exhaustive := true
	for a := range g.ranked {
		total *= len(g.ranked[a])
		if total > g.opts.ParetoExhaustiveBound {
			exhaustive = false
			break
		}
	}
	if exhaustive {
		err = ps.enumerate()
	} else {
		err = ps.sweep()
	}
	if err != nil {
		return nil, err
	}
	front := ps.ordered()
	if len(front) == 0 {
		// No feasible assignment exists (or none was found): the
		// best-effort minimum-violation result, with no front — callers
		// check Feasible exactly as in scalar mode.
		scalar.Stats = g.stats
		return scalar, nil
	}
	res := scalar
	if !scalar.Feasible || !equalIndices(front[0].snap, scalarSnap) {
		// The best front member differs from the scalar incumbent (the
		// archive search can find feasible points the level-wise repair
		// missed, or a strictly better scalarization): rebuild the full
		// result — alternates, breakdown — around it.
		g.eng.Load(front[0].snap)
		res = g.finish(true)
	}
	res.Front = make([]Result, len(front))
	for i, ent := range front {
		res.Front[i] = g.frontEntry(ent)
	}
	res.Stats = g.stats
	res.Stats.FrontSize = len(front)
	return res, nil
}

// frontEntry materialises one archived assignment as a slim Result
// (no alternates — those are computed for the returned best member).
func (g *globalState) frontEntry(ent *paretoEntry) Result {
	assign := make(Assignment, len(g.acts))
	breakdown := make(map[string]float64, len(g.acts))
	for a, id := range g.acts {
		assign[id] = g.ranked[a][ent.snap[a]].Candidate()
		breakdown[id] = g.eng.CandidateUtility(a, ent.snap[a])
	}
	return Result{
		Assignment: assign,
		Aggregated: ent.agg,
		Utility:    ent.util,
		Breakdown:  breakdown,
		Feasible:   true,
	}
}

// offer evaluates the engine's current assignment and inserts it into
// the archive when it is feasible (constraints and dependency rules) and
// not dominated. The pre-insert checks run on reused buffers — the probe
// hot path allocates only when a new front member is actually archived.
func (ps *paretoSearch) offer() {
	g := ps.g
	if g.violation() != 0 {
		return
	}
	agg := g.eng.AggregateInto(ps.aggBuf)
	for i, j := range ps.objIdx {
		ps.objBuf[i] = agg[j]
	}
	if ps.arch.Dominated(ps.objBuf) {
		return
	}
	obj := append(qos.Vector(nil), ps.objBuf...)
	ent := &paretoEntry{
		id:   ps.nextID,
		snap: g.eng.Snapshot(nil),
		obj:  obj,
		agg:  append(qos.Vector(nil), agg...),
		util: g.eng.Utility(),
	}
	inserted, removed := ps.arch.Insert(obj, ent.id)
	if !inserted {
		return
	}
	ps.nextID++
	ps.store[ent.id] = ent
	ps.queue = append(ps.queue, ent.id)
	for _, rid := range removed {
		delete(ps.store, rid)
	}
}

// enumerate offers every assignment over the full pools to the archive:
// the exact-front regime. Depth-first candidate assignment keeps every
// step an O(path) incremental re-fold.
func (ps *paretoSearch) enumerate() error {
	g := ps.g
	leaves := 0
	var rec func(a int) error
	rec = func(a int) error {
		if a == len(g.acts) {
			leaves++
			if leaves&1023 == 0 {
				if err := g.ctx.Err(); err != nil {
					return err
				}
			}
			ps.offer()
			return nil
		}
		for i := 0; i < len(g.ranked[a]); i++ {
			g.eng.Assign(a, i)
			if err := rec(a + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}

// sweep is the deterministic Pareto local search for instances beyond
// the exhaustive bound: explore archive members in insertion order,
// offering every dependency-admissible one-swap neighbour, until the
// archive closes (every member explored, nothing new) or the probe
// budget is spent.
func (ps *paretoSearch) sweep() error {
	g := ps.g
	budget := paretoSweepBudget
	for qi := 0; qi < len(ps.queue); qi++ {
		if err := g.ctx.Err(); err != nil {
			return err
		}
		id := ps.queue[qi]
		ent, live := ps.store[id]
		if !live {
			continue // evicted before exploration
		}
		g.eng.Load(ent.snap)
		for a := range g.acts {
			prev := ent.snap[a]
			for i := 0; i < len(g.ranked[a]); i++ {
				if i == prev {
					continue
				}
				if budget <= 0 {
					return nil
				}
				if g.deps != nil && !g.deps.admissible(a, i, g.eng) {
					continue
				}
				budget--
				g.eng.Assign(a, i)
				ps.offer()
			}
			g.eng.Assign(a, prev)
		}
	}
	return nil
}

// ordered flattens the archive into the result front: the
// scalarized-best member first (the backward-compatible pick), then by
// descending crowding distance (boundary and best-spread members first),
// with utility and snapshot order as deterministic tie-breaks.
func (ps *paretoSearch) ordered() []*paretoEntry {
	pts := ps.arch.Points()
	if len(pts) == 0 {
		return nil
	}
	ents := make([]*paretoEntry, len(pts))
	vecs := make([]qos.Vector, len(pts))
	for i, pt := range pts {
		ents[i] = ps.store[pt.ID]
		vecs[i] = ents[i].obj
	}
	for i, c := range qos.CrowdingDistance(ps.props, vecs) {
		ents[i].crowd = c
	}
	best := 0
	for i := 1; i < len(ents); i++ {
		if ents[i].util > ents[best].util ||
			(ents[i].util == ents[best].util && lessSnap(ents[i].snap, ents[best].snap)) {
			best = i
		}
	}
	ents[0], ents[best] = ents[best], ents[0]
	rest := ents[1:]
	sort.SliceStable(rest, func(x, y int) bool {
		if rest[x].crowd != rest[y].crowd {
			return rest[x].crowd > rest[y].crowd
		}
		if rest[x].util != rest[y].util {
			return rest[x].util > rest[y].util
		}
		return lessSnap(rest[x].snap, rest[y].snap)
	})
	return ents
}

// lessSnap orders assignment snapshots lexicographically.
func lessSnap(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
