package core

// The incremental evaluation engine. QASSA's global phase and every
// baseline probe thousands of candidate swaps per selection, and each
// probe needs the aggregated QoS of the whole composition. The naive
// route — Evaluator.Aggregate — rebuilds a map[string]qos.Vector and
// re-folds the entire task tree per probe: O(n·p) work plus one
// allocation per tree node. But the task tree is fixed for the whole
// selection and a swap changes exactly one leaf, so almost all of that
// work recomputes values that cannot have moved.
//
// EvalEngine evaluates over the task's flat children-before-parents
// node array with dense integer activity indexing (task.Flat, compiled
// once per task and shared by every engine over it), caches every
// node's aggregated vector, and on a swap re-folds only the leaf-to-root path:
// sequence and parallel nodes keep left-fold prefix arrays so only the
// suffix after the changed child is re-folded; choice and loop nodes
// (narrow in practice) re-fold their children in full. Propagation
// stops early when a node's value is bit-unchanged. A per-candidate
// utility cache removes the Normalize allocation from every utility
// comparison, and the compiled constraint list removes the per-probe
// property-name lookups from Violation.
//
// Bit-exactness is non-negotiable — the differential tests require
// byte-identical Results against the naive Evaluator — and holds by
// construction: qos.AggregateSequence/AggregateParallel are defined as
// the left folds of qos.SequenceStep/ParallelStep, the prefix arrays
// replay exactly those folds, and choice/loop nodes call the very
// qos.AggregateChoice/AggregateLoop the naive path uses. An unchanged
// child contributes the same bits, so a path re-fold equals a full
// re-aggregation.

import (
	"fmt"

	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/task"
)

// evalKernel is the probe interface the global phase drives: one
// current assignment, addressed by dense (activity, candidate) indices,
// queried for aggregate, feasibility, violation and utility. Two
// implementations exist: EvalEngine (incremental) and naiveKernel (the
// reference path through Evaluator, kept for ablation and for the
// differential equivalence tests).
type evalKernel interface {
	// Assign binds candidate cand of activity act.
	Assign(act, cand int)
	// Current returns the bound candidate index of activity act.
	Current(act int) int
	// Snapshot appends the current per-activity candidate indices to
	// dst (nil for a fresh copy).
	Snapshot(dst []int) []int
	// Load replaces the whole assignment (idx is indexed by activity).
	Load(idx []int)
	// Violation, Feasible and Aggregate query the current assignment's
	// aggregated QoS against the request's global constraints.
	Violation() float64
	Feasible() bool
	Aggregate() qos.Vector
	// AggregateInto copies the current aggregated vector into dst
	// (len = property arity) and returns it — the allocation-free read
	// the vector-valued probes of the Pareto-front mode use.
	AggregateInto(dst qos.Vector) qos.Vector
	// Utility scores the current assignment with the evaluator's F.
	Utility() float64
	// CandidateUtility scores one pool member on the evaluator's scale.
	CandidateUtility(act, cand int) float64
}

// compiledConstraint is one global constraint resolved to a property
// index, with the direction and the violation denominator precomputed.
type compiledConstraint struct {
	prop      int
	minimized bool
	bound     float64
	denom     float64
}

// EvalEngine is the incremental evaluation kernel. Build one per
// selection with NewEvalEngine, seed it with Load or Assign calls, and
// probe swaps at O(depth·p) instead of O(n·p) each — with zero
// allocations per probe. All methods are deterministic and bit-exact
// against the naive Evaluator; the engine is not safe for concurrent
// use (one engine per goroutine, like rand.Rand).
type EvalEngine struct {
	eval     *Evaluator
	ps       *qos.PropertySet
	props    []*qos.Property
	approach qos.Approach
	p        int // property count

	acts []*task.Activity // dense activity index → activity, task order (shared)
	// Exactly one of pools/ranked backs the candidate addressing: the
	// exported constructor takes plain candidate pools; the global phase
	// hands its ranked shortlists over as-is (building a parallel
	// []registry.Candidate per activity was pure allocation).
	pools  [][]registry.Candidate
	ranked [][]RankedCandidate
	// utils holds, per activity, the candidate utilities the engine
	// scored itself. It is nil, or nil at an activity, where the ranked
	// shortlist's own Utility is already on the evaluator's scale: the
	// engine reads those in place.
	utils [][]float64
	cur   []int // per activity: bound candidate index

	// nodes and leaf are the task's shared task.Flat (read-only).
	nodes   []task.FlatNode
	leaf    []int32 // per activity: node index of its leaf
	root    int32
	vals    []float64 // len(nodes)·p node value vectors, flattened
	prefix  []float64 // FoldRows·p left-fold prefix rows (seq/par nodes)
	scratch []float64 // choice fold scratch, max node arity
	cons    []compiledConstraint
}

// NewEvalEngine builds an incremental engine over the request's task
// tree and candidate pools. The pools may differ from the evaluator's
// populations (pruned, re-sorted) — utilities are still scored on the
// evaluator's scale. Every activity needs a non-empty pool and every
// vector the property-set arity. The engine starts with candidate 0
// bound everywhere.
func NewEvalEngine(eval *Evaluator, pools map[string][]registry.Candidate) (*EvalEngine, error) {
	acts := eval.req.Task.Activities()
	byAct := make([][]registry.Candidate, len(acts))
	for i, a := range acts {
		byAct[i] = pools[a.ID]
	}
	e := &EvalEngine{pools: byAct}
	return e, e.build(eval, nil)
}

// newEvalEngineRanked builds the engine directly over the local phase's
// ranked shortlists (task order, taken from locals), addressing them in
// place instead of converting each into a registry.Candidate pool.
func newEvalEngineRanked(eval *Evaluator, locals map[string]*LocalResult, ranked [][]RankedCandidate) (*EvalEngine, error) {
	e := &EvalEngine{ranked: ranked}
	return e, e.build(eval, locals)
}

// build fills in everything but the candidate backing (pools or ranked,
// set by the constructor). locals are the ranked shortlists' results
// (nil for pools). The tree comes compiled from the task, so the build
// allocates only the engine's mutable state: the assignment, one float
// backing for node values, prefix rows, fold scratch and the utilities
// the engine scores itself, and the compiled constraints.
func (e *EvalEngine) build(eval *Evaluator, locals map[string]*LocalResult) error {
	req := eval.req
	acts := req.Task.Activities()
	tree := req.Task.Flat()
	e.eval = eval
	e.ps = req.Properties
	e.props = req.Properties.Properties()
	e.approach = req.approach()
	e.p = req.Properties.Len()
	e.acts = acts
	e.nodes, e.leaf, e.root = tree.Nodes, tree.Leaf, tree.Root
	// An activity needs its own utility row unless the evaluator scores
	// it with the very normalizer its local result was ranked with: then
	// each RankedCandidate.Utility is already
	// qos.Utility(nz.NormalizeInto(scores, v), req.weights()), the bits
	// CandidateUtilityInto would compute.
	inPlace := func(id string) bool {
		lr := locals[id]
		return lr != nil && lr.nz == eval.normalizers[id]
	}
	scored := 0
	for i, a := range acts {
		n := e.poolLen(i)
		if n == 0 {
			return fmt.Errorf("core: engine: activity %q has no candidates", a.ID)
		}
		for k := 0; k < n; k++ {
			if v := e.vecAt(i, k); len(v) != e.p {
				return fmt.Errorf("core: engine: candidate %q vector arity %d, want %d",
					e.Candidate(i, k).Service.ID, len(v), e.p)
			}
		}
		if !inPlace(a.ID) {
			scored += n
		}
	}
	back := make([]float64, (len(e.nodes)+tree.FoldRows)*e.p+tree.MaxArity+e.p+scored)
	carve := func(n int) []float64 {
		s := back[:n:n]
		back = back[n:]
		return s
	}
	e.vals = carve(len(e.nodes) * e.p)
	e.prefix = carve(tree.FoldRows * e.p)
	e.scratch = carve(tree.MaxArity)
	buf := qos.Vector(carve(e.p)) // normalization scratch
	if scored > 0 {
		e.utils = make([][]float64, len(acts))
	}
	for i, a := range acts {
		if inPlace(a.ID) {
			continue
		}
		row := carve(e.poolLen(i))
		for k := range row {
			row[k] = eval.CandidateUtilityInto(a.ID, e.Candidate(i, k), buf)
		}
		e.utils[i] = row
	}
	for ni := range e.nodes {
		n := &e.nodes[ni]
		if n.Fold < 0 {
			continue
		}
		pre := e.prefix[int(n.Fold)*e.p:]
		for q := 0; q < e.p; q++ {
			if n.Kind == task.PatternSequence {
				pre[q] = qos.SequenceIdentity(e.props[q])
			} else {
				pre[q] = qos.ParallelIdentity(e.props[q])
			}
		}
	}
	e.compileConstraints(req.Constraints)
	e.cur = make([]int, len(acts))
	e.Load(e.cur)
	return nil
}

// poolLen returns activity act's candidate count on either backing.
func (e *EvalEngine) poolLen(act int) int {
	if e.ranked != nil {
		return len(e.ranked[act])
	}
	return len(e.pools[act])
}

// vecAt returns the advertised vector of pool member cand of activity
// act without materialising a Candidate.
func (e *EvalEngine) vecAt(act, cand int) qos.Vector {
	if e.ranked != nil {
		return e.ranked[act][cand].Vector
	}
	return e.pools[act][cand].Vector
}

// compileConstraints resolves the global constraint set once, mirroring
// qos.Constraints.Violation (same order, same operations).
func (e *EvalEngine) compileConstraints(cs qos.Constraints) {
	e.cons = make([]compiledConstraint, 0, len(cs))
	for _, c := range cs {
		j, ok := e.ps.Index(c.Property)
		if !ok || j >= e.p {
			continue
		}
		denom := c.Bound
		if denom < 0 {
			denom = -denom
		}
		if denom < 1 {
			denom = 1
		}
		e.cons = append(e.cons, compiledConstraint{
			prop:      j,
			minimized: e.props[j].Direction == qos.Minimized,
			bound:     c.Bound,
			denom:     denom,
		})
	}
}

// val returns node ni's cached aggregated vector.
func (e *EvalEngine) val(ni int32) []float64 {
	return e.vals[int(ni)*e.p : (int(ni)+1)*e.p]
}

// Activities returns the number of activities (dense indices 0..n-1,
// task order).
func (e *EvalEngine) Activities() int { return len(e.acts) }

// ActivityID returns the ID of dense activity index act.
func (e *EvalEngine) ActivityID(act int) string { return e.acts[act].ID }

// PoolSize returns the candidate pool size of activity act.
func (e *EvalEngine) PoolSize(act int) int { return e.poolLen(act) }

// Candidate returns pool member cand of activity act.
func (e *EvalEngine) Candidate(act, cand int) registry.Candidate {
	if e.ranked != nil {
		return e.ranked[act][cand].Candidate()
	}
	return e.pools[act][cand]
}

// Current returns the bound candidate index of activity act.
func (e *EvalEngine) Current(act int) int { return e.cur[act] }

// Snapshot appends the current per-activity candidate indices to dst
// (pass nil for a fresh copy).
func (e *EvalEngine) Snapshot(dst []int) []int {
	return append(dst[:0], e.cur...)
}

// Assignment materialises the current assignment as the map form the
// rest of the system consumes.
func (e *EvalEngine) Assignment() Assignment {
	out := make(Assignment, len(e.acts))
	for a, act := range e.acts {
		out[act.ID] = e.Candidate(a, e.cur[a])
	}
	return out
}

// Assign binds candidate cand of activity act and re-folds the
// leaf-to-root path. Binding the current candidate, or one with a
// bit-identical vector, is a no-op beyond the index update.
func (e *EvalEngine) Assign(act, cand int) {
	e.cur[act] = cand
	ni := e.leaf[act]
	dst := e.val(ni)
	v := e.vecAt(act, cand)
	same := true
	for q := 0; q < e.p; q++ {
		if !(dst[q] == v[q]) { // non-equal or NaN: re-fold
			same = false
			break
		}
	}
	if same {
		return
	}
	copy(dst, v)
	for {
		n := &e.nodes[ni]
		if n.Parent < 0 {
			return
		}
		if !e.refold(n.Parent, int(n.ChildPos)) {
			return // bit-unchanged: ancestors cannot move
		}
		ni = n.Parent
	}
}

// Load replaces the whole assignment and recomputes every node (one
// forward sweep; nodes are ordered children-first).
func (e *EvalEngine) Load(idx []int) {
	for a := range idx {
		e.cur[a] = idx[a]
		copy(e.val(e.leaf[a]), e.vecAt(a, idx[a]))
	}
	for ni := range e.nodes {
		if e.nodes[ni].Act < 0 {
			e.refold(int32(ni), 0)
		}
	}
}

// refold recomputes node ni's aggregated vector assuming children
// before position from are unchanged, and reports whether any bit of
// the node's value moved.
func (e *EvalEngine) refold(ni int32, from int) bool {
	n := &e.nodes[ni]
	out := e.val(ni)
	p := e.p
	switch n.Kind {
	case task.PatternSequence, task.PatternParallel:
		pre := e.prefix[int(n.Fold)*p : (int(n.Fold)+len(n.Children)+1)*p]
		seq := n.Kind == task.PatternSequence
		for i := from; i < len(n.Children); i++ {
			cv := e.val(n.Children[i])
			row := pre[i*p : (i+1)*p]
			next := pre[(i+1)*p : (i+2)*p]
			if seq {
				for q := 0; q < p; q++ {
					next[q] = qos.SequenceStep(e.props[q], row[q], cv[q])
				}
			} else {
				for q := 0; q < p; q++ {
					next[q] = qos.ParallelStep(e.props[q], row[q], cv[q])
				}
			}
		}
		return storeChanged(out, pre[len(n.Children)*p:])
	case task.PatternChoice:
		changed := false
		k := len(n.Children)
		for q := 0; q < p; q++ {
			for i, ci := range n.Children {
				e.scratch[i] = e.val(ci)[q]
			}
			nv := qos.AggregateChoice(e.props[q], e.scratch[:k], n.Probs, e.approach)
			if !(nv == out[q]) {
				out[q] = nv
				changed = true
			}
		}
		return changed
	case task.PatternLoop:
		cv := e.val(n.Children[0])
		changed := false
		for q := 0; q < p; q++ {
			nv := qos.AggregateLoop(e.props[q], cv[q], n.Loop, e.approach)
			if !(nv == out[q]) {
				out[q] = nv
				changed = true
			}
		}
		return changed
	default: // leaves are written by Assign/Load directly
		return false
	}
}

// storeChanged copies src over dst and reports whether anything moved.
func storeChanged(dst, src []float64) bool {
	changed := false
	for q := range dst {
		if !(src[q] == dst[q]) {
			dst[q] = src[q]
			changed = true
		}
	}
	return changed
}

// Aggregate returns a copy of the composition's aggregated QoS vector.
func (e *EvalEngine) Aggregate() qos.Vector {
	out := make(qos.Vector, e.p)
	copy(out, e.val(e.root))
	return out
}

// AggregateInto copies the current aggregated vector into dst and
// returns it: the zero-allocation read behind ProbeVector. dst must have
// the property-set arity.
func (e *EvalEngine) AggregateInto(dst qos.Vector) qos.Vector {
	copy(dst, e.val(e.root))
	return dst
}

// ProbeVector binds candidate cand of activity act and returns the
// resulting aggregated QoS vector in dst (len = property arity): the
// vector-valued probe of the multi-objective mode. It is Assign plus a
// root read — the same leaf-to-root prefix-array re-fold, O(path·p) per
// swap with zero allocations — so Pareto search pays the same per-probe
// cost as the scalar search. The binding persists, exactly like Assign.
func (e *EvalEngine) ProbeVector(act, cand int, dst qos.Vector) qos.Vector {
	e.Assign(act, cand)
	return e.AggregateInto(dst)
}

// Violation measures the total relative constraint excess of the
// current assignment — same accumulation order and operations as
// qos.Constraints.Violation, without the map lookups.
func (e *EvalEngine) Violation() float64 {
	root := e.val(e.root)
	total := 0.0
	for i := range e.cons {
		c := &e.cons[i]
		v := root[c.prop]
		var excess float64
		if c.minimized {
			excess = v - c.bound
		} else {
			excess = c.bound - v
		}
		if excess > 0 {
			total += excess / c.denom
		}
	}
	return total
}

// Feasible reports whether the current assignment meets every global
// constraint.
func (e *EvalEngine) Feasible() bool { return e.Violation() == 0 }

// Utility scores the current assignment: the mean cached candidate
// utility, accumulated in task order exactly like Evaluator.Utility.
func (e *EvalEngine) Utility() float64 {
	if len(e.acts) == 0 {
		return 0
	}
	total := 0.0
	for a := range e.acts {
		total += e.CandidateUtility(a, e.cur[a])
	}
	return total / float64(len(e.acts))
}

// CandidateUtility returns the cached utility of pool member cand of
// activity act: the engine's own row, or the ranked entry's Utility
// where the engine has none.
func (e *EvalEngine) CandidateUtility(act, cand int) float64 {
	if e.utils != nil && e.utils[act] != nil {
		return e.utils[act][cand]
	}
	return e.ranked[act][cand].Utility
}

// naiveKernel routes the same probe interface through the reference
// Evaluator: every query re-aggregates the full task tree. It is the
// ablation baseline (Options.NaiveEvaluation) the differential tests
// hold the incremental engine against.
type naiveKernel struct {
	eval   *Evaluator
	acts   []string
	pools  [][]registry.Candidate
	cur    []int
	assign Assignment
}

func newNaiveKernel(eval *Evaluator, pools map[string][]registry.Candidate) *naiveKernel {
	acts := eval.req.Task.Activities()
	k := &naiveKernel{
		eval:   eval,
		acts:   make([]string, len(acts)),
		pools:  make([][]registry.Candidate, len(acts)),
		cur:    make([]int, len(acts)),
		assign: make(Assignment, len(acts)),
	}
	for i, a := range acts {
		k.acts[i] = a.ID
		k.pools[i] = pools[a.ID]
		k.assign[a.ID] = k.pools[i][0]
	}
	return k
}

func (k *naiveKernel) Assign(act, cand int) {
	k.cur[act] = cand
	k.assign[k.acts[act]] = k.pools[act][cand]
}

func (k *naiveKernel) Current(act int) int { return k.cur[act] }

func (k *naiveKernel) Snapshot(dst []int) []int { return append(dst[:0], k.cur...) }

func (k *naiveKernel) Load(idx []int) {
	for a := range idx {
		k.Assign(a, idx[a])
	}
}

func (k *naiveKernel) Violation() float64    { return k.eval.Violation(k.assign) }
func (k *naiveKernel) Feasible() bool        { return k.eval.Feasible(k.assign) }
func (k *naiveKernel) Aggregate() qos.Vector { return k.eval.Aggregate(k.assign) }
func (k *naiveKernel) Utility() float64      { return k.eval.Utility(k.assign) }

// AggregateInto re-aggregates through the reference Evaluator and copies
// into dst — allocating, like every naive probe; the differential tests
// only need the same bits, not the same cost.
func (k *naiveKernel) AggregateInto(dst qos.Vector) qos.Vector {
	copy(dst, k.eval.Aggregate(k.assign))
	return dst
}

func (k *naiveKernel) CandidateUtility(act, cand int) float64 {
	return k.eval.CandidateUtility(k.acts[act], k.pools[act][cand])
}
