package core

import (
	"context"
	"math/rand"
	"testing"

	"qasom/internal/qos"
	"qasom/internal/workload"
)

// TestEvalProbeZeroAlloc enforces the incremental engine's zero-alloc
// probe contract: Assign + Violation + Utility — the inner loop of every
// repair and improvement sweep — must not allocate at all.
func TestEvalProbeZeroAlloc(t *testing.T) {
	ps := qos.StandardSet()
	g := workload.NewGenerator(5)
	laws := workload.DefaultLaws(ps)
	tk := g.Task("probe", 6, workload.ShapeMixed)
	cands := g.Candidates(tk, 20, ps, laws)
	req := &Request{
		Task:        tk,
		Properties:  ps,
		Constraints: g.Constraints(tk, ps, laws, workload.AtMean, 2),
	}
	eval, err := NewEvaluator(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEvalEngine(eval, cands)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	n := eng.Activities()
	sink := 0.0
	avg := testing.AllocsPerRun(200, func() {
		a := rng.Intn(n)
		eng.Assign(a, rng.Intn(eng.PoolSize(a)))
		sink += eng.Violation() + eng.Utility()
	})
	if avg != 0 {
		t.Errorf("eval probe allocates %.2f/op, want 0", avg)
	}
	_ = sink
}

// TestLocalSelectPooledAllocCeiling pins the pooled local phase's
// allocation budget: once the sync.Pool scratch is warm, one localSelect
// over 300 candidates may allocate only its retained outputs (the ranked
// slice, the shared scores backing, the result struct, the normalizer
// and sort bookkeeping) — an O(1) count, not O(candidates).
func TestLocalSelectPooledAllocCeiling(t *testing.T) {
	ps := qos.StandardSet()
	g := workload.NewGenerator(7)
	laws := workload.DefaultLaws(ps)
	tk := g.Task("alloc", 1, workload.ShapeLinear)
	id := tk.Activities()[0].ID
	cands := g.Candidates(tk, 300, ps, laws)[id]
	weights := qos.UniformWeights(ps)

	run := func() {
		rng := rand.New(rand.NewSource(1))
		if _, err := localSelect(id, cands, ps, weights, 4, 0, rng); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the scratch pool
	// Retained outputs plus small fixed bookkeeping; 20 gives headroom
	// over the ~12 observed without re-admitting any per-candidate
	// allocation (which would add hundreds).
	const ceiling = 20
	if avg := testing.AllocsPerRun(50, run); avg > ceiling {
		t.Errorf("pooled localSelect allocates %.1f/op, want <= %d", avg, ceiling)
	}
}

// TestSelectReusingKnownAllocCeiling pins a fully memo-served miss: with
// every activity's local result supplied, SelectReusing normalizes no
// pool and scores no candidate. The evaluator takes the supplied
// results' normalizers and the engine reads their utilities in place,
// and the engine takes its compiled tree from the task, so what remains
// is the global phase's own bookkeeping, independent of the number of
// candidates. That is 29 allocations here:
//   - the weights (2) and the local-phase map (2);
//   - the evaluator and its maps (3);
//   - the global state (1), its activity IDs and shortlist headers (2);
//   - the engine (5): the struct, the property list, one float backing
//     for node values, prefix rows and scratch, the assignment and the
//     constraints;
//   - pool limits (1), the starting points (4) and the utility-best
//     start (1);
//   - the result (8): the struct, its assignment and breakdown maps,
//     the aggregated vector, and the rotation record with the final
//     indices it keeps (the rotation itself is built on its first read,
//     which this run never makes).
//
// Compiling the tree again per engine adds at least a node array, an
// activity index map and one child list per pattern node, 8 or more
// over this task; copying the ranked utilities adds at least their
// backing and its row headers; a per-activity normalizer rebuild adds
// three allocations per activity, 24 over this task. The ceiling's
// headroom covers none of them.
func TestSelectReusingKnownAllocCeiling(t *testing.T) {
	ps := qos.StandardSet()
	g := workload.NewGenerator(11)
	laws := workload.DefaultLaws(ps)
	tk := g.Task("memo", 8, workload.ShapeMixed)
	cands := g.Candidates(tk, 60, ps, laws)
	req := &Request{Task: tk, Properties: ps, Constraints: g.Constraints(tk, ps, laws, workload.AtMean, 2)}
	sel := NewSelector(Options{Workers: 1})
	ctx := context.Background()
	_, known, err := sel.SelectReusing(ctx, req, cands, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, _, err := sel.SelectReusing(ctx, req, cands, known); err != nil {
			t.Fatal(err)
		}
	}
	const ceiling = 32
	if avg := testing.AllocsPerRun(20, run); avg > ceiling {
		t.Errorf("fully memo-served SelectReusing allocates %.1f/op, want <= %d", avg, ceiling)
	}
}
