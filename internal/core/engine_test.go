package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qasom/internal/qos"
	"qasom/internal/task"
	"qasom/internal/workload"
)

// nestedTask hand-builds a task exercising every composition pattern at
// once — sequence, parallel, probabilistic choice and loop, nested three
// levels deep — so the engine's per-kind refold paths are all covered
// even when the workload generator happens not to nest them this way.
func nestedTask() *task.Task {
	act := func(id string) *task.Node {
		return task.NewActivity(&task.Activity{ID: id, Concept: "C"})
	}
	root := task.Sequence(
		act("a"),
		task.Parallel(
			act("b"),
			task.LoopNode(qos.Loop{Min: 1, Max: 3, Expected: 2}, act("c")),
		),
		task.Choice([]float64{0.3, 0.7},
			act("d"),
			task.Sequence(act("e"), act("f")),
		),
	)
	return &task.Task{Name: "nested", Concept: "C", Root: root}
}

// TestDifferentialEngineKernel drives the incremental EvalEngine and the
// naive Evaluator through identical random swap sequences and demands
// bit-identical Violation, Utility, Feasible and Aggregate at every
// step. Shapes cover the generator's three forms plus a hand-nested
// seq/par/choice/loop tree; approaches cover all three aggregation
// modes.
func TestDifferentialEngineKernel(t *testing.T) {
	ps := qos.StandardSet()
	laws := workload.DefaultLaws(ps)
	type shape struct {
		name string
		mk   func(g *workload.Generator) *task.Task
	}
	shapes := []shape{
		{"linear", func(g *workload.Generator) *task.Task { return g.Task("L", 5, workload.ShapeLinear) }},
		{"mixed", func(g *workload.Generator) *task.Task { return g.Task("M", 6, workload.ShapeMixed) }},
		{"choice", func(g *workload.Generator) *task.Task { return g.Task("C", 6, workload.ShapeChoiceHeavy) }},
		{"nested", func(g *workload.Generator) *task.Task { return nestedTask() }},
	}
	for seed := int64(1); seed <= 8; seed++ {
		for _, sh := range shapes {
			for _, approach := range qos.Approaches() {
				t.Run(fmt.Sprintf("seed=%d/%s/%v", seed, sh.name, approach), func(t *testing.T) {
					g := workload.NewGenerator(seed)
					tk := sh.mk(g)
					cands := g.Candidates(tk, 8, ps, laws)
					req := &Request{
						Task:        tk,
						Properties:  ps,
						Constraints: g.Constraints(tk, ps, laws, workload.AtMean, 3),
						Approach:    approach,
					}
					if err := req.Validate(); err != nil {
						t.Fatalf("request: %v", err)
					}
					eval, err := NewEvaluator(req, cands)
					if err != nil {
						t.Fatalf("evaluator: %v", err)
					}
					eng, err := NewEvalEngine(eval, cands)
					if err != nil {
						t.Fatalf("engine: %v", err)
					}
					ref := newNaiveKernel(eval, cands)

					n := eng.Activities()
					rng := rand.New(rand.NewSource(seed * 31))
					check := func(step int) {
						t.Helper()
						if gv, wv := eng.Violation(), ref.Violation(); gv != wv {
							t.Fatalf("step %d: violation %v != %v", step, gv, wv)
						}
						if gu, wu := eng.Utility(), ref.Utility(); gu != wu {
							t.Fatalf("step %d: utility %v != %v", step, gu, wu)
						}
						if gf, wf := eng.Feasible(), ref.Feasible(); gf != wf {
							t.Fatalf("step %d: feasible %v != %v", step, gf, wf)
						}
						ga, wa := eng.Aggregate(), ref.Aggregate()
						if len(ga) != len(wa) {
							t.Fatalf("step %d: aggregate lengths %d != %d", step, len(ga), len(wa))
						}
						for j := range ga {
							if ga[j] != wa[j] {
								t.Fatalf("step %d: aggregate[%d] %v != %v", step, j, ga[j], wa[j])
							}
						}
					}
					check(-1)
					for step := 0; step < 120; step++ {
						switch rng.Intn(10) {
						case 0: // bulk load of a random assignment
							idx := make([]int, n)
							for a := range idx {
								idx[a] = rng.Intn(eng.PoolSize(a))
							}
							eng.Load(idx)
							ref.Load(idx)
						case 1: // re-assign the current candidate (no-op swap)
							a := rng.Intn(n)
							eng.Assign(a, eng.Current(a))
							ref.Assign(a, ref.Current(a))
						default: // single random swap
							a := rng.Intn(n)
							k := rng.Intn(eng.PoolSize(a))
							eng.Assign(a, k)
							ref.Assign(a, k)
						}
						check(step)
					}
					// Snapshot/assignment agreement and cached utilities.
					if !reflect.DeepEqual(eng.Snapshot(nil), ref.Snapshot(nil)) {
						t.Fatal("snapshots diverge")
					}
					for a := 0; a < n; a++ {
						id := eng.ActivityID(a)
						for k := 0; k < eng.PoolSize(a); k++ {
							want := eval.CandidateUtility(id, eng.Candidate(a, k))
							if got := eng.CandidateUtility(a, k); got != want {
								t.Fatalf("cached utility %s[%d]: %v != %v", id, k, got, want)
							}
						}
					}
				})
			}
		}
	}
}

// TestDifferentialSelector runs the full QASSA pipeline twice per case —
// once through the incremental engine, once with NaiveEvaluation — and
// requires bit-identical decisions (see sameDecision).
func TestDifferentialSelector(t *testing.T) {
	ps := qos.StandardSet()
	laws := workload.DefaultLaws(ps)
	shapes := []workload.TaskShape{workload.ShapeLinear, workload.ShapeMixed, workload.ShapeChoiceHeavy}
	tights := []workload.Tightness{workload.AtMean, workload.AtMeanPlusSigma}
	approaches := qos.Approaches()
	workers := []int{1, 4}

	run := 0
	for seed := int64(1); seed <= 8; seed++ {
		for _, sh := range shapes {
			for _, tight := range tights {
				approach := approaches[run%len(approaches)]
				w := workers[run%len(workers)]
				run++
				t.Run(fmt.Sprintf("seed=%d/shape=%d/tight=%v/%v/w=%d", seed, sh, tight, approach, w), func(t *testing.T) {
					g := workload.NewGenerator(seed)
					tk := g.Task("R", 6, sh)
					cands := g.Candidates(tk, 12, ps, laws)
					req := &Request{
						Task:        tk,
						Properties:  ps,
						Constraints: g.Constraints(tk, ps, laws, tight, 3),
						Approach:    approach,
					}
					fast, err := NewSelector(Options{Workers: w}).Select(req, cands)
					if err != nil {
						t.Fatalf("incremental: %v", err)
					}
					slow, err := NewSelector(Options{Workers: w, NaiveEvaluation: true}).Select(req, cands)
					if err != nil {
						t.Fatalf("naive: %v", err)
					}
					sameDecision(t, fast, slow)
				})
			}
		}
	}
}

// TestDifferentialEngineNested pins the nested-tree engine against the
// task package's own reference aggregation (AggregateQoS) — a third,
// independently written implementation — over exhaustive assignments of
// a tiny pool.
func TestDifferentialEngineNested(t *testing.T) {
	ps := qos.StandardSet()
	laws := workload.DefaultLaws(ps)
	for _, approach := range qos.Approaches() {
		g := workload.NewGenerator(7)
		tk := nestedTask()
		cands := g.Candidates(tk, 2, ps, laws)
		req := &Request{Task: tk, Properties: ps, Approach: approach}
		eval, err := NewEvaluator(req, cands)
		if err != nil {
			t.Fatalf("evaluator: %v", err)
		}
		eng, err := NewEvalEngine(eval, cands)
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		acts := tk.Activities()
		n := len(acts)
		idx := make([]int, n)
		var rec func(i int)
		rec = func(i int) {
			if i == n {
				vecs := make(map[string]qos.Vector, n)
				for a, k := range idx {
					vecs[acts[a].ID] = eng.Candidate(a, k).Vector
				}
				want := tk.AggregateQoS(ps, vecs, approach)
				got := eng.Aggregate()
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%v idx %v: aggregate[%d] %v != %v", approach, idx, j, got[j], want[j])
					}
				}
				return
			}
			for k := 0; k < eng.PoolSize(i); k++ {
				idx[i] = k
				eng.Assign(i, k)
				rec(i + 1)
			}
		}
		rec(0)
	}
}

// BenchmarkEngineBuild measures one global-phase engine build over
// memo-served local results: a 10-activity mixed tree of 50 candidates
// per activity, the shape of BenchmarkEvalProbe. The tree comes compiled
// from the task and the utilities are read from the ranked shortlists,
// so allocs/op counts only the engine's mutable state.
func BenchmarkEngineBuild(b *testing.B) {
	ps := qos.StandardSet()
	g := workload.NewGenerator(1)
	laws := workload.DefaultLaws(ps)
	tk := g.Task("B", 10, workload.ShapeMixed)
	cands := g.Candidates(tk, 50, ps, laws)
	req := &Request{Task: tk, Properties: ps, Approach: qos.Pessimistic,
		Constraints: g.Constraints(tk, ps, laws, workload.AtMean, 3)}
	_, locals, err := NewSelector(Options{}).SelectReusing(context.Background(), req, cands, nil)
	if err != nil {
		b.Fatal(err)
	}
	eval, err := localEvaluator(req, cands, locals)
	if err != nil {
		b.Fatal(err)
	}
	acts := tk.Activities()
	ranked := make([][]RankedCandidate, len(acts))
	for i, a := range acts {
		ranked[i] = locals[a.ID].Ranked
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := newEvalEngineRanked(eval, locals, ranked)
		if err != nil {
			b.Fatal(err)
		}
		if eng.Violation() < 0 {
			b.Fatal("negative violation")
		}
	}
}
