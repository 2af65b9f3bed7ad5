package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/task"
	"qasom/internal/workload"
)

// kernelGroup drives kernels that address one candidate indexing
// through identical operations and holds each to the reference kernel
// after every step.
type kernelGroup struct {
	ref   evalKernel
	names []string
	ks    []evalKernel
	pool  func(act int) int
}

// check compares every kernel's queries with the reference, bit for bit.
func (kg *kernelGroup) check(t *testing.T, step int) {
	t.Helper()
	wantAgg := kg.ref.Aggregate()
	for i, k := range kg.ks {
		if g, w := k.Violation(), kg.ref.Violation(); g != w {
			t.Fatalf("step %d: %s violation %v, reference %v", step, kg.names[i], g, w)
		}
		if g, w := k.Utility(), kg.ref.Utility(); g != w {
			t.Fatalf("step %d: %s utility %v, reference %v", step, kg.names[i], g, w)
		}
		if g, w := k.Feasible(), kg.ref.Feasible(); g != w {
			t.Fatalf("step %d: %s feasible %v, reference %v", step, kg.names[i], g, w)
		}
		if g := k.Aggregate(); !reflect.DeepEqual(g, wantAgg) {
			t.Fatalf("step %d: %s aggregate %v, reference %v", step, kg.names[i], g, wantAgg)
		}
	}
}

// drive applies the same random loads and swaps to every kernel, one
// kernel after the other, so a kernel that wrote shared state would move
// the others' next step.
func (kg *kernelGroup) drive(t *testing.T, rng *rand.Rand, n, steps int) {
	t.Helper()
	all := append([]evalKernel{kg.ref}, kg.ks...)
	kg.check(t, -1)
	for step := 0; step < steps; step++ {
		switch rng.Intn(8) {
		case 0:
			idx := make([]int, n)
			for a := range idx {
				idx[a] = rng.Intn(kg.pool(a))
			}
			for _, k := range all {
				k.Load(idx)
			}
		default:
			a := rng.Intn(n)
			c := rng.Intn(kg.pool(a))
			for _, k := range all {
				k.Assign(a, c)
			}
		}
		kg.check(t, step)
	}
	for a := 0; a < n; a++ {
		for c := 0; c < kg.pool(a); c++ {
			w := kg.ref.CandidateUtility(a, c)
			for i, k := range kg.ks {
				if g := k.CandidateUtility(a, c); g != w {
					t.Fatalf("%s utility of %d/%d: %v, reference %v", kg.names[i], a, c, g, w)
				}
			}
		}
	}
}

// sharesTree reports whether the engine evaluates over the task's own
// compiled tree.
func sharesTree(e *EvalEngine, tk *task.Task) bool {
	f := tk.Flat()
	return &e.nodes[0] == &f.Nodes[0] && &e.leaf[0] == &f.Leaf[0]
}

// TestDifferentialCompiledTreeReuse: a task compiles its tree once and
// every engine over the task evaluates on that one compiled tree. The
// engines sharing it must stay bit-identical to the naive kernel and to
// an engine over a fresh compile (the same task cloned), through
// interleaved swaps. Engine cases cover NewEvalEngine (the baselines'
// constructor) and the global phase's engine over memo-served ranked
// shortlists whose utilities it reads in place; pipeline cases run
// scalar and Pareto selections, with and without dependency masks, on
// the shared task, again on it, on a clone and through the naive kernel,
// and compare decisions including the lazily built rotation.
func TestDifferentialCompiledTreeReuse(t *testing.T) {
	ps := qos.StandardSet()
	laws := workload.DefaultLaws(ps)
	shapes := []struct {
		name string
		mk   func(g *workload.Generator) *task.Task
	}{
		{"linear", func(g *workload.Generator) *task.Task { return g.Task("L", 5, workload.ShapeLinear) }},
		{"mixed", func(g *workload.Generator) *task.Task { return g.Task("M", 8, workload.ShapeMixed) }},
		{"choice", func(g *workload.Generator) *task.Task { return g.Task("C", 6, workload.ShapeChoiceHeavy) }},
		{"nested", func(*workload.Generator) *task.Task { return nestedTask() }},
	}
	kinds := map[task.Pattern]bool{}
	ctx := context.Background()
	for seed := int64(1); seed <= 4; seed++ {
		for _, sh := range shapes {
			for _, approach := range qos.Approaches() {
				t.Run(fmt.Sprintf("engine/seed=%d/%s/%v", seed, sh.name, approach), func(t *testing.T) {
					g := workload.NewGenerator(seed)
					tk := sh.mk(g)
					fresh := tk.Clone()
					cands := g.Candidates(tk, 10, ps, laws)
					req := &Request{Task: tk, Properties: ps, Approach: approach,
						Constraints: g.Constraints(tk, ps, laws, workload.AtMean, 3)}
					freshReq := *req
					freshReq.Task = fresh
					if err := req.Validate(); err != nil {
						t.Fatal(err)
					}
					for _, n := range tk.Flat().Nodes {
						kinds[n.Kind] = true
					}

					// Plain pools, the baselines' constructor.
					eval, err := NewEvaluator(req, cands)
					if err != nil {
						t.Fatal(err)
					}
					freshEval, err := NewEvaluator(&freshReq, cands)
					if err != nil {
						t.Fatal(err)
					}
					pooled := &kernelGroup{ref: newNaiveKernel(eval, cands)}
					for i, ev := range []*Evaluator{eval, eval, freshEval} {
						e, err := NewEvalEngine(ev, cands)
						if err != nil {
							t.Fatal(err)
						}
						if i < 2 && !sharesTree(e, tk) || i == 2 && sharesTree(e, tk) {
							t.Fatalf("pooled engine %d: wrong compiled tree", i)
						}
						pooled.names = append(pooled.names, fmt.Sprintf("pooled engine %d", i))
						pooled.ks = append(pooled.ks, e)
						pooled.pool = e.PoolSize
					}
					if !reflect.DeepEqual(tk.Flat(), fresh.Flat()) {
						t.Fatal("a fresh compile of the cloned task differs from the shared one")
					}
					pooled.drive(t, rand.New(rand.NewSource(seed)), len(tk.Activities()), 80)

					// Memo-served ranked shortlists: the engines read the local
					// phase's utilities in place.
					_, locals, err := NewSelector(Options{Workers: 1}).SelectReusing(ctx, req, cands, nil)
					if err != nil {
						t.Fatal(err)
					}
					lev, err := localEvaluator(req, cands, locals)
					if err != nil {
						t.Fatal(err)
					}
					freshLev, err := localEvaluator(&freshReq, cands, locals)
					if err != nil {
						t.Fatal(err)
					}
					acts := tk.Activities()
					ranked := make([][]RankedCandidate, len(acts))
					pools := make(map[string][]registry.Candidate, len(acts))
					for i, a := range acts {
						ranked[i] = locals[a.ID].Ranked
						for k := range ranked[i] {
							pools[a.ID] = append(pools[a.ID], ranked[i][k].Candidate())
						}
					}
					rk := &kernelGroup{ref: newNaiveKernel(lev, pools)}
					for i, ev := range []*Evaluator{lev, lev, freshLev} {
						e, err := newEvalEngineRanked(ev, locals, ranked)
						if err != nil {
							t.Fatal(err)
						}
						if e.utils != nil {
							t.Fatalf("ranked engine %d copied the local phase's utilities", i)
						}
						if i < 2 && !sharesTree(e, tk) || i == 2 && sharesTree(e, tk) {
							t.Fatalf("ranked engine %d: wrong compiled tree", i)
						}
						rk.names = append(rk.names, fmt.Sprintf("ranked engine %d", i))
						rk.ks = append(rk.ks, e)
						rk.pool = e.PoolSize
					}
					rk.drive(t, rand.New(rand.NewSource(seed+100)), len(acts), 80)
				})
			}
		}
	}
	for _, k := range []task.Pattern{task.PatternSequence, task.PatternParallel, task.PatternChoice, task.PatternLoop} {
		if !kinds[k] {
			t.Fatalf("no engine case compiled a %v node", k)
		}
	}

	for seed := int64(1); seed <= 3; seed++ {
		for _, sh := range []workload.TaskShape{workload.ShapeMixed, workload.ShapeChoiceHeavy} {
			for _, pareto := range []bool{false, true} {
				for _, deps := range []bool{false, true} {
					t.Run(fmt.Sprintf("select/seed=%d/shape=%d/pareto=%v/deps=%v", seed, sh, pareto, deps), func(t *testing.T) {
						g := workload.NewGenerator(seed)
						tk := g.Task("R", 6, sh)
						cands := g.Candidates(tk, 12, ps, laws)
						stampProviders(cands)
						req := &Request{Task: tk, Properties: ps,
							Constraints: g.Constraints(tk, ps, laws, workload.AtMean, 3),
							Objectives:  []string{"responseTime", "availability"}}
						if deps {
							req.Dependencies = mixedDeps(6, 12)
						}
						freshReq := *req
						freshReq.Task = tk.Clone()
						opts := Options{Workers: 1, ParetoMode: pareto}
						naiveOpts := opts
						naiveOpts.NaiveEvaluation = true

						first, locals, err := NewSelector(opts).SelectReusing(ctx, req, cands, nil)
						if err != nil {
							t.Fatal(err)
						}
						again, err := NewSelector(opts).SelectContext(ctx, req, cands)
						if err != nil {
							t.Fatal(err)
						}
						memo, _, err := NewSelector(opts).SelectReusing(ctx, req, cands, locals)
						if err != nil {
							t.Fatal(err)
						}
						fresh, err := NewSelector(opts).SelectContext(ctx, &freshReq, cands)
						if err != nil {
							t.Fatal(err)
						}
						naive, err := NewSelector(naiveOpts).SelectContext(ctx, req, cands)
						if err != nil {
							t.Fatal(err)
						}
						for _, r := range []*Result{again, memo, fresh, naive} {
							sameDecision(t, r, first)
						}
					})
				}
			}
		}
	}
}

// TestRacedFirstTreeCompile races first selections on one task: every
// goroutine's selection may be the one that compiles the task's tree.
// All must decide as a selection over a private clone does, and every
// caller must end up holding the one tree the task keeps.
func TestRacedFirstTreeCompile(t *testing.T) {
	ps := qos.StandardSet()
	laws := workload.DefaultLaws(ps)
	ctx := context.Background()
	for seed := int64(1); seed <= 4; seed++ {
		g := workload.NewGenerator(seed)
		tk := g.Task("race", 8, workload.ShapeMixed)
		cands := g.Candidates(tk, 16, ps, laws)
		req := &Request{Task: tk, Properties: ps, Constraints: g.Constraints(tk, ps, laws, workload.AtMean, 2)}
		ref := *req
		ref.Task = tk.Clone()
		want, err := NewSelector(Options{Workers: 1}).SelectContext(ctx, &ref, cands)
		if err != nil {
			t.Fatal(err)
		}
		wantDec := decisionOf(want)

		const racers = 6
		var wg sync.WaitGroup
		results := make([]*Result, racers)
		trees := make([]*task.Flat, racers)
		errs := make([]error, racers)
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = NewSelector(Options{Workers: 1}).SelectContext(ctx, req, cands)
				trees[i] = tk.Flat()
			}(i)
		}
		wg.Wait()
		for i := 0; i < racers; i++ {
			if errs[i] != nil {
				t.Fatalf("seed %d racer %d: %v", seed, i, errs[i])
			}
			if trees[i] != trees[0] {
				t.Fatalf("seed %d: racers hold different compiled trees", seed)
			}
			if got := decisionOf(results[i]); !reflect.DeepEqual(got, wantDec) {
				t.Fatalf("seed %d racer %d: decision diverges from a private compile:\n got %+v\nwant %+v", seed, i, got, wantDec)
			}
		}
	}
}
