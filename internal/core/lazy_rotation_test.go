package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/workload"
)

// eagerAlternates is the rotation as the global phase used to build it
// inside finish: alternatesFor for every activity on the selection's own
// kernel, positioned on the final assignment. A scalar run leaves its
// kernel there already; a Pareto run whose best front member is the
// scalar incumbent leaves it wherever the archive search stopped, so the
// kernel is loaded only then.
func (g *globalState) eagerAlternates(final []int) map[string][]registry.Candidate {
	if !equalIndices(g.eng.Snapshot(nil), final) {
		g.eng.Load(final)
	}
	out := make(map[string][]registry.Candidate, len(g.acts))
	for a, id := range g.acts {
		out[id] = g.alternatesFor(a)
	}
	return out
}

// sameRotation compares two rotations activity by activity, position by
// position.
func sameRotation(got, want map[string][]registry.Candidate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d activities, want %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok || g == nil {
			return fmt.Errorf("activity %s: no rotation", id)
		}
		if len(g) != len(w) {
			return fmt.Errorf("activity %s: length %d, want %d", id, len(g), len(w))
		}
		for i := range w {
			if !reflect.DeepEqual(g[i], w[i]) {
				return fmt.Errorf("activity %s: position %d holds %s, want %s", id, i, g[i].Service.ID, w[i].Service.ID)
			}
		}
	}
	return nil
}

// lazyCoverage counts the regimes a lazy-rotation run went through.
type lazyCoverage struct {
	paretoMoved, infeasible, masked, cloned int
}

// checkLazyRotation runs one selection through a globalState, as
// selectGlobal does, and holds the rotation Result.Alternates builds
// against the eager one computed in the selection's own kernel. Every
// other result is cloned before its first read: the clone must hold an
// already-built, private rotation equal to the eager one.
func checkLazyRotation(t *testing.T, label string, req *Request, cands map[string][]registry.Candidate,
	opts Options, clone bool, cov *lazyCoverage) {
	t.Helper()
	ctx := context.Background()
	opts = opts.withDefaults()
	_, locals, err := NewSelector(opts).SelectReusing(ctx, req, cands, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	eval, err := localEvaluator(req, cands, locals)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	g := &globalState{ctx: ctx, req: req, eval: eval, locals: locals, opts: opts}
	var res *Result
	if opts.ParetoMode {
		scalarOpts := opts
		scalarOpts.ParetoMode = false
		sg := &globalState{ctx: ctx, req: req, eval: eval, locals: locals, opts: scalarOpts}
		scalar, err := sg.run()
		if err != nil {
			t.Fatalf("%s: scalar: %v", label, err)
		}
		if res, err = g.runPareto(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !equalIndices(res.alts.final, scalar.alts.final) {
			cov.paretoMoved++
		}
		for i := range res.Front {
			if res.Front[i].Alternates() != nil {
				t.Fatalf("%s: front member %d carries a rotation", label, i)
			}
		}
	} else if res, err = g.run(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !res.Feasible {
		cov.infeasible++
	}
	if g.deps != nil {
		cov.masked++
	}
	if res.alts == nil || res.alts.req == nil || res.alts.alts != nil {
		t.Fatalf("%s: the selection built its rotation eagerly", label)
	}
	want := g.eagerAlternates(res.alts.final)

	if clone {
		cov.cloned++
		cp := res.Clone()
		if cp.alts == nil || cp.alts.req != nil || cp.alts.alts == nil {
			t.Fatalf("%s: Clone of an unread result holds an unbuilt rotation", label)
		}
		if res.alts.req != nil {
			t.Fatalf("%s: Clone built the rotation but kept its inputs", label)
		}
		if err := sameRotation(cp.Alternates(), want); err != nil {
			t.Fatalf("%s: cloned rotation: %v", label, err)
		}
		orig := res.Alternates()
		for id, list := range cp.Alternates() {
			if len(list) > 0 && &list[0] == &orig[id][0] {
				t.Fatalf("%s: activity %s: the clone shares its rotation list", label, id)
			}
			cp.Alternates()[id] = nil
		}
		if err := sameRotation(res.Alternates(), want); err != nil {
			t.Fatalf("%s: writing the clone moved the original: %v", label, err)
		}
	}
	if err := sameRotation(res.Alternates(), want); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if res.alts.req != nil || res.alts.eval != nil || res.alts.locals != nil {
		t.Fatalf("%s: a built rotation still pins its inputs", label)
	}
}

// TestDifferentialLazyRotation holds the rotation a Result builds on its
// first Alternates call to the rotation the selection used to build
// eagerly in its own kernel, position by position. Random tie-heavy
// requests with duplicate IDs, constraints from impossible (best-effort
// results) to loose, with and without requires/excludes masks; scalar
// and Pareto mode (including runs where the best front member is not
// the scalar incumbent); both kernels; MaxAlternates 1, 8 and 64. Half
// the results are cloned before their first read.
func TestDifferentialLazyRotation(t *testing.T) {
	var cov lazyCoverage
	acts := []string{"a", "b", "c", "d"}
	rng := rand.New(rand.NewSource(33))
	bounds := []float64{70, 140, 200, 300}
	for trial := 0; trial < 24; trial++ {
		cands := randomAltPools(rng, acts)
		req := &Request{
			Task:        seqTask(acts...),
			Properties:  twoProps(),
			Constraints: qos.Constraints{{Property: "rt", Bound: bounds[trial%len(bounds)]}},
		}
		if trial%3 != 0 {
			pickIDs := func(act string) []registry.ServiceID {
				var ids []registry.ServiceID
				for _, c := range cands[act] {
					if rng.Intn(2) == 0 {
						ids = append(ids, c.Service.ID)
					}
				}
				if len(ids) == 0 {
					ids = append(ids, cands[act][0].Service.ID)
				}
				return ids
			}
			req.Dependencies = []Dependency{
				{Kind: DepRequires, From: "a", To: "b", ToServices: pickIDs("b")},
				{Kind: DepExcludes, From: "c", To: "d", FromService: cands["c"][0].Service.ID, ToServices: pickIDs("d")},
			}
		}
		for _, pareto := range []bool{false, true} {
			for _, naive := range []bool{false, true} {
				for _, m := range []int{1, 8, 64} {
					opts := Options{Workers: 1, MaxAlternates: m, NaiveEvaluation: naive, ParetoMode: pareto}
					label := fmt.Sprintf("trial %d pareto=%v naive=%v max=%d", trial, pareto, naive, m)
					checkLazyRotation(t, label, req, cands, opts, (trial+m)%2 == 0, &cov)
				}
			}
		}
	}

	// Mixed task shapes (parallel, choice and loop nodes) from the
	// workload generator.
	ps := qos.StandardSet()
	laws := workload.DefaultLaws(ps)
	for seed := int64(1); seed <= 3; seed++ {
		gen := workload.NewGenerator(seed)
		tk := gen.Task("R", 5, workload.ShapeMixed)
		cands := gen.Candidates(tk, 12, ps, laws)
		stampProviders(cands)
		req := &Request{
			Task:         tk,
			Properties:   ps,
			Constraints:  gen.Constraints(tk, ps, laws, workload.AtMean, 3),
			Objectives:   []string{"responseTime", "availability"},
			Dependencies: mixedDeps(5, 12),
		}
		for _, pareto := range []bool{false, true} {
			for _, naive := range []bool{false, true} {
				opts := Options{Workers: 1, NaiveEvaluation: naive, ParetoMode: pareto}
				label := fmt.Sprintf("seed %d pareto=%v naive=%v", seed, pareto, naive)
				checkLazyRotation(t, label, req, cands, opts, seed%2 == 0, &cov)
			}
		}
	}

	if cov.paretoMoved == 0 || cov.infeasible == 0 || cov.masked == 0 || cov.cloned == 0 {
		t.Fatalf("a regime went unexercised: %+v", cov)
	}
}
