package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/workload"
)

// altEntry is one substitution candidate of the reference rotation,
// addressed by its pool index.
type altEntry struct {
	idx     int
	keepsOK bool
	utility float64
}

// refShape reports what one reference rotation looked like, so the
// differential can check that every regime was exercised.
type refShape struct {
	masked, admissible, keepers int
}

// referenceAlternatesFor is the full-scan rotation: probe every
// admissible pool member, sort them all keepers first, then by utility,
// then by ID (stable), and keep MaxAlternates. alternatesFor must
// return exactly this.
func (g *globalState) referenceAlternatesFor(a int) ([]registry.Candidate, refShape) {
	var shape refShape
	pool := g.ranked[a]
	prev := g.eng.Current(a)
	chosen := pool[prev].Service.ID
	alts := make([]altEntry, 0, len(pool))
	for i := range pool {
		if pool[i].Service.ID == chosen {
			continue
		}
		if g.deps != nil && !g.deps.admissible(a, i, g.eng) {
			shape.masked++
			continue
		}
		g.eng.Assign(a, i)
		e := altEntry{idx: i, keepsOK: g.feasibleNow(), utility: g.eng.CandidateUtility(a, i)}
		if e.keepsOK {
			shape.keepers++
		}
		alts = append(alts, e)
	}
	g.eng.Assign(a, prev)
	shape.admissible = len(alts)
	sortAlternates(alts, pool)
	limit := g.opts.MaxAlternates
	if limit > len(alts) {
		limit = len(alts)
	}
	out := make([]registry.Candidate, limit)
	for i := 0; i < limit; i++ {
		out[i] = pool[alts[i].idx].Candidate()
	}
	return out, shape
}

// sortAlternates orders substitution candidates stably: feasibility
// keepers first, then by utility (higher first), then by service ID.
func sortAlternates(alts []altEntry, pool []RankedCandidate) {
	slices.SortStableFunc(alts, func(a, b altEntry) int {
		if a.keepsOK != b.keepsOK {
			if a.keepsOK {
				return -1
			}
			return 1
		}
		if a.utility != b.utility {
			if a.utility > b.utility {
				return -1
			}
			return 1
		}
		return cmp.Compare(pool[a.idx].Service.ID, pool[b.idx].Service.ID)
	})
}

// altCoverage counts the regimes a differential run went through.
type altCoverage struct {
	noKeepers, earlyStop, filled, masked, infeasible int
}

// checkRotations compares every activity's rotation in res against the
// reference computed on g's current assignment, position by position.
func checkRotations(t *testing.T, label string, g *globalState, res *Result, cov *altCoverage) {
	t.Helper()
	if res.Violation > 0 {
		cov.infeasible++
	}
	for a, id := range g.acts {
		want, shape := g.referenceAlternatesFor(a)
		got := res.Alternates()[id]
		if got == nil {
			t.Fatalf("%s: activity %s: nil rotation", label, id)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: activity %s: rotation length %d, want %d", label, id, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: activity %s: position %d holds %s (%v), want %s (%v)",
					label, id, i, got[i].Service.ID, got[i].Vector, want[i].Service.ID, want[i].Vector)
			}
		}
		switch {
		case shape.admissible > 0 && shape.keepers == 0:
			cov.noKeepers++
		case shape.keepers > g.opts.MaxAlternates:
			cov.earlyStop++
		case shape.keepers < len(want):
			cov.filled++
		}
		if shape.masked > 0 {
			cov.masked++
		}
	}
}

// randomAltPools draws per-activity pools full of ties: rt and avail
// from three values each (tied utilities), service IDs from about half
// the pool size (duplicate IDs within a pool).
func randomAltPools(rng *rand.Rand, acts []string) map[string][]registry.Candidate {
	rts := []float64{20, 40, 60}
	avails := []float64{0.9, 0.95, 0.99}
	out := make(map[string][]registry.Candidate, len(acts))
	for _, id := range acts {
		n := 1 + rng.Intn(20)
		list := make([]registry.Candidate, n)
		for k := range list {
			list[k] = cand(fmt.Sprintf("%s-s%d", id, rng.Intn(n/2+1)),
				rts[rng.Intn(len(rts))], avails[rng.Intn(len(avails))])
		}
		out[id] = list
	}
	return out
}

// TestDifferentialAlternatesRotation holds the early-stopping rotation
// against the full-scan reference, position by position. Direct cases
// load random assignments (feasible and infeasible) over tie-heavy pools
// with duplicate IDs, under constraints from impossible to loose and
// with requires/excludes masks; pipeline cases run the scalar and
// Pareto-front selectors end to end and rebuild the reference on the
// returned assignment. Both kernels, MaxAlternates 1, 3, 8 and above
// every pool size.
func TestDifferentialAlternatesRotation(t *testing.T) {
	maxAlts := []int{1, 3, 8, 64}
	var cov altCoverage

	acts := []string{"a", "b", "c", "d"}
	rng := rand.New(rand.NewSource(27))
	bounds := []float64{70, 140, 200, 300} // rt sum: impossible … always met
	for trial := 0; trial < 60; trial++ {
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
		if err := req.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		eval, err := NewEvaluator(req, cands)
		if err != nil {
			t.Fatal(err)
		}
		locals := make(map[string]*LocalResult, len(acts))
		for _, id := range acts {
			ranked := make([]RankedCandidate, len(cands[id]))
			for k, c := range cands[id] {
				ranked[k] = RankedCandidate{Service: c.Service, Vector: c.Vector, Level: 1}
			}
			locals[id] = &LocalResult{Ranked: ranked, Levels: 1}
		}
		for _, naive := range []bool{false, true} {
			for _, m := range maxAlts {
				g := &globalState{ctx: context.Background(), req: req, eval: eval, locals: locals,
					opts: Options{MaxAlternates: m, NaiveEvaluation: naive}.withDefaults()}
				if err := g.init(); err != nil {
					t.Fatal(err)
				}
				for state := 0; state < 4; state++ {
					idx := make([]int, len(acts))
					for a := range idx {
						idx[a] = rng.Intn(len(g.ranked[a]))
					}
					g.eng.Load(idx)
					res := g.finish(false)
					if got := g.eng.Snapshot(nil); !equalIndices(got, idx) {
						t.Fatalf("finish moved the assignment: %v, want %v", got, idx)
					}
					checkRotations(t, fmt.Sprintf("trial %d naive=%v max=%d state %d", trial, naive, m, state), g, res, &cov)
				}
			}
		}
	}

	ps := qos.StandardSet()
	laws := workload.DefaultLaws(ps)
	for seed := int64(1); seed <= 3; seed++ {
		for _, pareto := range []bool{false, true} {
			for _, withDeps := range []bool{false, true} {
				gen := workload.NewGenerator(seed)
				tk := gen.Task("R", 5, workload.ShapeMixed)
				cands := gen.Candidates(tk, 12, ps, laws)
				stampProviders(cands)
				req := &Request{
					Task:        tk,
					Properties:  ps,
					Constraints: gen.Constraints(tk, ps, laws, workload.AtMean, 3),
					Objectives:  []string{"responseTime", "availability"},
				}
				if withDeps {
					req.Dependencies = mixedDeps(5, 12)
				}
				eval, err := NewEvaluator(req, cands)
				if err != nil {
					t.Fatal(err)
				}
				for _, naive := range []bool{false, true} {
					for _, m := range maxAlts {
						opts := Options{Workers: 1, MaxAlternates: m, NaiveEvaluation: naive, ParetoMode: pareto}
						res, locals, err := NewSelector(opts).SelectReusing(context.Background(), req, cands, nil)
						if err != nil {
							t.Fatal(err)
						}
						g := &globalState{ctx: context.Background(), req: req, eval: eval, locals: locals, opts: opts.withDefaults()}
						if err := g.init(); err != nil {
							t.Fatal(err)
						}
						// The generator's service IDs are unique per pool, so
						// the returned bindings name their pool indices.
						idx := make([]int, len(g.acts))
						for a, id := range g.acts {
							idx[a] = slices.IndexFunc(g.ranked[a], func(rc RankedCandidate) bool {
								return rc.Service.ID == res.Assignment[id].Service.ID
							})
						}
						g.eng.Load(idx)
						checkRotations(t, fmt.Sprintf("seed %d pareto=%v deps=%v naive=%v max=%d", seed, pareto, withDeps, naive, m), g, res, &cov)
					}
				}
			}
		}
	}

	if cov.noKeepers == 0 || cov.earlyStop == 0 || cov.filled == 0 || cov.masked == 0 || cov.infeasible == 0 {
		t.Fatalf("a regime went unexercised: %+v", cov)
	}
}
