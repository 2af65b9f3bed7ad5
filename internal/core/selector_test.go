package core

import (
	"context"
	"maps"
	"math/rand"
	"testing"

	"qasom/internal/qos"
	"qasom/internal/registry"
)

func TestLocalSelectGrading(t *testing.T) {
	ps := twoProps()
	// Candidate "star" dominates on both properties; "half" is best on
	// nothing but close on rt; "dud" is worst on both.
	cands := []registry.Candidate{
		cand("dud", 200, 0.80),
		cand("star", 20, 0.99),
		cand("half", 60, 0.82),
		cand("mid", 120, 0.90),
	}
	lr, err := localSelect("a", cands, ps, qos.UniformWeights(ps), 2, 0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("localSelect: %v", err)
	}
	if len(lr.Ranked) != 4 {
		t.Fatalf("result shape wrong: %+v", lr)
	}
	if lr.Ranked[0].Service.ID != "star" {
		t.Errorf("star should rank first, got %s", lr.Ranked[0].Service.ID)
	}
	if lr.Ranked[0].Level != 1 || lr.Ranked[0].ClassSize != ps.Len() {
		t.Errorf("dominant candidate should be in QC_{1,%d}: level %d class %d",
			ps.Len(), lr.Ranked[0].Level, lr.Ranked[0].ClassSize)
	}
	if last := lr.Ranked[3]; last.Service.ID != "dud" {
		t.Errorf("dud should rank last, got %s", last.Service.ID)
	}
	// Ranked order is monotone in (level, classSize, utility).
	for i := 1; i < len(lr.Ranked); i++ {
		a, b := lr.Ranked[i-1], lr.Ranked[i]
		if a.Level > b.Level {
			t.Errorf("ranked order violates level monotonicity at %d", i)
		}
		if a.Level == b.Level && a.ClassSize < b.ClassSize {
			t.Errorf("ranked order violates class monotonicity at %d", i)
		}
	}
	// Scores are normalized.
	for _, rc := range lr.Ranked {
		for _, s := range rc.Scores {
			if s < 0 || s > 1 {
				t.Fatalf("score %g outside [0,1]", s)
			}
		}
		if rc.Utility < 0 || rc.Utility > 1 {
			t.Fatalf("utility %g outside [0,1]", rc.Utility)
		}
	}
}

func TestLocalSelectSingleCandidate(t *testing.T) {
	ps := twoProps()
	lr, err := localSelect("a", []registry.Candidate{cand("only", 10, 0.9)}, ps,
		qos.UniformWeights(ps), 4, 0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Ranked) != 1 || lr.Ranked[0].Level != 1 {
		t.Errorf("single candidate should be level 1: %+v", lr.Ranked)
	}
	if _, err := localSelect("a", nil, ps, nil, 4, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty candidates should error")
	}
}

func TestSelectFeasible(t *testing.T) {
	tk := seqTask("a", "b", "c")
	cands := genCandidates(tk, 10)
	req := &Request{
		Task:       tk,
		Properties: twoProps(),
		Constraints: qos.Constraints{
			{Property: "rt", Bound: 150},    // forces cheap services
			{Property: "avail", Bound: 0.9}, // product over 3 activities
		},
	}
	res, err := NewSelector(Options{}).Select(req, cands)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if !res.Feasible {
		t.Fatalf("expected feasible composition, violation %g, agg %v", res.Violation, res.Aggregated)
	}
	if len(res.Assignment) != 3 {
		t.Fatalf("assignment covers %d activities, want 3", len(res.Assignment))
	}
	// Reported aggregate actually satisfies the constraints.
	if !req.Constraints.Satisfied(req.Properties, res.Aggregated) {
		t.Errorf("reported feasible but aggregate %v violates %v", res.Aggregated, req.Constraints)
	}
	if res.Utility < 0 || res.Utility > 1 {
		t.Errorf("utility %g outside [0,1]", res.Utility)
	}
	if res.Stats.LevelsExplored < 1 || res.Stats.Evaluations == 0 {
		t.Errorf("stats not recorded: %+v", res.Stats)
	}
	if res.Stats.LocalDuration <= 0 || res.Stats.GlobalDuration <= 0 {
		t.Errorf("durations not recorded: %+v", res.Stats)
	}
}

func TestSelectInfeasibleReturnsBestEffort(t *testing.T) {
	tk := seqTask("a", "b")
	cands := genCandidates(tk, 5)
	req := &Request{
		Task:        tk,
		Properties:  twoProps(),
		Constraints: qos.Constraints{{Property: "rt", Bound: 1}}, // impossible
	}
	res, err := NewSelector(Options{}).Select(req, cands)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if res.Feasible {
		t.Fatal("impossible constraints reported feasible")
	}
	if res.Violation <= 0 {
		t.Error("violation should be positive")
	}
	if len(res.Assignment) != 2 {
		t.Error("best-effort assignment should still cover all activities")
	}
	// Best effort means rt-minimal services: the fastest candidates are
	// a-s0 (rt 20) and b-s0 (rt 21).
	if res.Assignment["a"].Service.ID != "a-s0" || res.Assignment["b"].Service.ID != "b-s0" {
		t.Errorf("best effort should minimise violation: got %s, %s",
			res.Assignment["a"].Service.ID, res.Assignment["b"].Service.ID)
	}
}

func TestSelectTightConstraintsRequireRepair(t *testing.T) {
	tk := seqTask("a", "b", "c", "d")
	cands := genCandidates(tk, 20)
	// rt bound only slightly above the minimum achievable sum (20+21+22+23=86):
	// the highest-utility assignment is unlikely to satisfy it directly on
	// availability-weighted utility, exercising the repair loop.
	req := &Request{
		Task:        tk,
		Properties:  twoProps(),
		Constraints: qos.Constraints{{Property: "rt", Bound: 95}},
		Weights:     qos.Weights{0.1, 0.9}, // prefer availability
	}
	res, err := NewSelector(Options{}).Select(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("feasible composition exists (rt=86) but not found; agg %v", res.Aggregated)
	}
	if res.Aggregated[0] > 95 {
		t.Errorf("rt %g exceeds bound", res.Aggregated[0])
	}
}

func TestSelectAlternates(t *testing.T) {
	tk := seqTask("a", "b")
	cands := genCandidates(tk, 8)
	req := &Request{
		Task:        tk,
		Properties:  twoProps(),
		Constraints: qos.Constraints{{Property: "rt", Bound: 500}},
	}
	res, err := NewSelector(Options{MaxAlternates: 3}).Select(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	for id, alts := range res.Alternates() {
		if len(alts) > 3 {
			t.Errorf("activity %s has %d alternates, cap 3", id, len(alts))
		}
		for _, alt := range alts {
			if alt.Service.ID == res.Assignment[id].Service.ID {
				t.Errorf("alternate duplicates the chosen service for %s", id)
			}
		}
	}
	// With a loose bound, swapping in the first alternate keeps
	// feasibility (they are ordered substitution-first).
	for id, alts := range res.Alternates() {
		if len(alts) == 0 {
			continue
		}
		trial := maps.Clone(res.Assignment)
		trial[id] = alts[0]
		eval, err := NewEvaluator(req, cands)
		if err != nil {
			t.Fatal(err)
		}
		if !eval.Feasible(trial) {
			t.Errorf("first alternate for %s breaks feasibility", id)
		}
	}
}

func TestSelectFlatGlobalAblation(t *testing.T) {
	tk := seqTask("a", "b", "c")
	cands := genCandidates(tk, 10)
	req := &Request{
		Task:        tk,
		Properties:  twoProps(),
		Constraints: qos.Constraints{{Property: "rt", Bound: 150}},
	}
	res, err := NewSelector(Options{FlatGlobal: true}).Select(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Error("flat global should still find the feasible composition here")
	}
	if res.Stats.LevelsExplored != 1 {
		t.Errorf("flat global explored %d levels, want 1", res.Stats.LevelsExplored)
	}
}

func TestSelectDeterministic(t *testing.T) {
	tk := seqTask("a", "b", "c")
	cands := genCandidates(tk, 12)
	req := &Request{
		Task:        tk,
		Properties:  twoProps(),
		Constraints: qos.Constraints{{Property: "rt", Bound: 200}},
	}
	r1, err := NewSelector(Options{}).Select(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewSelector(Options{}).Select(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	for id := range r1.Assignment {
		if r1.Assignment[id].Service.ID != r2.Assignment[id].Service.ID {
			t.Fatalf("selection not deterministic for %s", id)
		}
	}
}

func TestSelectKVariants(t *testing.T) {
	tk := seqTask("a", "b")
	cands := genCandidates(tk, 15)
	req := &Request{
		Task:        tk,
		Properties:  twoProps(),
		Constraints: qos.Constraints{{Property: "rt", Bound: 300}},
	}
	for _, k := range []int{1, 2, 3, 5, 8} {
		res, err := NewSelector(Options{K: k}).Select(req, cands)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if !res.Feasible {
			t.Errorf("K=%d: expected feasible", k)
		}
	}
}

func TestSelectMissingCandidates(t *testing.T) {
	tk := seqTask("a", "b")
	req := &Request{Task: tk, Properties: twoProps()}
	_, err := NewSelector(Options{}).Select(req, map[string][]registry.Candidate{
		"a": {cand("x", 1, 0.9)},
	})
	if err == nil {
		t.Error("missing candidates for b should error")
	}
}

func TestSelectFromLocalMissing(t *testing.T) {
	tk := seqTask("a", "b")
	req := &Request{Task: tk, Properties: twoProps()}
	lr, err := localSelect("a", []registry.Candidate{cand("x", 1, 0.9)}, req.Properties,
		qos.UniformWeights(req.Properties), 2, 0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewSelector(Options{}).SelectFromLocalContext(context.Background(), req, map[string]*LocalResult{"a": lr})
	if err == nil {
		t.Error("missing local result should error")
	}
}
