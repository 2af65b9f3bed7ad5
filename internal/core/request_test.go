package core

import (
	"fmt"
	"math"
	"testing"

	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/semantics"
	"qasom/internal/task"
)

// twoProps is a small property set: minimized time + maximized
// availability.
func twoProps() *qos.PropertySet {
	return qos.MustNewPropertySet(
		&qos.Property{Name: "rt", Concept: semantics.ResponseTime, Direction: qos.Minimized, Kind: qos.KindTime, Unit: qos.Milliseconds},
		&qos.Property{Name: "avail", Concept: semantics.Availability, Direction: qos.Maximized, Kind: qos.KindProbability, Unit: qos.Ratio},
	)
}

// cand builds a candidate with the given QoS values.
func cand(id string, vals ...float64) registry.Candidate {
	return registry.Candidate{
		Service: &registry.Description{ID: registry.ServiceID(id), Concept: "C"},
		Vector:  qos.Vector(vals),
	}
}

// seqTask builds a linear task with the given activity IDs.
func seqTask(ids ...string) *task.Task {
	nodes := make([]*task.Node, len(ids))
	for i, id := range ids {
		nodes[i] = task.NewActivity(&task.Activity{ID: id, Concept: "C"})
	}
	root := task.Sequence(nodes...)
	if len(nodes) == 1 {
		root = nodes[0]
	}
	return &task.Task{Name: "t", Concept: "C", Root: root}
}

func TestRequestValidate(t *testing.T) {
	ps := twoProps()
	ok := &Request{
		Task:        seqTask("a", "b"),
		Properties:  ps,
		Constraints: qos.Constraints{{Property: "rt", Bound: 100}},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	tests := []struct {
		name string
		req  *Request
	}{
		{"nil", nil},
		{"no properties", &Request{Task: seqTask("a")}},
		{"bad task", &Request{Task: &task.Task{Name: "x"}, Properties: ps}},
		{"bad constraint", &Request{Task: seqTask("a"), Properties: ps,
			Constraints: qos.Constraints{{Property: "nope", Bound: 1}}}},
		{"bad weights", &Request{Task: seqTask("a"), Properties: ps, Weights: qos.Weights{1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.req.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

// TestSelectRejectsNonFiniteWeights pins the weight check at the request
// boundary: an infinite weight (or a sum that overflows) used to select
// with Utility and every Breakdown entry NaN, and a NaN utility makes the
// alternates' utility order inconsistent.
func TestSelectRejectsNonFiniteWeights(t *testing.T) {
	tk := seqTask("a", "b")
	cands := genCandidates(tk, 4)
	for _, w := range []qos.Weights{
		{math.Inf(1), 1},
		{1, math.Inf(-1)},
		{math.MaxFloat64, math.MaxFloat64},
	} {
		req := &Request{Task: tk, Properties: twoProps(), Weights: w}
		if err := req.Validate(); err == nil {
			t.Errorf("weights %v: Validate accepted them", w)
		}
		if res, err := NewSelector(Options{}).Select(req, cands); err == nil {
			t.Errorf("weights %v: Select returned utility %v, want an error", w, res.Utility)
		}
	}
}

func TestRequestDefaults(t *testing.T) {
	req := &Request{Task: seqTask("a"), Properties: twoProps()}
	if req.approach() != qos.Pessimistic {
		t.Error("default approach should be pessimistic")
	}
	w := req.weights()
	if len(w) != 2 || w[0] != 1 {
		t.Errorf("default weights = %v", w)
	}
	req.Approach = qos.Optimistic
	if req.approach() != qos.Optimistic {
		t.Error("explicit approach ignored")
	}
}

func newEval(t *testing.T, req *Request, cands map[string][]registry.Candidate) *Evaluator {
	t.Helper()
	e, err := NewEvaluator(req, cands)
	if err != nil {
		t.Fatalf("NewEvaluator: %v", err)
	}
	return e
}

func TestEvaluatorAggregateAndFeasibility(t *testing.T) {
	req := &Request{
		Task:       seqTask("a", "b"),
		Properties: twoProps(),
		Constraints: qos.Constraints{
			{Property: "rt", Bound: 250},
			{Property: "avail", Bound: 0.8},
		},
	}
	cands := map[string][]registry.Candidate{
		"a": {cand("a1", 100, 0.95), cand("a2", 50, 0.9)},
		"b": {cand("b1", 100, 0.9), cand("b2", 300, 0.99)},
	}
	e := newEval(t, req, cands)

	ok := Assignment{"a": cands["a"][0], "b": cands["b"][0]}
	agg := e.Aggregate(ok)
	if agg[0] != 200 || math.Abs(agg[1]-0.95*0.9) > 1e-12 {
		t.Errorf("aggregate = %v", agg)
	}
	if !e.Feasible(ok) || e.Violation(ok) != 0 {
		t.Error("assignment should be feasible")
	}
	bad := Assignment{"a": cands["a"][0], "b": cands["b"][1]}
	if e.Feasible(bad) {
		t.Error("rt 400 > 250 should be infeasible")
	}
	if e.Violation(bad) <= 0 {
		t.Error("violation should be positive")
	}
}

func TestEvaluatorUtility(t *testing.T) {
	req := &Request{Task: seqTask("a"), Properties: twoProps()}
	cands := map[string][]registry.Candidate{
		"a": {cand("best", 50, 0.99), cand("worst", 200, 0.8), cand("mid", 125, 0.9)},
	}
	e := newEval(t, req, cands)
	uBest := e.CandidateUtility("a", cands["a"][0])
	uMid := e.CandidateUtility("a", cands["a"][2])
	uWorst := e.CandidateUtility("a", cands["a"][1])
	if !(uBest > uMid && uMid > uWorst) {
		t.Errorf("utility ordering broken: %g %g %g", uBest, uMid, uWorst)
	}
	if uBest != 1 || uWorst != 0 {
		t.Errorf("extremes should hit 1 and 0: %g %g", uBest, uWorst)
	}
	if got := e.Utility(Assignment{"a": cands["a"][0]}); got != 1 {
		t.Errorf("assignment utility = %g, want 1", got)
	}
	if got := e.CandidateUtility("ghost", cands["a"][0]); got != 0 {
		t.Errorf("unknown activity utility = %g, want 0", got)
	}
}

func TestNewEvaluatorErrors(t *testing.T) {
	req := &Request{Task: seqTask("a", "b"), Properties: twoProps()}
	if _, err := NewEvaluator(req, map[string][]registry.Candidate{"a": {cand("x", 1, 1)}}); err == nil {
		t.Error("missing activity candidates should error")
	}
	bad := map[string][]registry.Candidate{
		"a": {cand("x", 1, 1)},
		"b": {{Service: &registry.Description{ID: "y"}, Vector: qos.Vector{1}}}, // wrong arity
	}
	if _, err := NewEvaluator(req, bad); err == nil {
		t.Error("wrong vector arity should error")
	}
	if _, err := NewEvaluator(&Request{}, nil); err == nil {
		t.Error("invalid request should error")
	}
}

// genCandidates builds n candidates per activity with deterministic but
// spread-out QoS values.
func genCandidates(t *task.Task, n int) map[string][]registry.Candidate {
	out := make(map[string][]registry.Candidate)
	for ai, a := range t.Activities() {
		list := make([]registry.Candidate, n)
		for k := 0; k < n; k++ {
			// rt in [20..20+10(n-1)], avail in [0.99 .. 0.99-0.004(n-1)]
			rt := float64(20 + 10*k + ai)
			avail := 0.99 - 0.004*float64(k) - 0.001*float64(ai)
			list[k] = cand(fmt.Sprintf("%s-s%d", a.ID, k), rt, avail)
		}
		out[a.ID] = list
	}
	return out
}

func TestEffectiveAccessors(t *testing.T) {
	req := &Request{Task: seqTask("a"), Properties: twoProps()}
	if got := req.EffectiveApproach(); got != qos.Pessimistic {
		t.Errorf("EffectiveApproach = %v", got)
	}
	if got := req.EffectiveWeights(); len(got) != 2 || got[0] != 1 {
		t.Errorf("EffectiveWeights = %v", got)
	}
	req.Approach = qos.MeanValue
	req.Weights = qos.Weights{2, 3}
	if got := req.EffectiveApproach(); got != qos.MeanValue {
		t.Errorf("explicit EffectiveApproach = %v", got)
	}
	if got := req.EffectiveWeights(); got[1] != 3 {
		t.Errorf("explicit EffectiveWeights = %v", got)
	}
}

func TestEvaluatorNormalizerAccessor(t *testing.T) {
	req := &Request{Task: seqTask("a"), Properties: twoProps()}
	e := newEval(t, req, map[string][]registry.Candidate{
		"a": {cand("x", 10, 0.9), cand("y", 20, 0.95)},
	})
	nz := e.Normalizer("a")
	if nz == nil {
		t.Fatal("normalizer missing")
	}
	lo, hi := nz.Bounds(0)
	if lo != 10 || hi != 20 {
		t.Errorf("bounds = (%g, %g)", lo, hi)
	}
	if e.Normalizer("ghost") != nil {
		t.Error("unknown activity should have no normalizer")
	}
}
