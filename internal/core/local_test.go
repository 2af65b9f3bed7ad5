package core

import (
	"context"
	"testing"

	"qasom/internal/qos"
	"qasom/internal/registry"
)

func TestRequestLocalValidation(t *testing.T) {
	req := &Request{
		Task:       seqTask("a", "b"),
		Properties: twoProps(),
		Local: map[string]qos.Constraints{
			"a": {{Property: "rt", Bound: 100}},
		},
	}
	if err := req.Validate(); err != nil {
		t.Fatalf("valid local constraints rejected: %v", err)
	}
	req.Local = map[string]qos.Constraints{"ghost": {{Property: "rt", Bound: 1}}}
	if err := req.Validate(); err == nil {
		t.Error("local constraints on unknown activity should fail")
	}
	req.Local = map[string]qos.Constraints{"a": {{Property: "nope", Bound: 1}}}
	if err := req.Validate(); err == nil {
		t.Error("local constraints on unknown property should fail")
	}
}

func TestFilterLocal(t *testing.T) {
	req := &Request{
		Task:       seqTask("a", "b"),
		Properties: twoProps(),
		Local: map[string]qos.Constraints{
			"a": {{Property: "rt", Bound: 50}},
		},
	}
	cands := map[string][]registry.Candidate{
		"a": {cand("fast", 40, 0.9), cand("slow", 100, 0.99)},
		"b": {cand("any", 80, 0.9)},
	}
	filtered, err := FilterLocal(req, cands)
	if err != nil {
		t.Fatalf("FilterLocal: %v", err)
	}
	if len(filtered["a"]) != 1 || filtered["a"][0].Service.ID != "fast" {
		t.Errorf("activity a filtered to %v", filtered["a"])
	}
	if len(filtered["b"]) != 1 {
		t.Error("unconstrained activity should pass through")
	}
	// Inputs untouched.
	if len(cands["a"]) != 2 {
		t.Error("FilterLocal must not mutate its input")
	}
	// Unsatisfiable.
	req.Local["a"] = qos.Constraints{{Property: "rt", Bound: 1}}
	if _, err := FilterLocal(req, cands); err == nil {
		t.Error("unsatisfiable local constraint should error")
	}
	// No local constraints: same map returned.
	req.Local = nil
	same, err := FilterLocal(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(same["a"]) != 2 {
		t.Error("no-op filter should keep everything")
	}
}

func TestSelectWithLocalConstraints(t *testing.T) {
	tk := seqTask("a", "b")
	cands := genCandidates(tk, 8) // a-s0 is fastest (rt 20), a-s7 slowest (rt 90)
	req := &Request{
		Task:       tk,
		Properties: twoProps(),
		Local: map[string]qos.Constraints{
			"a": {{Property: "rt", Bound: 35}}, // only a-s0 (20) and a-s1 (30)
		},
		Weights: qos.Weights{0.1, 0.9}, // availability-heavy: would prefer slow ones
	}
	res, err := NewSelector(Options{}).Select(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Assignment["a"].Service.ID
	if got != "a-s0" && got != "a-s1" {
		t.Errorf("local constraint violated: chose %s", got)
	}
	// Alternates respect the filter too.
	for _, alt := range res.Alternates()["a"] {
		if alt.Vector[0] > 35 {
			t.Errorf("alternate %s violates the local constraint (rt %g)", alt.Service.ID, alt.Vector[0])
		}
	}
}

func TestSelectPruneDominated(t *testing.T) {
	tk := seqTask("a")
	// "hero" dominates everything; with pruning it is the only survivor.
	cands := map[string][]registry.Candidate{
		"a": {
			cand("hero", 10, 0.99),
			cand("dupe", 10, 0.99),
			cand("loser1", 50, 0.9),
			cand("loser2", 90, 0.8),
		},
	}
	req := &Request{Task: tk, Properties: twoProps()}
	res, err := NewSelector(Options{PruneDominated: true}).Select(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Assignment["a"].Service.ID; got != "hero" {
		t.Errorf("chose %s, want hero", got)
	}
	if len(res.Alternates()["a"]) != 0 {
		t.Errorf("dominated candidates should be pruned from alternates: %v", res.Alternates()["a"])
	}
	// Without pruning the losers stay available as alternates.
	res, err = NewSelector(Options{}).Select(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alternates()["a"]) == 0 {
		t.Error("without pruning alternates should remain")
	}
}

func TestSelectPruneDominatedKeepsTradeoffs(t *testing.T) {
	tk := seqTask("a")
	cands := map[string][]registry.Candidate{
		"a": {
			cand("fast", 10, 0.85),
			cand("safe", 80, 0.99),
			cand("bad", 90, 0.80), // dominated by both
		},
	}
	req := &Request{Task: tk, Properties: twoProps()}
	res, err := NewSelector(Options{PruneDominated: true}).Select(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{string(res.Assignment["a"].Service.ID): true}
	for _, alt := range res.Alternates()["a"] {
		ids[string(alt.Service.ID)] = true
	}
	if !ids["fast"] || !ids["safe"] {
		t.Errorf("tradeoff candidates must survive pruning: %v", ids)
	}
	if ids["bad"] {
		t.Error("dominated candidate survived pruning")
	}
}

func TestDistributedLocalConstraints(t *testing.T) {
	tk := seqTask("a")
	cands := genCandidates(tk, 5)
	req := &Request{
		Task:       tk,
		Properties: twoProps(),
		Local:      map[string]qos.Constraints{"a": {{Property: "rt", Bound: 25}}},
	}
	dev := NewDeviceNode("d", 0)
	dev.Host("a", cands["a"])
	res, err := NewDistributedSelector(Options{}, map[string]LocalSelector{"a": dev}).
		Select(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Assignment["a"].Service.ID; got != "a-s0" {
		t.Errorf("device-side filter failed: chose %s", got)
	}
	// Unsatisfiable device-side.
	req.Local["a"] = qos.Constraints{{Property: "rt", Bound: 1}}
	if _, err := NewDistributedSelector(Options{}, map[string]LocalSelector{"a": dev}).
		Select(context.Background(), req); err == nil {
		t.Error("unsatisfiable local constraint should surface from the device")
	}
}
