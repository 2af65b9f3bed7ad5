package qos

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVectorClone(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone should be independent")
	}
	if Vector(nil).Clone() != nil {
		t.Error("Clone of nil should be nil")
	}
}

func TestVectorEqual(t *testing.T) {
	a := Vector{1, 2}
	if !a.Equal(Vector{1, 2 + 1e-12}, 1e-9) {
		t.Error("near-equal vectors should compare equal within eps")
	}
	if a.Equal(Vector{1, 3}, 1e-9) {
		t.Error("different vectors should not be equal")
	}
	if a.Equal(Vector{1}, 1e-9) {
		t.Error("different arity should not be equal")
	}
}

func TestVectorString(t *testing.T) {
	if got := (Vector{1, 2.5}).String(); got != "[1 2.5]" {
		t.Errorf("String() = %q", got)
	}
}

func TestNormalizerBasics(t *testing.T) {
	ps := MustNewPropertySet(
		&Property{Name: "rt", Direction: Minimized, Kind: KindTime},
		&Property{Name: "av", Direction: Maximized, Kind: KindProbability},
	)
	pop := []Vector{{100, 0.8}, {200, 0.9}, {300, 0.95}}
	nz, err := NewNormalizer(ps, pop)
	if err != nil {
		t.Fatalf("NewNormalizer: %v", err)
	}
	lo, hi := nz.Bounds(0)
	if lo != 100 || hi != 300 {
		t.Errorf("bounds = (%g, %g), want (100, 300)", lo, hi)
	}
	// Minimized: smallest value scores 1.
	if got := nz.Score(0, 100); got != 1 {
		t.Errorf("Score(rt=100) = %g, want 1", got)
	}
	if got := nz.Score(0, 300); got != 0 {
		t.Errorf("Score(rt=300) = %g, want 0", got)
	}
	// Maximized: largest value scores 1.
	if got := nz.Score(1, 0.95); got != 1 {
		t.Errorf("Score(av=0.95) = %g, want 1", got)
	}
	// Out-of-population values clamp.
	if got := nz.Score(0, 1e9); got != 0 {
		t.Errorf("Score(huge rt) = %g, want 0 (clamped)", got)
	}
	if got := nz.Score(0, -5); got != 1 {
		t.Errorf("Score(negative rt) = %g, want 1 (clamped)", got)
	}
	norm := nz.Normalize(Vector{200, 0.8})
	if !norm.Equal(Vector{0.5, 0}, 1e-9) {
		t.Errorf("Normalize = %v, want [0.5 0]", norm)
	}
}

func TestNormalizerDegenerate(t *testing.T) {
	ps := MustNewPropertySet(&Property{Name: "rt", Direction: Minimized, Kind: KindTime})
	nz, err := NewNormalizer(ps, []Vector{{50}, {50}})
	if err != nil {
		t.Fatalf("NewNormalizer: %v", err)
	}
	if got := nz.Score(0, 50); got != 1 {
		t.Errorf("degenerate population should score 1, got %g", got)
	}
}

func TestNormalizerErrors(t *testing.T) {
	ps := StandardSet()
	if _, err := NewNormalizer(nil, []Vector{{1}}); err == nil {
		t.Error("nil set should error")
	}
	if _, err := NewNormalizer(ps, nil); err == nil {
		t.Error("empty population should error")
	}
	if _, err := NewNormalizer(ps, []Vector{{1, 2}}); err == nil {
		t.Error("arity mismatch should error")
	}
}

func TestWeights(t *testing.T) {
	ps := StandardSet()
	w := UniformWeights(ps)
	if len(w) != ps.Len() {
		t.Fatalf("uniform weights arity %d, want %d", len(w), ps.Len())
	}
	if err := w.Validate(ps); err != nil {
		t.Errorf("uniform weights should validate: %v", err)
	}
	if err := (Weights{1, 2}).Validate(ps); err == nil {
		t.Error("wrong arity should fail")
	}
	bad := UniformWeights(ps)
	bad[0] = -1
	if err := bad.Validate(ps); err == nil {
		t.Error("negative weight should fail")
	}
	zero := make(Weights, ps.Len())
	if err := zero.Validate(ps); err == nil {
		t.Error("all-zero weights should fail")
	}
	for _, x := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		w := UniformWeights(ps)
		w[1] = x
		if err := w.Validate(ps); err == nil {
			t.Errorf("weight %g should fail", x)
		}
	}
	huge := UniformWeights(ps)
	huge[0], huge[1] = math.MaxFloat64, math.MaxFloat64
	if err := huge.Validate(ps); err == nil {
		t.Error("weights whose sum overflows should fail")
	}
}

func TestUtility(t *testing.T) {
	scores := Vector{1, 0, 0.5}
	w := Weights{2, 1, 1}
	want := (2*1 + 0 + 0.5) / 4
	if got := Utility(scores, w); math.Abs(got-want) > 1e-12 {
		t.Errorf("Utility = %g, want %g", got, want)
	}
	// Missing weights default to 1.
	if got := Utility(scores, Weights{2}); math.Abs(got-(2+0+0.5)/4) > 1e-12 {
		t.Errorf("Utility with short weights = %g", got)
	}
	if got := Utility(nil, nil); got != 0 {
		t.Errorf("Utility of empty vector = %g, want 0", got)
	}
}

func TestQuickNormalizeInUnitInterval(t *testing.T) {
	ps := MustNewPropertySet(
		&Property{Name: "a", Direction: Minimized, Kind: KindTime},
		&Property{Name: "b", Direction: Maximized, Kind: KindBottleneck},
	)
	f := func(raw [6]float64, probe [2]float64) bool {
		pop := []Vector{
			{math.Mod(raw[0], 1e6), math.Mod(raw[1], 1e6)},
			{math.Mod(raw[2], 1e6), math.Mod(raw[3], 1e6)},
			{math.Mod(raw[4], 1e6), math.Mod(raw[5], 1e6)},
		}
		nz, err := NewNormalizer(ps, pop)
		if err != nil {
			return false
		}
		got := nz.Normalize(Vector{math.Mod(probe[0], 1e6), math.Mod(probe[1], 1e6)})
		for _, s := range got {
			if s < 0 || s > 1 || math.IsNaN(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUtilityMonotone(t *testing.T) {
	// Improving any single score never decreases utility.
	f := func(s1, s2, s3, delta float64) bool {
		clamp := func(x float64) float64 { return clampProb(x) }
		scores := Vector{clamp(s1), clamp(s2), clamp(s3)}
		w := Weights{1, 2, 3}
		base := Utility(scores, w)
		improved := scores.Clone()
		improved[1] = math.Min(1, improved[1]+math.Abs(math.Mod(delta, 1)))
		return Utility(improved, w) >= base-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConstraints(t *testing.T) {
	ps := StandardSet()
	cs := Constraints{
		{Property: "responseTime", Bound: 500},
		{Property: "availability", Bound: 0.9},
	}
	if err := cs.Validate(ps); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	ok := Vector{400, 10, 0.95, 0.9, 100}
	if !cs.Satisfied(ps, ok) {
		t.Error("vector within bounds should satisfy")
	}
	badRT := Vector{600, 10, 0.95, 0.9, 100}
	if cs.Satisfied(ps, badRT) {
		t.Error("response time above bound should violate")
	}
	if got := cs.Violated(ps, badRT); len(got) != 1 || got[0] != "responseTime" {
		t.Errorf("Violated = %v, want [responseTime]", got)
	}
	badAv := Vector{400, 10, 0.5, 0.9, 100}
	if got := cs.Violated(ps, badAv); len(got) != 1 || got[0] != "availability" {
		t.Errorf("Violated = %v, want [availability]", got)
	}
	// Violation grows with the miss distance.
	v1 := cs.Violation(ps, Vector{600, 0, 1, 1, 1})
	v2 := cs.Violation(ps, Vector{900, 0, 1, 1, 1})
	if !(v2 > v1 && v1 > 0) {
		t.Errorf("violation should grow with excess: %g then %g", v1, v2)
	}
}

func TestConstraintsValidateErrors(t *testing.T) {
	ps := StandardSet()
	if err := (Constraints{{Property: "nope", Bound: 1}}).Validate(ps); err == nil {
		t.Error("unknown property should fail validation")
	}
	dup := Constraints{{Property: "price", Bound: 1}, {Property: "price", Bound: 2}}
	if err := dup.Validate(ps); err == nil {
		t.Error("duplicate property should fail validation")
	}
	if err := (Constraints{{Property: "price", Bound: math.NaN()}}).Validate(ps); err == nil {
		t.Error("NaN bound should fail validation")
	}
}

func TestConstraintRendering(t *testing.T) {
	ps := StandardSet()
	c := Constraint{Property: "responseTime", Bound: 500}
	if got := c.Render(ps); got != "responseTime ≤ 500" {
		t.Errorf("Render = %q", got)
	}
	c = Constraint{Property: "availability", Bound: 0.9}
	if got := c.Render(ps); got != "availability ≥ 0.9" {
		t.Errorf("Render = %q", got)
	}
	cs := Constraints{c}
	if got := cs.String(); got == "" {
		t.Error("constraint set String should not be empty")
	}
}
