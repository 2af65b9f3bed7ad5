package qos

import (
	"fmt"
	"math"
	"strings"
)

// Vector holds one value per property of an implied PropertySet, in the
// set's order. The zero-length vector is valid only for the empty set.
type Vector []float64

// Clone returns an independent copy of the vector.
func (v Vector) Clone() Vector {
	if v == nil {
		return nil
	}
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Equal reports element-wise equality within eps.
func (v Vector) Equal(other Vector, eps float64) bool {
	if len(v) != len(other) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-other[i]) > eps {
			return false
		}
	}
	return true
}

// String formats the vector compactly for logs and error messages.
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4g", x)
	}
	b.WriteByte(']')
	return b.String()
}

// Normalizer rescales raw QoS vectors into direction-adjusted [0,1] scores
// where 1 is always best, using the min–max bounds observed over a
// candidate population (the standard normalization of the thesis's utility
// function).
type Normalizer struct {
	ps  *PropertySet
	min []float64
	max []float64
}

// NewNormalizer computes per-property min–max bounds from the given
// population of vectors. At least one vector is required and every vector
// must match the set's arity.
func NewNormalizer(ps *PropertySet, population []Vector) (*Normalizer, error) {
	if ps == nil {
		return nil, fmt.Errorf("qos: nil property set")
	}
	if len(population) == 0 {
		return nil, fmt.Errorf("qos: empty population")
	}
	n := ps.Len()
	nz := &Normalizer{ps: ps, min: make([]float64, n), max: make([]float64, n)}
	for j := 0; j < n; j++ {
		nz.min[j] = math.Inf(1)
		nz.max[j] = math.Inf(-1)
	}
	for _, v := range population {
		if len(v) != n {
			return nil, fmt.Errorf("qos: vector arity %d does not match property set arity %d", len(v), n)
		}
		for j, x := range v {
			if x < nz.min[j] {
				nz.min[j] = x
			}
			if x > nz.max[j] {
				nz.max[j] = x
			}
		}
	}
	return nz, nil
}

// Bounds returns the observed (min, max) for property j.
func (nz *Normalizer) Bounds(j int) (float64, float64) { return nz.min[j], nz.max[j] }

// Score normalizes a single raw value of property j into [0,1], 1 = best.
// When all observed values coincide the score is 1 (any candidate is as
// good as the best).
func (nz *Normalizer) Score(j int, x float64) float64 {
	lo, hi := nz.min[j], nz.max[j]
	if hi <= lo {
		return 1
	}
	// Clamp out-of-population values rather than extrapolating.
	if x < lo {
		x = lo
	}
	if x > hi {
		x = hi
	}
	s := (x - lo) / (hi - lo)
	if nz.ps.At(j).Direction == Minimized {
		s = 1 - s
	}
	return s
}

// Normalize maps a raw vector into direction-adjusted [0,1] scores.
func (nz *Normalizer) Normalize(v Vector) Vector {
	return nz.NormalizeInto(make(Vector, len(v)), v)
}

// NormalizeInto is Normalize writing into a caller-provided destination
// (len(dst) must equal len(v)) and returning it: the allocation-free
// variant the pooled selection hot path uses. The scores are computed by
// the same per-element Score calls as Normalize, so the results are
// bit-identical.
func (nz *Normalizer) NormalizeInto(dst Vector, v Vector) Vector {
	for j, x := range v {
		dst[j] = nz.Score(j, x)
	}
	return dst
}

// Weights express user preferences over properties (W in the thesis).
// They are aligned to a PropertySet and need not sum to one; Utility
// normalizes by the total weight.
type Weights []float64

// UniformWeights returns equal preference for every property of the set.
func UniformWeights(ps *PropertySet) Weights {
	w := make(Weights, ps.Len())
	for i := range w {
		w[i] = 1
	}
	return w
}

// Validate checks arity and that every weight is finite and
// non-negative, requiring at least one positive weight and a finite sum.
// An infinite weight would make every utility Inf/Inf = NaN.
func (w Weights) Validate(ps *PropertySet) error {
	if len(w) != ps.Len() {
		return fmt.Errorf("qos: %d weights for %d properties", len(w), ps.Len())
	}
	total := 0.0
	for i, x := range w {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("qos: negative or non-finite weight %g for %q", x, ps.At(i).Name)
		}
		total += x
	}
	if total == 0 {
		return fmt.Errorf("qos: all weights are zero")
	}
	if math.IsInf(total, 0) {
		return fmt.Errorf("qos: weight sum overflows")
	}
	return nil
}

// Utility computes the weighted utility of a normalized score vector:
// F = Σ w_j·score_j / Σ w_j, in [0,1].
func Utility(scores Vector, w Weights) float64 {
	total, acc := 0.0, 0.0
	for j, s := range scores {
		wj := 1.0
		if j < len(w) {
			wj = w[j]
		}
		total += wj
		acc += wj * s
	}
	if total == 0 {
		return 0
	}
	return acc / total
}
