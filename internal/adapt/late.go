package adapt

import (
	"sort"

	"qasom/internal/qos"
	"qasom/internal/registry"
)

// MaxReplacements caps one activity's rotation plus late services: an
// exhausted rotation of n alternates considers at most MaxReplacements−n
// services published after selection.
const MaxReplacements = 64

// Extras returns the services of cands that are neither the bound service
// nor in the rotation alts — services published after selection — best
// pool score first, ties broken by ID, at most MaxReplacements−len(alts).
// The score is the normalized weighted utility over the pool of bound,
// alternates and extras, the same shape as QASSA's candidate utility.
func Extras(ps *qos.PropertySet, w qos.Weights, bound registry.Candidate, alts, cands []registry.Candidate) []registry.Candidate {
	room := MaxReplacements - len(alts)
	if room <= 0 {
		return nil
	}
	present := make(map[registry.ServiceID]bool, len(alts)+1)
	present[bound.Service.ID] = true
	for _, a := range alts {
		present[a.Service.ID] = true
	}
	var extras []registry.Candidate
	for _, c := range cands {
		if !present[c.Service.ID] {
			extras = append(extras, c)
		}
	}
	if len(extras) == 0 {
		return nil
	}
	scores := scorePool(ps, w, bound, alts, extras)
	sort.SliceStable(extras, func(i, j int) bool {
		si, sj := scores[extras[i].Service.ID], scores[extras[j].Service.ID]
		if si != sj {
			return si > sj
		}
		return extras[i].Service.ID < extras[j].Service.ID
	})
	if len(extras) > room {
		extras = extras[:room]
	}
	return extras
}

// scorePool computes the normalized weighted utility of every candidate
// of one activity's replacement pool (bound + alternates + extras):
// per-property min-max normalization over the pool, direction-adjusted,
// weight-averaged.
func scorePool(ps *qos.PropertySet, w qos.Weights, bound registry.Candidate,
	alts, extras []registry.Candidate) map[registry.ServiceID]float64 {
	pool := make([]registry.Candidate, 0, 1+len(alts)+len(extras))
	pool = append(pool, bound)
	pool = append(pool, alts...)
	pool = append(pool, extras...)
	n := 0
	if ps != nil {
		n = ps.Len()
	}
	out := make(map[registry.ServiceID]float64, len(pool))
	if n == 0 {
		for _, c := range pool {
			out[c.Service.ID] = 0
		}
		return out
	}
	min := make([]float64, n)
	max := make([]float64, n)
	for j := 0; j < n; j++ {
		first := true
		for _, c := range pool {
			if len(c.Vector) != n {
				continue
			}
			v := c.Vector[j]
			if first || v < min[j] {
				min[j] = v
			}
			if first || v > max[j] {
				max[j] = v
			}
			first = false
		}
	}
	var wsum float64
	weight := func(j int) float64 {
		if len(w) != n {
			return 1
		}
		return w[j]
	}
	for j := 0; j < n; j++ {
		wsum += weight(j)
	}
	if wsum == 0 {
		wsum = 1
	}
	for _, c := range pool {
		if len(c.Vector) != n {
			out[c.Service.ID] = 0
			continue
		}
		var s float64
		for j := 0; j < n; j++ {
			span := max[j] - min[j]
			u := 1.0 // a property the pool does not differentiate on is neutral
			if span > 0 {
				u = (c.Vector[j] - min[j]) / span
				if ps.At(j).Direction == qos.Minimized {
					u = 1 - u
				}
			}
			s += weight(j) * u
		}
		out[c.Service.ID] = s / wsum
	}
	return out
}
