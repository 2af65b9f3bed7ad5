// Package workload generates the synthetic populations of the thesis's
// evaluation (Chapter VI §3.1): services whose QoS values follow a normal
// law 𝒩(m, σ) per property (Fig. VI.9), user tasks of configurable size
// and pattern mix, and global constraint sets whose tightness is pinned
// to m or m±σ (Figs. VI.10/VI.11).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/semantics"
	"qasom/internal/task"
)

// Law is the normal law a property's values are drawn from, clipped to
// [Min, Max].
type Law struct {
	Mean, Std float64
	Min, Max  float64
}

// Sample draws one clipped value.
func (l Law) Sample(rng *rand.Rand) float64 {
	v := rng.NormFloat64()*l.Std + l.Mean
	if v < l.Min {
		v = l.Min
	}
	if l.Max > 0 && v > l.Max {
		v = l.Max
	}
	return v
}

// DefaultLaws returns per-property laws matching the thesis's set-up:
// gauge-like properties follow 𝒩(50, 15) clipped positive; probability
// properties follow 𝒩(0.9, 0.05) clipped to [0.5, 0.9999].
func DefaultLaws(ps *qos.PropertySet) []Law {
	laws := make([]Law, ps.Len())
	for j := 0; j < ps.Len(); j++ {
		if ps.At(j).Kind == qos.KindProbability {
			laws[j] = Law{Mean: 0.9, Std: 0.05, Min: 0.5, Max: 0.9999}
		} else {
			laws[j] = Law{Mean: 50, Std: 15, Min: 1}
		}
	}
	return laws
}

// Generator produces reproducible synthetic workloads.
type Generator struct {
	rng *rand.Rand
}

// NewGenerator creates a generator with a fixed seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// Rand exposes the generator's random source (for callers composing
// further randomness deterministically).
func (g *Generator) Rand() *rand.Rand { return g.rng }

// Vector draws one QoS vector from the laws.
func (g *Generator) Vector(ps *qos.PropertySet, laws []Law) qos.Vector {
	v := ps.NewVector()
	for j := range v {
		v[j] = laws[j].Sample(g.rng)
	}
	return v
}

// Service builds one publishable service description for the given
// capability with QoS offers drawn from the laws.
func (g *Generator) Service(id string, capability semantics.ConceptID, ps *qos.PropertySet, laws []Law) registry.Description {
	vec := g.Vector(ps, laws)
	offers := make([]registry.QoSOffer, ps.Len())
	for j := 0; j < ps.Len(); j++ {
		offers[j] = registry.QoSOffer{Property: ps.At(j).Concept, Value: vec[j]}
	}
	return registry.Description{
		ID:      registry.ServiceID(id),
		Name:    id,
		Concept: capability,
		Offers:  offers,
	}
}

// Candidates generates, for each activity of the task, n candidate
// services with QoS drawn from the laws, keyed by activity ID. This is
// the direct input of the selection algorithms (bypassing the registry
// for the pure-algorithm benchmarks).
func (g *Generator) Candidates(t *task.Task, n int, ps *qos.PropertySet, laws []Law) map[string][]registry.Candidate {
	out := make(map[string][]registry.Candidate, t.Size())
	for _, a := range t.Activities() {
		list := make([]registry.Candidate, n)
		for k := 0; k < n; k++ {
			id := fmt.Sprintf("%s-s%d", a.ID, k)
			d := g.Service(id, a.Concept, ps, laws)
			vec, err := d.VectorFor(ps, nil)
			if err != nil {
				// Generated offers always align with ps; a failure here is
				// a programming error.
				panic(err)
			}
			list[k] = registry.Candidate{Service: &d, Vector: vec, Match: semantics.MatchExact}
		}
		out[a.ID] = list
	}
	return out
}

// Populate publishes n services per task activity into the registry.
func (g *Generator) Populate(r *registry.Registry, t *task.Task, n int, ps *qos.PropertySet, laws []Law) error {
	for _, a := range t.Activities() {
		for k := 0; k < n; k++ {
			id := fmt.Sprintf("%s-s%d", a.ID, k)
			if err := r.Publish(g.Service(id, a.Concept, ps, laws)); err != nil {
				return err
			}
		}
	}
	return nil
}

// TaskShape selects the pattern structure of generated tasks.
type TaskShape int

// Task shapes.
const (
	// ShapeLinear is a pure sequence of activities.
	ShapeLinear TaskShape = iota + 1
	// ShapeMixed interleaves sequence, parallel, choice and loop patterns
	// (the default evaluation task).
	ShapeMixed
	// ShapeChoiceHeavy maximises choice branches (used by the
	// aggregation-approach experiments, Figs. VI.7/VI.8).
	ShapeChoiceHeavy
)

// Task generates a task of n activities with the given shape. Every
// activity gets a distinct capability concept so candidate sets are
// independent.
func (g *Generator) Task(name string, n int, shape TaskShape) *task.Task {
	if n < 1 {
		n = 1
	}
	acts := make([]*task.Node, n)
	for i := 0; i < n; i++ {
		acts[i] = task.NewActivity(&task.Activity{
			ID:      fmt.Sprintf("a%d", i+1),
			Concept: semantics.ConceptID(fmt.Sprintf("Cap%s%d", name, i+1)),
		})
	}
	var root *task.Node
	switch shape {
	case ShapeLinear:
		root = task.Sequence(acts...)
	case ShapeChoiceHeavy:
		root = g.choiceHeavy(acts)
	default:
		root = g.mixed(acts)
	}
	t := &task.Task{Name: name, Concept: semantics.ConceptID("Task" + name), Root: root}
	if len(acts) == 1 {
		t.Root = acts[0]
	}
	return t
}

// mixed groups activities into small runs combined by alternating
// patterns: seq(run1, par(run2), cho(run3), loop(run4), ...).
func (g *Generator) mixed(acts []*task.Node) *task.Node {
	if len(acts) == 1 {
		return acts[0]
	}
	var groups []*task.Node
	i := 0
	kind := 0
	for i < len(acts) {
		size := 1 + g.rng.Intn(3)
		if i+size > len(acts) {
			size = len(acts) - i
		}
		chunk := acts[i : i+size]
		i += size
		switch {
		case size == 1:
			groups = append(groups, chunk[0])
		case kind%3 == 0:
			groups = append(groups, task.Parallel(chunk...))
		case kind%3 == 1:
			probs := make([]float64, size)
			for j := range probs {
				probs[j] = 1 / float64(size)
			}
			groups = append(groups, task.Choice(probs, chunk...))
		default:
			groups = append(groups, task.LoopNode(qos.Loop{Min: 1, Max: 3, Expected: 2}, task.Sequence(chunk...)))
		}
		kind++
	}
	if len(groups) == 1 {
		return groups[0]
	}
	return task.Sequence(groups...)
}

// choiceHeavy pairs activities into two-branch choices chained in
// sequence.
func (g *Generator) choiceHeavy(acts []*task.Node) *task.Node {
	var groups []*task.Node
	for i := 0; i < len(acts); i += 2 {
		if i+1 < len(acts) {
			groups = append(groups, task.Choice([]float64{0.6, 0.4}, acts[i], acts[i+1]))
		} else {
			groups = append(groups, acts[i])
		}
	}
	if len(groups) == 1 {
		return groups[0]
	}
	return task.Sequence(groups...)
}

// Tightness pins where global constraint bounds sit relative to the
// candidate QoS law (Figs. VI.10/VI.11): AtMean is the tight setting
// (bounds at m), AtMeanPlusSigma the relaxed one (m+σ for minimized
// properties, m−σ for maximized ones).
type Tightness int

// Tightness settings.
const (
	AtMean Tightness = iota + 1
	AtMeanPlusSigma
)

// String names the tightness setting.
func (t Tightness) String() string {
	switch t {
	case AtMean:
		return "m"
	case AtMeanPlusSigma:
		return "m+sigma"
	default:
		return fmt.Sprintf("Tightness(%d)", int(t))
	}
}

// Constraints derives a global constraint set of the given size for the
// task: each bound is the task-level aggregate of per-activity values
// pinned at the law's mean (AtMean) or mean±σ (AtMeanPlusSigma),
// covering the first count properties of ps.
func (g *Generator) Constraints(t *task.Task, ps *qos.PropertySet, laws []Law, tight Tightness, count int) qos.Constraints {
	if count > ps.Len() {
		count = ps.Len()
	}
	ref := ps.NewVector()
	for j := 0; j < ps.Len(); j++ {
		v := laws[j].Mean
		if tight == AtMeanPlusSigma {
			if ps.At(j).Direction == qos.Minimized {
				v += laws[j].Std
			} else {
				v -= laws[j].Std
			}
		}
		if v < laws[j].Min {
			v = laws[j].Min
		}
		if laws[j].Max > 0 && v > laws[j].Max {
			v = laws[j].Max
		}
		ref[j] = v
	}
	assign := make(map[string]qos.Vector, t.Size())
	for _, a := range t.Activities() {
		assign[a.ID] = ref
	}
	agg := t.AggregateQoS(ps, assign, qos.MeanValue)
	out := make(qos.Constraints, 0, count)
	for j := 0; j < count; j++ {
		out = append(out, qos.Constraint{Property: ps.At(j).Name, Bound: agg[j]})
	}
	return out
}

// Histogram bins values into n equal-width bins over [min, max] observed
// in the data; it backs the Fig. VI.9 reproduction.
type Histogram struct {
	Min, Max float64
	Width    float64
	Counts   []int
	Total    int
}

// NewHistogram builds an n-bin histogram of the values.
func NewHistogram(values []float64, n int) (*Histogram, error) {
	if len(values) == 0 || n <= 0 {
		return nil, fmt.Errorf("workload: histogram needs values and positive bin count")
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	h := &Histogram{Min: lo, Max: hi, Counts: make([]int, n), Total: len(values)}
	if hi == lo {
		h.Width = 1
		h.Counts[0] = len(values)
		return h, nil
	}
	h.Width = (hi - lo) / float64(n)
	for _, v := range values {
		bin := int((v - lo) / h.Width)
		if bin >= n {
			bin = n - 1
		}
		h.Counts[bin]++
	}
	return h, nil
}

// Density returns the empirical probability density of bin i.
func (h *Histogram) Density(i int) float64 {
	return float64(h.Counts[i]) / (float64(h.Total) * h.Width)
}

// BinCenter returns the centre of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Min + (float64(i)+0.5)*h.Width
}

// NormalPDF evaluates the 𝒩(m, σ) density at x.
func NormalPDF(m, sd, x float64) float64 {
	if sd <= 0 {
		return 0
	}
	z := (x - m) / sd
	return math.Exp(-z*z/2) / (sd * math.Sqrt(2*math.Pi))
}
