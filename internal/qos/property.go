// Package qos implements the operational QoS model of QASOM: typed QoS
// properties bound to the semantic model, QoS vectors and unit
// conversion, direction-aware min–max normalization, weighted utility
// functions, user constraints, and the pattern-wise aggregation formulas
// of Table IV.1 under the three aggregation approaches (pessimistic,
// optimistic and mean-value) compared in Figs. VI.7/VI.8.
package qos

import (
	"fmt"
	"math"

	"qasom/internal/semantics"
)

// Direction states whether smaller or larger values of a property are
// better for the user.
type Direction int

// Directions.
const (
	// Minimized means lower values are better (response time, price, ...).
	Minimized Direction = iota + 1
	// Maximized means higher values are better (availability, throughput, ...).
	Maximized
)

// String returns "minimized" or "maximized".
func (d Direction) String() string {
	switch d {
	case Minimized:
		return "minimized"
	case Maximized:
		return "maximized"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Kind is the aggregation class of a property: it decides which formula of
// Table IV.1 applies per composition pattern.
type Kind int

// Aggregation classes.
const (
	// KindTime aggregates like a duration: sum over sequences, max over
	// parallel branches, k·x over loops.
	KindTime Kind = iota + 1
	// KindCost aggregates like a monetary cost: sum over sequences and
	// parallel branches, k·x over loops.
	KindCost
	// KindProbability aggregates like a success probability: product over
	// sequences and parallel branches, x^k over loops.
	KindProbability
	// KindBottleneck aggregates like a capacity: min over sequences and
	// parallel branches, unchanged over loops.
	KindBottleneck
)

// String returns the conventional name of the kind.
func (k Kind) String() string {
	switch k {
	case KindTime:
		return "time"
	case KindCost:
		return "cost"
	case KindProbability:
		return "probability"
	case KindBottleneck:
		return "bottleneck"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Unit is a measurement unit with a conversion factor to the property's
// canonical unit (canonical = value × Factor).
type Unit struct {
	Name    string
	Concept semantics.ConceptID
	Factor  float64
}

// Canonical units.
var (
	Milliseconds = Unit{Name: "ms", Concept: semantics.UnitMillisecond, Factor: 1}
	Seconds      = Unit{Name: "s", Concept: semantics.UnitSecond, Factor: 1000}
	Euros        = Unit{Name: "EUR", Concept: semantics.UnitEuro, Factor: 1}
	Cents        = Unit{Name: "ct", Concept: semantics.UnitCent, Factor: 0.01}
	Ratio        = Unit{Name: "ratio", Concept: semantics.UnitRatio, Factor: 1}
	Percent      = Unit{Name: "%", Concept: semantics.UnitPercent, Factor: 0.01}
	PerSecond    = Unit{Name: "req/s", Concept: semantics.UnitRequestPerSec, Factor: 1}
	Unitless     = Unit{Name: "", Concept: "", Factor: 1}
)

// Convert converts a value expressed in unit from into unit to.
func Convert(value float64, from, to Unit) (float64, error) {
	if from.Factor == 0 || to.Factor == 0 {
		return 0, fmt.Errorf("qos: unit with zero conversion factor (%q → %q)", from.Name, to.Name)
	}
	return value * from.Factor / to.Factor, nil
}

// Property describes one QoS dimension: its semantic concept, direction,
// aggregation class and canonical unit.
type Property struct {
	// Name is the short identifier used in vectors and constraints.
	Name string
	// Concept ties the property to the semantic QoS model (for matching
	// heterogeneous vocabularies).
	Concept semantics.ConceptID
	// Direction states whether the property is minimized or maximized.
	Direction Direction
	// Kind selects the aggregation formulas of Table IV.1.
	Kind Kind
	// Unit is the canonical unit values are expressed in.
	Unit Unit
}

// Validate reports whether the property is fully specified.
func (p *Property) Validate() error {
	switch {
	case p == nil:
		return fmt.Errorf("qos: nil property")
	case p.Name == "":
		return fmt.Errorf("qos: property without name")
	case p.Direction != Minimized && p.Direction != Maximized:
		return fmt.Errorf("qos: property %q has invalid direction %d", p.Name, int(p.Direction))
	case p.Kind < KindTime || p.Kind > KindBottleneck:
		return fmt.Errorf("qos: property %q has invalid kind %d", p.Name, int(p.Kind))
	}
	return nil
}

// Better reports whether value a is strictly better than b under the
// property's direction.
func (p *Property) Better(a, b float64) bool {
	if p.Direction == Minimized {
		return a < b
	}
	return a > b
}

// Worse reports whether value a is strictly worse than b under the
// property's direction.
func (p *Property) Worse(a, b float64) bool { return p.Better(b, a) }

// Standard properties of the evaluation workloads. The first five mirror
// the properties the thesis experiments with; the remainder extend the set
// so that the constraint-count sweep (Fig. VI.5b) can reach eight
// constraints.
func standardProperties() []*Property {
	return []*Property{
		{Name: "responseTime", Concept: semantics.ResponseTime, Direction: Minimized, Kind: KindTime, Unit: Milliseconds},
		{Name: "price", Concept: semantics.Price, Direction: Minimized, Kind: KindCost, Unit: Euros},
		{Name: "availability", Concept: semantics.Availability, Direction: Maximized, Kind: KindProbability, Unit: Ratio},
		{Name: "reliability", Concept: semantics.Reliability, Direction: Maximized, Kind: KindProbability, Unit: Ratio},
		{Name: "throughput", Concept: semantics.Throughput, Direction: Maximized, Kind: KindBottleneck, Unit: PerSecond},
		{Name: "jitter", Concept: semantics.Jitter, Direction: Minimized, Kind: KindTime, Unit: Milliseconds},
		{Name: "accuracy", Concept: semantics.Accuracy, Direction: Maximized, Kind: KindProbability, Unit: Ratio},
		{Name: "energyCost", Concept: semantics.BatteryLife, Direction: Minimized, Kind: KindCost, Unit: Unitless},
	}
}

// PropertySet is an immutable ordered collection of properties; vectors
// and weights are float slices aligned to it.
type PropertySet struct {
	props  []*Property
	byName map[string]int
}

// NewPropertySet builds a property set, validating every property and
// rejecting duplicate names.
func NewPropertySet(props ...*Property) (*PropertySet, error) {
	ps := &PropertySet{
		props:  make([]*Property, 0, len(props)),
		byName: make(map[string]int, len(props)),
	}
	for _, p := range props {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if _, dup := ps.byName[p.Name]; dup {
			return nil, fmt.Errorf("qos: duplicate property %q", p.Name)
		}
		cp := *p
		ps.byName[cp.Name] = len(ps.props)
		ps.props = append(ps.props, &cp)
	}
	if len(ps.props) == 0 {
		return nil, fmt.Errorf("qos: empty property set")
	}
	return ps, nil
}

// MustNewPropertySet is NewPropertySet but panics on error.
func MustNewPropertySet(props ...*Property) *PropertySet {
	ps, err := NewPropertySet(props...)
	if err != nil {
		panic(err)
	}
	return ps
}

// StandardSet returns the five-property set used by most experiments:
// response time, price, availability, reliability, throughput.
func StandardSet() *PropertySet {
	return MustNewPropertySet(standardProperties()[:5]...)
}

// ExtendedSet returns the eight-property set used for the constraint-count
// sweeps.
func ExtendedSet() *PropertySet {
	return MustNewPropertySet(standardProperties()...)
}

// Len returns the number of properties.
func (ps *PropertySet) Len() int { return len(ps.props) }

// At returns the i-th property.
func (ps *PropertySet) At(i int) *Property { return ps.props[i] }

// Index returns the position of the named property.
func (ps *PropertySet) Index(name string) (int, bool) {
	i, ok := ps.byName[name]
	return i, ok
}

// Properties returns a copy of the property list.
func (ps *PropertySet) Properties() []*Property {
	out := make([]*Property, len(ps.props))
	copy(out, ps.props)
	return out
}

// Names returns the property names in order.
func (ps *PropertySet) Names() []string {
	out := make([]string, len(ps.props))
	for i, p := range ps.props {
		out[i] = p.Name
	}
	return out
}

// NewVector returns a zero vector aligned to the set.
func (ps *PropertySet) NewVector() Vector { return make(Vector, len(ps.props)) }

// identity returns the neutral element for sequence aggregation of the
// property: 0 for time/cost, 1 for probability, +Inf for bottleneck.
func identity(p *Property) float64 {
	switch p.Kind {
	case KindProbability:
		return 1
	case KindBottleneck:
		return math.Inf(1)
	default:
		return 0
	}
}
