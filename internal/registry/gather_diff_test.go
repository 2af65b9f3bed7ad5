package registry

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"qasom/internal/qos"
	"qasom/internal/semantics"
)

// referenceCandidates is the candidate lookup as every call used to run
// it, one ontology query per (description, property, offer): Match per
// description, VectorFor per candidate, then a stable sort by match
// level and ID.
func referenceCandidates(o *semantics.Ontology, all []Description, required semantics.ConceptID, ps *qos.PropertySet) []Candidate {
	required = o.Canonical(required)
	var out []Candidate
	for _, d := range all {
		level := o.Match(required, d.Concept)
		if level != semantics.MatchExact && level != semantics.MatchPlugin {
			continue
		}
		vec, err := d.VectorFor(ps, o)
		if err != nil {
			continue
		}
		out = append(out, Candidate{Service: &d, Vector: vec, Match: level})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Match != out[j].Match {
			return out[i].Match.Beats(out[j].Match)
		}
		return out[i].Service.ID < out[j].Service.ID
	})
	return out
}

// sameCandidates compares two candidate lists field by field, vectors
// bit for bit.
func sameCandidates(got, want []Candidate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, want %d: %v vs %v", len(got), len(want), candidateIDs(got), candidateIDs(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Service.ID != w.Service.ID || g.Match != w.Match {
			return fmt.Errorf("position %d: %s/%v, want %s/%v", i, g.Service.ID, g.Match, w.Service.ID, w.Match)
		}
		if fmt.Sprint(g.Service) != fmt.Sprint(w.Service) {
			return fmt.Errorf("position %d: description %+v, want %+v", i, g.Service, w.Service)
		}
		if len(g.Vector) != len(w.Vector) {
			return fmt.Errorf("%s: vector length %d, want %d", g.Service.ID, len(g.Vector), len(w.Vector))
		}
		for j := range g.Vector {
			if math.Float64bits(g.Vector[j]) != math.Float64bits(w.Vector[j]) {
				return fmt.Errorf("%s: vector[%d] = %v, want %v", g.Service.ID, j, g.Vector[j], w.Vector[j])
			}
		}
	}
	return nil
}

// gatherFixture is a random population over a vocabulary that exercises
// every branch of OfferFor: canonical names, aliases, plug-in
// sub-properties (one of which satisfies two properties of the overlap
// set), unrelated names, unit conversion, duplicate offers for one
// property and missing properties.
type gatherFixture struct {
	onto     *semantics.Ontology
	sets     map[string]*qos.PropertySet
	required []semantics.ConceptID
	descs    []Description
}

const wideProps = 65 // one past the width of an offer bitmask

func wideConcept(i int) semantics.ConceptID {
	return semantics.ConceptID(fmt.Sprintf("GatherWide%02d", i))
}

func newGatherFixture(t *testing.T, seed int64, services int) *gatherFixture {
	t.Helper()
	onto := semantics.PervasiveWithScenarios()
	onto.MustAddConcept("GatherCap")
	onto.MustAddConcept("GatherCapPlus", "GatherCap")
	onto.MustAddConcept("GatherCapPlusPlus", "GatherCapPlus")
	onto.MustAddConcept("GatherOther")
	onto.MustAddAlias("GatherCapAlias", "GatherCapPlus")
	wide := make([]*qos.Property, wideProps)
	for i := range wide {
		onto.MustAddConcept(wideConcept(i), semantics.ServiceQoSProperty)
		wide[i] = &qos.Property{Name: fmt.Sprintf("wide%02d", i), Concept: wideConcept(i),
			Direction: qos.Minimized, Kind: qos.KindTime, Unit: qos.Milliseconds}
	}
	std := qos.StandardSet()
	overlap := qos.MustNewPropertySet(
		&qos.Property{Name: "performance", Concept: semantics.Performance, Direction: qos.Minimized, Kind: qos.KindTime, Unit: qos.Milliseconds},
		std.At(0), std.At(1),
		&qos.Property{Name: "delay", Concept: "Delay", Direction: qos.Minimized, Kind: qos.KindTime, Unit: qos.Seconds},
	)
	unconvertible := qos.MustNewPropertySet(std.At(0),
		&qos.Property{Name: "odd", Concept: semantics.Price, Direction: qos.Minimized, Kind: qos.KindCost, Unit: qos.Unit{Name: "odd"}})
	f := &gatherFixture{
		onto: onto,
		sets: map[string]*qos.PropertySet{
			"standard": std, "extended": qos.ExtendedSet(), "overlap": overlap,
			"unconvertible": unconvertible, "wide": qos.MustNewPropertySet(wide...),
		},
		required: []semantics.ConceptID{"GatherCap", "GatherCapPlus", "GatherCapAlias", "GatherOther", semantics.BookSale},
	}

	// Names per standard property: canonical, aliases and plug-ins.
	names := [][]semantics.ConceptID{
		{semantics.ResponseTime, "Delay", "ResponseDelay", semantics.ExecutionTime, "Duration", semantics.Latency},
		{semantics.Price},
		{semantics.Availability, "Uptime"},
		{semantics.Reliability},
		{semantics.Throughput},
		{semantics.Jitter},
		{semantics.Accuracy},
		{semantics.BatteryLife},
	}
	noise := []semantics.ConceptID{semantics.Performance, semantics.Cost, "GatherBogus", semantics.Robustness}
	units := []qos.Unit{{}, {}, qos.Milliseconds, qos.Seconds, qos.Cents, qos.Percent, {Name: "zero"}}
	concepts := []semantics.ConceptID{"GatherCap", "GatherCapPlus", "GatherCapPlusPlus", "GatherCapAlias", "GatherOther", semantics.BookSale}

	rng := rand.New(rand.NewSource(seed))
	offer := func(name semantics.ConceptID) QoSOffer {
		return QoSOffer{Property: name, Value: float64(rng.Intn(1000)) / 7, Unit: units[rng.Intn(len(units))]}
	}
	for i := 0; i < services; i++ {
		d := Description{ID: ServiceID(fmt.Sprintf("g%03d", rng.Intn(services*4))), Concept: concepts[rng.Intn(len(concepts))]}
		for _, alts := range names {
			if rng.Intn(12) == 0 {
				continue // a missing property
			}
			d.Offers = append(d.Offers, offer(alts[rng.Intn(len(alts))]))
		}
		for n := rng.Intn(4); n > 0; n-- {
			// A duplicate for some property or an unrelated name, at a
			// random position.
			var o QoSOffer
			if rng.Intn(2) == 0 {
				alts := names[rng.Intn(len(names))]
				o = offer(alts[rng.Intn(len(alts))])
			} else {
				o = offer(noise[rng.Intn(len(noise))])
			}
			at := rng.Intn(len(d.Offers) + 1)
			d.Offers = append(d.Offers[:at], append([]QoSOffer{o}, d.Offers[at:]...)...)
		}
		if rng.Intn(3) == 0 {
			for w := 0; w < wideProps; w++ {
				if rng.Intn(80) != 0 {
					d.Offers = append(d.Offers, offer(wideConcept(w)))
				}
			}
		}
		f.descs = append(f.descs, d)
	}
	return f
}

// TestDifferentialGather demands that Candidates, which matches each
// distinct concept and offer name once per lookup, returns exactly the
// reference lookup's candidates — same services, same order, same
// vectors bit for bit — for property sets narrower and wider than an
// offer bitmask.
func TestDifferentialGather(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		f := newGatherFixture(t, seed, 150)
		r := NewStore(f.onto, StoreOptions{}).Tenant(DefaultTenant)
		for _, d := range f.descs {
			if err := r.Publish(d); err != nil {
				t.Fatal(err)
			}
		}
		all := r.All()
		nonEmpty := 0
		for name, ps := range f.sets {
			reqs := f.required
			if name == "wide" {
				reqs = reqs[:1] // the reference is slow on 65 properties
			}
			for _, req := range reqs {
				got := r.Candidates(req, ps)
				if err := sameCandidates(got, referenceCandidates(f.onto, all, req, ps)); err != nil {
					t.Fatalf("seed %d, set %s, %s: %v", seed, name, req, err)
				}
				if len(got) > 0 {
					nonEmpty++
				}
			}
		}
		if nonEmpty < 10 {
			t.Fatalf("seed %d: only %d non-empty lookups; the fixture exercises too little", seed, nonEmpty)
		}
	}
}

// TestGatherFixtureCoversEveryBranch guards the differential against a
// fixture that drifts into trivial cases: the population must contain
// plug-in capability matches, aliased and plug-in offers, offers needing
// unit conversion, duplicate and missing properties, and wide services.
func TestGatherFixtureCoversEveryBranch(t *testing.T) {
	f := newGatherFixture(t, 1, 150)
	r := NewStore(f.onto, StoreOptions{}).Tenant(DefaultTenant)
	for _, d := range f.descs {
		if err := r.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	std := f.sets["standard"]
	var plugin, converted, missing, wide, overlapTwice int
	for _, c := range r.Candidates("GatherCap", std) {
		if c.Match == semantics.MatchPlugin {
			plugin++
		}
	}
	for _, d := range f.descs {
		if _, err := d.VectorFor(std, f.onto); err != nil {
			missing++
		}
		if _, err := d.VectorFor(f.sets["wide"], f.onto); err == nil {
			wide++
		}
		for _, o := range d.Offers {
			if o.Unit.Factor != 0 && o.Unit.Factor != 1 {
				converted++
			}
			if o.Property == semantics.Latency || o.Property == semantics.ExecutionTime {
				overlapTwice++
			}
		}
	}
	for name, n := range map[string]int{"plug-in capability": plugin, "converted offer": converted,
		"missing property": missing, "wide service": wide, "two-property offer": overlapTwice} {
		if n == 0 {
			t.Errorf("fixture has no %s", name)
		}
	}
}
