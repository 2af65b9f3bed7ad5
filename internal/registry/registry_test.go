package registry

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"qasom/internal/qos"
	"qasom/internal/semantics"
	"qasom/internal/task"
)

func stdOffers(rt, price, avail, rel, tput float64) []QoSOffer {
	return []QoSOffer{
		{Property: semantics.ResponseTime, Value: rt},
		{Property: semantics.Price, Value: price},
		{Property: semantics.Availability, Value: avail},
		{Property: semantics.Reliability, Value: rel},
		{Property: semantics.Throughput, Value: tput},
	}
}

func bookService(id string, rt float64) Description {
	return Description{
		ID:      ServiceID(id),
		Name:    "Book shop " + id,
		Concept: semantics.BookSale,
		Offers:  stdOffers(rt, 10, 0.95, 0.9, 50),
	}
}

// sliceService is bookService with every slice field populated, so an
// aliased Inputs, Outputs or Offers shows in the ownership tests.
func sliceService(id string, rt float64) Description {
	d := bookService(id, rt)
	d.Inputs = []semantics.ConceptID{semantics.ConceptID("Query-" + id)}
	d.Outputs = []semantics.ConceptID{semantics.ConceptID("Book-" + id)}
	return d
}

// scribble writes into every slice of d (Inputs, Outputs, Offers) and
// appends to each, as a careless caller holding the value would.
func scribble(d *Description) {
	d.Inputs[0] = "Scribbled"
	d.Outputs[0] = "Scribbled"
	d.Offers[0].Value = -1
	d.Offers[1].Property = "Scribbled"
	d.Inputs = append(d.Inputs, "Scribbled")
	d.Outputs = append(d.Outputs, "Scribbled")
	d.Offers = append(d.Offers, QoSOffer{Property: "Scribbled"})
}

func newTestRegistry() *Registry {
	return New(semantics.PervasiveWithScenarios())
}

func TestPublishValidation(t *testing.T) {
	r := newTestRegistry()
	if err := r.Publish(Description{}); err == nil {
		t.Error("empty description should be rejected")
	}
	if err := r.Publish(Description{ID: "x"}); err == nil {
		t.Error("description without concept should be rejected")
	}
	if err := r.Publish(bookService("s1", 100)); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

// TestPublishRejectsNonFiniteOffers: a NaN or infinite QoS value is
// refused at the boundary (selection would score it NaN), whichever
// offer carries it, and the refused service is not published.
func TestPublishRejectsNonFiniteOffers(t *testing.T) {
	r := newTestRegistry()
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := bookService(fmt.Sprintf("bad%d", i), 100)
		d.Offers[i].Value = v
		if err := d.Validate(); err == nil {
			t.Errorf("offer %d = %v: Validate accepted it", i, v)
		}
		if err := r.Publish(d); err == nil {
			t.Errorf("offer %d = %v: Publish accepted it", i, v)
		}
	}
	if r.Len() != 0 {
		t.Errorf("Len = %d after rejected publishes, want 0", r.Len())
	}
	d := bookService("ok", 100)
	d.Offers[1].Value = math.MaxFloat64
	if err := r.Publish(d); err != nil {
		t.Errorf("finite extreme offer rejected: %v", err)
	}
}

// TestPublishCopiesAtBoundary: Publish freezes a private copy of the
// caller's description, and Get returns a private copy of it. Writing
// every slice of either (Inputs, Outputs, Offers) changes no later Get
// and not the frozen description lookups share.
func TestPublishCopiesAtBoundary(t *testing.T) {
	r := newTestRegistry()
	d, want := sliceService("s1", 100), sliceService("s1", 100)
	if err := r.Publish(d); err != nil {
		t.Fatal(err)
	}
	ps := qos.StandardSet()
	before := r.Candidates(semantics.BookSale, ps)
	scribble(&d)
	got, ok := r.Get("s1")
	if !ok {
		t.Fatal("Get failed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Get after the caller's writes = %+v, want %+v", got, want)
	}
	scribble(&got)
	if got2, _ := r.Get("s1"); !reflect.DeepEqual(got2, want) {
		t.Errorf("Get after writes to an earlier Get = %+v, want %+v", got2, want)
	}
	after := r.Candidates(semantics.BookSale, ps)
	for _, c := range [][]Candidate{before, after} {
		if len(c) != 1 || !reflect.DeepEqual(*c[0].Service, want) || c[0].Vector[0] != 100 {
			t.Fatalf("candidate after the writes = %+v, want %+v", c, want)
		}
	}
}

func TestWithdraw(t *testing.T) {
	r := newTestRegistry()
	if err := r.Publish(bookService("s1", 100)); err != nil {
		t.Fatal(err)
	}
	if !r.Has("s1") {
		t.Error("Has should report a published service")
	}
	if !r.Withdraw("s1") {
		t.Error("Withdraw should report presence")
	}
	if r.Withdraw("s1") {
		t.Error("second Withdraw should report absence")
	}
	if _, ok := r.Get("s1"); ok || r.Has("s1") {
		t.Error("withdrawn service still present")
	}
}

func TestAllSorted(t *testing.T) {
	r := newTestRegistry()
	for _, id := range []string{"c", "a", "b"} {
		if err := r.Publish(bookService(id, 100)); err != nil {
			t.Fatal(err)
		}
	}
	all := r.All()
	if len(all) != 3 || all[0].ID != "a" || all[2].ID != "c" {
		t.Errorf("All not sorted: %v", []ServiceID{all[0].ID, all[1].ID, all[2].ID})
	}
}

func TestCandidatesSemanticMatch(t *testing.T) {
	r := newTestRegistry()
	ps := qos.StandardSet()
	if err := r.Publish(bookService("book1", 100)); err != nil {
		t.Fatal(err)
	}
	cd := Description{ID: "cd1", Concept: semantics.CDSale, Offers: stdOffers(80, 5, 0.9, 0.9, 40)}
	if err := r.Publish(cd); err != nil {
		t.Fatal(err)
	}
	generic := Description{ID: "gen1", Concept: semantics.ShoppingService, Offers: stdOffers(60, 4, 0.9, 0.9, 40)}
	if err := r.Publish(generic); err != nil {
		t.Fatal(err)
	}

	// Request for generic Shopping: exact (gen1) + plugin (book1, cd1).
	got := r.Candidates(semantics.ShoppingService, ps)
	if len(got) != 3 {
		t.Fatalf("Candidates(Shopping) = %d, want 3", len(got))
	}
	if got[0].Service.ID != "gen1" || got[0].Match != semantics.MatchExact {
		t.Errorf("exact match should sort first: %v", got[0].Service.ID)
	}

	// Request for BookSale: only book1 (gen1 would be a subsume match,
	// which is excluded).
	got = r.Candidates(semantics.BookSale, ps)
	if len(got) != 1 || got[0].Service.ID != "book1" {
		t.Errorf("Candidates(BookSale) = %v", got)
	}
	// Vector resolved in canonical units.
	if got[0].Vector[0] != 100 {
		t.Errorf("responseTime = %g, want 100", got[0].Vector[0])
	}
}

func TestCandidatesSkipIncompleteOffers(t *testing.T) {
	r := newTestRegistry()
	ps := qos.StandardSet()
	incomplete := Description{
		ID: "inc", Concept: semantics.BookSale,
		Offers: []QoSOffer{{Property: semantics.ResponseTime, Value: 10}},
	}
	if err := r.Publish(incomplete); err != nil {
		t.Fatal(err)
	}
	if got := r.Candidates(semantics.BookSale, ps); len(got) != 0 {
		t.Errorf("service with incomplete offers should be skipped, got %d", len(got))
	}
}

func TestOfferVocabularyAndUnits(t *testing.T) {
	r := newTestRegistry()
	ps := qos.StandardSet()
	// Provider uses "Delay" in seconds, "Uptime" in percent, "Fee" in cents.
	d := Description{
		ID: "het", Concept: semantics.BookSale,
		Offers: []QoSOffer{
			{Property: "Delay", Value: 0.2, Unit: qos.Seconds},
			{Property: "Fee", Value: 250, Unit: qos.Cents},
			{Property: "Uptime", Value: 95, Unit: qos.Percent},
			{Property: "SuccessRate", Value: 0.9},
			{Property: "Rate", Value: 40},
		},
	}
	if err := r.Publish(d); err != nil {
		t.Fatal(err)
	}
	got := r.Candidates(semantics.BookSale, ps)
	if len(got) != 1 {
		t.Fatalf("heterogeneous offers should resolve, got %d candidates", len(got))
	}
	want := qos.Vector{200, 2.5, 0.95, 0.9, 40}
	if !got[0].Vector.Equal(want, 1e-9) {
		t.Errorf("vector = %v, want %v", got[0].Vector, want)
	}
}

func TestOfferForSpecializedConcept(t *testing.T) {
	// A provider advertising ExecutionTime satisfies a ResponseTime
	// requirement (plugin match on the property concept).
	r := newTestRegistry()
	d := Description{
		ID: "s", Concept: semantics.BookSale,
		Offers: []QoSOffer{{Property: semantics.ExecutionTime, Value: 120}},
	}
	rt := qos.StandardSet().At(0)
	v, ok := d.OfferFor(rt, r.Ontology())
	if !ok || v != 120 {
		t.Errorf("OfferFor(responseTime) = (%g, %v), want (120, true)", v, ok)
	}
}

func TestCandidatesForActivityDataCompatibility(t *testing.T) {
	r := newTestRegistry()
	ps := qos.StandardSet()
	good := bookService("good", 100)
	good.Inputs = []semantics.ConceptID{semantics.ItemList}
	good.Outputs = []semantics.ConceptID{semantics.Order, semantics.Receipt}
	if err := r.Publish(good); err != nil {
		t.Fatal(err)
	}
	needy := bookService("needy", 90)
	needy.Inputs = []semantics.ConceptID{semantics.Prescription} // activity cannot provide
	if err := r.Publish(needy); err != nil {
		t.Fatal(err)
	}
	silent := bookService("silent", 80) // declares no outputs
	if err := r.Publish(silent); err != nil {
		t.Fatal(err)
	}

	act := &task.Activity{
		ID: "buy", Concept: semantics.BookSale,
		Inputs:  []semantics.ConceptID{semantics.ItemList},
		Outputs: []semantics.ConceptID{semantics.Order},
	}
	got := r.CandidatesForActivity(act, ps)
	if len(got) != 1 || got[0].Service.ID != "good" {
		ids := make([]ServiceID, len(got))
		for i, c := range got {
			ids[i] = c.Service.ID
		}
		t.Errorf("CandidatesForActivity = %v, want [good]", ids)
	}

	// An activity declaring no data does not constrain inputs but still
	// requires declared outputs.
	lax := &task.Activity{ID: "buy2", Concept: semantics.BookSale}
	got = r.CandidatesForActivity(lax, ps)
	if len(got) != 3 {
		t.Errorf("activity without data declarations should accept all: %d", len(got))
	}
}

func TestConcurrentPublishWithdraw(t *testing.T) {
	r := newTestRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("w%d-s%d", w, i)
				_ = r.Publish(bookService(id, float64(i)))
				_ = r.Candidates(semantics.BookSale, qos.StandardSet())
				r.Withdraw(ServiceID(id))
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != 0 {
		t.Errorf("registry should be empty, has %d", r.Len())
	}
}
