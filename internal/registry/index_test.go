package registry

import (
	"fmt"
	"reflect"
	"testing"

	"qasom/internal/qos"
	"qasom/internal/semantics"
)

// candidateIDs flattens a candidate list to its service IDs (order
// preserved) for comparison.
func candidateIDs(cands []Candidate) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = string(c.Service.ID)
	}
	return out
}

func TestIndexedCandidatesMatchScan(t *testing.T) {
	onto := semantics.PervasiveWithScenarios()
	indexed := New(onto)
	scan := New(onto)
	scan.SetIndexing(false)
	ps := qos.StandardSet()

	concepts := []semantics.ConceptID{
		semantics.BookSale, semantics.NotifyService, semantics.ShoppingService,
	}
	for i := 0; i < 60; i++ {
		d := Description{
			ID:      ServiceID(fmt.Sprintf("s%02d", i)),
			Concept: concepts[i%len(concepts)],
			Offers:  stdOffers(50+float64(i), 5, 0.95, 0.9, 40),
		}
		if err := indexed.Publish(d); err != nil {
			t.Fatal(err)
		}
		if err := scan.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, required := range []semantics.ConceptID{
		semantics.BookSale, semantics.ShoppingService, semantics.NotifyService, "NoSuchConcept",
	} {
		got := candidateIDs(indexed.Candidates(required, ps))
		want := candidateIDs(scan.Candidates(required, ps))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("Candidates(%s): indexed %v, scan %v", required, got, want)
		}
	}
	m := indexed.Metrics()
	if m.IndexedLookups == 0 || m.IndexRebuilds != 1 {
		t.Errorf("index metrics = %+v, want indexed lookups and exactly one build", m)
	}
	if sm := scan.Metrics(); sm.ScanLookups == 0 || sm.IndexedLookups != 0 {
		t.Errorf("scan metrics = %+v", sm)
	}
}

func TestIndexInvalidatedOnPublishWithdraw(t *testing.T) {
	r := newTestRegistry()
	ps := qos.StandardSet()
	if err := r.Publish(bookService("s1", 100)); err != nil {
		t.Fatal(err)
	}
	if got := candidateIDs(r.Candidates(semantics.BookSale, ps)); len(got) != 1 {
		t.Fatalf("initial candidates = %v", got)
	}
	// Publish after the index is built: incremental insert.
	if err := r.Publish(bookService("s2", 120)); err != nil {
		t.Fatal(err)
	}
	if got := candidateIDs(r.Candidates(semantics.BookSale, ps)); len(got) != 2 {
		t.Fatalf("after publish candidates = %v", got)
	}
	// Withdraw: incremental removal.
	r.Withdraw("s1")
	if got := candidateIDs(r.Candidates(semantics.BookSale, ps)); len(got) != 1 || got[0] != "s2" {
		t.Fatalf("after withdraw candidates = %v", got)
	}
	// Re-publish under a different capability: the old filing must go.
	d := bookService("s2", 120)
	d.Concept = semantics.NotifyService
	if err := r.Publish(d); err != nil {
		t.Fatal(err)
	}
	if got := candidateIDs(r.Candidates(semantics.BookSale, ps)); len(got) != 0 {
		t.Fatalf("stale index entry survived capability change: %v", got)
	}
	if m := r.Metrics(); m.IndexRebuilds != 1 {
		t.Errorf("expected incremental maintenance, got %d rebuilds", m.IndexRebuilds)
	}
}

func TestIndexRebuiltOnOntologyMutation(t *testing.T) {
	onto := semantics.PervasiveWithScenarios()
	r := New(onto)
	ps := qos.StandardSet()
	if err := onto.AddConcept("SpecialSale", semantics.BookSale); err != nil {
		t.Fatal(err)
	}
	d := bookService("sp1", 80)
	d.Concept = "SpecialSale"
	if err := r.Publish(d); err != nil {
		t.Fatal(err)
	}
	// Build the index, then grow the hierarchy underneath it.
	if got := candidateIDs(r.Candidates(semantics.BookSale, ps)); len(got) != 1 {
		t.Fatalf("plugin candidate missing: %v", got)
	}
	if err := onto.AddConcept("RareBookSale", "SpecialSale"); err != nil {
		t.Fatal(err)
	}
	d2 := bookService("rb1", 70)
	d2.Concept = "RareBookSale"
	if err := r.Publish(d2); err != nil {
		t.Fatal(err)
	}
	got := candidateIDs(r.Candidates(semantics.BookSale, ps))
	if len(got) != 2 {
		t.Fatalf("index not rebuilt after ontology mutation: %v", got)
	}
	if m := r.Metrics(); m.IndexRebuilds < 2 {
		t.Errorf("expected a rebuild after the ontology version moved, got %d", m.IndexRebuilds)
	}
}

// TestAllReturnsDeepCopies: writing every slice of All's descriptions
// changes no later read and not the frozen description lookups share.
func TestAllReturnsDeepCopies(t *testing.T) {
	r := newTestRegistry()
	want := sliceService("s1", 100)
	if err := r.Publish(want); err != nil {
		t.Fatal(err)
	}
	shared := r.Candidates(semantics.BookSale, qos.StandardSet())[0].Service
	all := r.All()
	if len(all) != 1 {
		t.Fatalf("All = %d entries", len(all))
	}
	scribble(&all[0])
	if got, _ := r.Get("s1"); !reflect.DeepEqual(got, want) {
		t.Errorf("Get after writes to All = %+v, want %+v", got, want)
	}
	if got := r.All(); !reflect.DeepEqual(got, []Description{want}) {
		t.Errorf("All after writes to All = %+v, want %+v", got, want)
	}
	if !reflect.DeepEqual(*shared, want) {
		t.Errorf("frozen description after writes to All = %+v, want %+v", *shared, want)
	}
}
