package registry

import (
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
	if got := candidateIDs(r.Candidates(semantics.NotifyService, ps)); len(got) != 1 || got[0] != "s2" {
		t.Fatalf("moved service not filed under its new capability: %v", got)
	}
	all := r.All()
	for _, c := range []semantics.ConceptID{semantics.MediaSale, semantics.ShoppingService} {
		if err := sameCandidates(r.Candidates(c, ps), referenceCandidates(r.Ontology(), all, c, ps)); err != nil {
			t.Errorf("Candidates(%s) after the move: %v", c, err)
		}
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
	// A service published before its concept joined the hierarchy is
	// refiled under its new ancestors by the next lookup.
	if err := onto.AddConcept("LooseSale"); err != nil {
		t.Fatal(err)
	}
	d3 := bookService("ls1", 60)
	d3.Concept = "LooseSale"
	if err := r.Publish(d3); err != nil {
		t.Fatal(err)
	}
	if got := candidateIDs(r.Candidates(semantics.BookSale, ps)); len(got) != 2 {
		t.Fatalf("unrelated service matched BookSale: %v", got)
	}
	if err := onto.AddConcept("LooseSale", "SpecialSale"); err != nil {
		t.Fatal(err)
	}
	all := r.All()
	for _, c := range []semantics.ConceptID{semantics.BookSale, "SpecialSale", "LooseSale"} {
		if err := sameCandidates(r.Candidates(c, ps), referenceCandidates(onto, all, c, ps)); err != nil {
			t.Errorf("Candidates(%s) after the refile: %v", c, err)
		}
	}
	if got := candidateIDs(r.Candidates(semantics.BookSale, ps)); len(got) != 3 {
		t.Errorf("refiled lookup = %v, want all three services", got)
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
