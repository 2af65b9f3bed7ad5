package registry

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"qasom/internal/qos"
	"qasom/internal/semantics"
	"qasom/internal/task"
)

func memberWith(t *testing.T, ids ...string) *Registry {
	t.Helper()
	r := newTestRegistry()
	for i, id := range ids {
		if err := r.Publish(bookService(id, float64(50+10*i))); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestFederationJoinLeave(t *testing.T) {
	f := NewFederation(nil)
	if err := f.Join("", nil); err == nil {
		t.Error("empty member should be rejected")
	}
	if err := f.Join("devA", memberWith(t, "a1")); err != nil {
		t.Fatal(err)
	}
	if err := f.Join("devB", memberWith(t, "b1", "b2")); err != nil {
		t.Fatal(err)
	}
	if got := f.Members(); len(got) != 2 || got[0] != "devA" {
		t.Errorf("Members = %v", got)
	}
	if f.Len() != 3 {
		t.Errorf("Len = %d, want 3", f.Len())
	}
	if !f.Leave("devA") {
		t.Error("Leave should report presence")
	}
	if f.Leave("devA") {
		t.Error("double Leave should report absence")
	}
	if f.Len() != 2 {
		t.Errorf("after leave Len = %d, want 2", f.Len())
	}
	if _, ok := f.Get("a1"); ok {
		t.Error("left member's services should be unreachable")
	}
}

func TestFederationCandidatesAcrossMembers(t *testing.T) {
	onto := semantics.PervasiveWithScenarios()
	f := NewFederation(onto)
	ra := New(onto)
	rb := New(onto)
	if err := ra.Publish(bookService("shopA", 50)); err != nil {
		t.Fatal(err)
	}
	if err := rb.Publish(bookService("shopB", 40)); err != nil {
		t.Fatal(err)
	}
	// Duplicate ID in both members: first member wins.
	dup := bookService("dup", 10)
	if err := ra.Publish(dup); err != nil {
		t.Fatal(err)
	}
	dup2 := bookService("dup", 999)
	if err := rb.Publish(dup2); err != nil {
		t.Fatal(err)
	}
	if err := f.Join("A", ra); err != nil {
		t.Fatal(err)
	}
	if err := f.Join("B", rb); err != nil {
		t.Fatal(err)
	}
	got := f.Candidates(semantics.BookSale, qos.StandardSet())
	if len(got) != 3 {
		t.Fatalf("candidates = %d, want 3 (dedup)", len(got))
	}
	for _, c := range got {
		if c.Service.ID == "dup" && c.Vector[0] != 10 {
			t.Errorf("first member should win the duplicate: rt %g", c.Vector[0])
		}
	}
	all := f.All()
	if len(all) != 3 || all[0].ID != "dup" {
		t.Errorf("All = %v", all)
	}
}

func TestFederationCandidatesForActivity(t *testing.T) {
	onto := semantics.PervasiveWithScenarios()
	f := NewFederation(onto)
	r := New(onto)
	good := bookService("g", 50)
	good.Outputs = []semantics.ConceptID{semantics.Order}
	if err := r.Publish(good); err != nil {
		t.Fatal(err)
	}
	silent := bookService("s", 40) // no outputs declared
	if err := r.Publish(silent); err != nil {
		t.Fatal(err)
	}
	if err := f.Join("A", r); err != nil {
		t.Fatal(err)
	}
	act := &task.Activity{ID: "buy", Concept: semantics.BookSale,
		Outputs: []semantics.ConceptID{semantics.Order}}
	got := f.CandidatesForActivity(act, qos.StandardSet())
	if len(got) != 1 || got[0].Service.ID != "g" {
		t.Errorf("data compatibility not applied across federation: %v", got)
	}
}

func TestFederationChurnWithSelection(t *testing.T) {
	// Ad hoc market: a vendor's whole device leaves, taking its services
	// with it; the next resolution simply no longer sees them.
	onto := semantics.PervasiveWithScenarios()
	f := NewFederation(onto)
	for dev := 0; dev < 3; dev++ {
		r := New(onto)
		for s := 0; s < 2; s++ {
			if err := r.Publish(bookService(fmt.Sprintf("d%d-s%d", dev, s), float64(40+10*s))); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Join(fmt.Sprintf("dev%d", dev), r); err != nil {
			t.Fatal(err)
		}
	}
	before := f.Candidates(semantics.BookSale, qos.StandardSet())
	if len(before) != 6 {
		t.Fatalf("before churn: %d candidates", len(before))
	}
	f.Leave("dev1")
	after := f.Candidates(semantics.BookSale, qos.StandardSet())
	if len(after) != 4 {
		t.Fatalf("after churn: %d candidates, want 4", len(after))
	}
	for _, c := range after {
		if c.Service.ID == "d1-s0" || c.Service.ID == "d1-s1" {
			t.Error("left device's services still resolvable")
		}
	}
}

func TestFederationConcurrent(t *testing.T) {
	onto := semantics.PervasiveWithScenarios()
	f := NewFederation(onto)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("w%d-m%d", w, i)
				r := New(onto)
				_ = r.Publish(bookService(fmt.Sprintf("%s-svc", name), 50))
				_ = f.Join(name, r)
				_ = f.Candidates(semantics.BookSale, qos.StandardSet())
				f.Leave(name)
			}
		}(w)
	}
	wg.Wait()
	if f.Len() != 0 {
		t.Errorf("federation should be empty, has %d", f.Len())
	}
}

// TestFederationOrderMatchesRegistry pins the promise that a federated
// lookup is sorted like Registry.Candidates: services of every match
// level, split across two members in an order unlike the sorted one,
// come back exactly as one registry holding all of them returns them.
func TestFederationOrderMatchesRegistry(t *testing.T) {
	onto := semantics.PervasiveWithScenarios()
	concepts := []semantics.ConceptID{
		semantics.BookSale,          // plugin under Shopping
		semantics.ShoppingService,   // exact
		semantics.ServiceCapability, // subsume: never a candidate
		semantics.CDSale,            // plugin two levels down
	}
	f := NewFederation(onto)
	members := []*Registry{New(onto), New(onto)}
	whole := New(onto)
	for i := 0; i < 12; i++ {
		d := bookService(fmt.Sprintf("s%02d", 11-i), float64(40+i))
		d.Concept = concepts[i%len(concepts)]
		if i%3 == 0 {
			d.Outputs = []semantics.ConceptID{semantics.Order}
		}
		for _, r := range []*Registry{members[i%2], whole} {
			if err := r.Publish(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, r := range members {
		if err := f.Join(fmt.Sprintf("dev%d", i), r); err != nil {
			t.Fatal(err)
		}
	}
	same := func(what string, got, want []Candidate) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d candidates, want %d", what, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Service.ID != w.Service.ID || g.Match != w.Match || !reflect.DeepEqual(g.Vector, w.Vector) {
				t.Errorf("%s[%d] = %s/%v/%v, want %s/%v/%v", what, i,
					g.Service.ID, g.Match, g.Vector, w.Service.ID, w.Match, w.Vector)
			}
		}
	}
	ps := qos.StandardSet()
	want := whole.Candidates(semantics.ShoppingService, ps)
	levels := make(map[semantics.MatchLevel]int)
	for _, c := range want {
		levels[c.Match]++
	}
	if levels[semantics.MatchExact] == 0 || levels[semantics.MatchPlugin] == 0 || len(want) != 9 {
		t.Fatalf("fixture yields %d candidates at levels %v, want 9 exact and plugin", len(want), levels)
	}
	same("Candidates", f.Candidates(semantics.ShoppingService, ps), want)
	act := &task.Activity{ID: "shop", Concept: semantics.ShoppingService,
		Outputs: []semantics.ConceptID{semantics.Order}}
	wantAct := whole.CandidatesForActivity(act, ps)
	if len(wantAct) == 0 {
		t.Fatal("fixture yields no data-compatible candidate")
	}
	same("CandidatesForActivity", f.CandidatesForActivity(act, ps), wantAct)
}
