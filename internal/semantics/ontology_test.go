package semantics

import (
	"fmt"
	"sync"
	"testing"
)

func buildAnimals(t *testing.T) *Ontology {
	t.Helper()
	o := New("animals")
	o.MustAddConcept("Animal")
	o.MustAddConcept("Mammal", "Animal")
	o.MustAddConcept("Bird", "Animal")
	o.MustAddConcept("Dog", "Mammal")
	o.MustAddConcept("Cat", "Mammal")
	o.MustAddConcept("Sparrow", "Bird")
	o.MustAddAlias("Canine", "Dog")
	return o
}

func TestAddConceptValidation(t *testing.T) {
	o := New("t")
	if err := o.AddConcept(""); err == nil {
		t.Fatal("expected error for empty concept id")
	}
	if err := o.AddConcept("Child", "Missing"); err == nil {
		t.Fatal("expected error for unknown parent")
	}
	o.MustAddConcept("A")
	o.MustAddAlias("Alias", "A")
	if err := o.AddConcept("Alias"); err == nil {
		t.Fatal("expected error for concept clashing with alias")
	}
}

func TestAddConceptMergesParents(t *testing.T) {
	o := New("t")
	o.MustAddConcept("A")
	o.MustAddConcept("B")
	o.MustAddConcept("C", "A")
	o.MustAddConcept("C", "B")
	parents := o.Parents("C")
	if len(parents) != 2 || parents[0] != "A" || parents[1] != "B" {
		t.Fatalf("Parents(C) = %v, want [A B]", parents)
	}
}

func TestIsA(t *testing.T) {
	o := buildAnimals(t)
	tests := []struct {
		name     string
		sub, sup ConceptID
		want     bool
	}{
		{"identity", "Dog", "Dog", true},
		{"direct parent", "Dog", "Mammal", true},
		{"transitive", "Dog", "Animal", true},
		{"reverse", "Animal", "Dog", false},
		{"sibling", "Dog", "Cat", false},
		{"cross branch", "Dog", "Bird", false},
		{"alias sub", "Canine", "Mammal", true},
		{"alias identity", "Canine", "Dog", true},
		{"unknown identity", "Ghost", "Ghost", true},
		{"unknown other", "Ghost", "Animal", false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := o.IsA(tt.sub, tt.sup); got != tt.want {
				t.Errorf("IsA(%q, %q) = %v, want %v", tt.sub, tt.sup, got, tt.want)
			}
		})
	}
}

func TestMatchLevels(t *testing.T) {
	o := buildAnimals(t)
	tests := []struct {
		name              string
		required, offered ConceptID
		want              MatchLevel
	}{
		{"exact", "Dog", "Dog", MatchExact},
		{"exact via alias", "Dog", "Canine", MatchExact},
		{"plugin", "Mammal", "Dog", MatchPlugin},
		{"subsume", "Dog", "Mammal", MatchSubsume},
		{"fail", "Dog", "Sparrow", MatchFail},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := o.Match(tt.required, tt.offered); got != tt.want {
				t.Errorf("Match(%q, %q) = %v, want %v", tt.required, tt.offered, got, tt.want)
			}
		})
	}
}

func TestMatchLevelOrdering(t *testing.T) {
	if !MatchExact.Beats(MatchPlugin) || !MatchPlugin.Beats(MatchSubsume) || !MatchSubsume.Beats(MatchFail) {
		t.Error("match levels should be strictly ordered exact > plugin > subsume > fail")
	}
	if MatchFail.Satisfies() {
		t.Error("MatchFail should not satisfy")
	}
	if !MatchSubsume.Satisfies() {
		t.Error("MatchSubsume should satisfy")
	}
	var zero MatchLevel
	if zero.Satisfies() {
		t.Error("zero MatchLevel should not satisfy")
	}
}

func TestClosureInvalidation(t *testing.T) {
	o := buildAnimals(t)
	if o.IsA("Dog", "Pet") {
		t.Fatal("Dog should not be a Pet yet")
	}
	o.MustAddConcept("Pet", "Animal")
	o.MustAddConcept("Dog", "Pet") // merge parents
	if !o.IsA("Dog", "Pet") {
		t.Fatal("Dog should be a Pet after re-parenting")
	}
}

func TestAncestorsAndChildren(t *testing.T) {
	o := buildAnimals(t)
	anc := o.Ancestors("Dog")
	if len(anc) != 2 || anc[0] != "Animal" || anc[1] != "Mammal" {
		t.Errorf("Ancestors(Dog) = %v, want [Animal Mammal]", anc)
	}
	kids := o.Children("Mammal")
	if len(kids) != 2 || kids[0] != "Cat" || kids[1] != "Dog" {
		t.Errorf("Children(Mammal) = %v, want [Cat Dog]", kids)
	}
	if got := o.Ancestors("Ghost"); got != nil {
		t.Errorf("Ancestors(Ghost) = %v, want nil", got)
	}
}

func TestTriples(t *testing.T) {
	o := buildAnimals(t)
	o.AddTriple("Dog", "eats", "Cat")
	o.AddTriple("Canine", "eats", "Sparrow") // alias subject resolves to Dog
	got := o.Objects("Dog", "eats")
	if len(got) != 2 || got[0] != "Cat" || got[1] != "Sparrow" {
		t.Errorf("Objects(Dog, eats) = %v, want [Cat Sparrow]", got)
	}
	if got := o.Objects("Cat", "eats"); got != nil {
		t.Errorf("Objects(Cat, eats) = %v, want nil", got)
	}
}

func TestAliasValidation(t *testing.T) {
	o := buildAnimals(t)
	if err := o.AddAlias("Dog", "Cat"); err == nil {
		t.Error("alias clashing with concept should fail")
	}
	if err := o.AddAlias("X", "Missing"); err == nil {
		t.Error("alias to unknown concept should fail")
	}
	// Alias chains flatten to the canonical concept.
	o.MustAddAlias("Hound", "Canine")
	if got := o.Canonical("Hound"); got != "Dog" {
		t.Errorf("Canonical(Hound) = %q, want Dog", got)
	}
}

func TestMerge(t *testing.T) {
	dst := buildAnimals(t)
	src := New("plants")
	src.MustAddConcept("Plant")
	src.MustAddConcept("Tree", "Plant")
	src.MustAddConcept("Oak", "Tree")
	src.MustAddAlias("Quercus", "Oak")
	src.AddTriple("Oak", "grows", "Plant")
	if err := dst.Merge(src); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if !dst.IsA("Oak", "Plant") {
		t.Error("merged hierarchy lost: Oak should be a Plant")
	}
	if got := dst.Canonical("Quercus"); got != "Oak" {
		t.Errorf("merged alias lost: Canonical(Quercus) = %q", got)
	}
	if got := dst.Objects("Oak", "grows"); len(got) != 1 || got[0] != "Plant" {
		t.Errorf("merged triples lost: %v", got)
	}
	if !dst.IsA("Dog", "Animal") {
		t.Error("pre-existing hierarchy damaged by merge")
	}
	if err := dst.Merge(nil); err != nil {
		t.Errorf("Merge(nil) = %v, want nil", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	o := buildAnimals(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				_ = o.IsA("Dog", "Animal")
				_ = o.Match("Mammal", "Cat")
				_ = o.Ancestors("Sparrow")
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			o.MustAddConcept("Reptile", "Animal")
		}
	}()
	wg.Wait()
	if !o.IsA("Reptile", "Animal") {
		t.Error("concurrent mutation lost")
	}
}

func TestCacheStatsDeltaAndReset(t *testing.T) {
	o := buildAnimals(t)
	o.Match("Dog", "Animal") // miss
	o.Match("Dog", "Animal") // hit
	before := o.Stats()
	if before.MatchHits != 1 || before.MatchMisses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", before)
	}
	o.Match("Dog", "Animal")
	o.Match("Cat", "Animal")
	d := o.Stats().Delta(before)
	if d.MatchHits != 1 || d.MatchMisses != 1 {
		t.Errorf("delta = %+v, want 1 hit / 1 miss in the window", d)
	}
	// A mutation resets the memo: the stale grade is dropped and the
	// same query misses once more against the new hierarchy.
	if got := o.Match("Pet", "Dog"); got != MatchFail {
		t.Fatalf("Match(Pet, Dog) = %v before Pet exists, want fail", got)
	}
	o.MustAddConcept("Pet", "Animal")
	o.MustAddConcept("Dog", "Pet")
	before = o.Stats()
	if got := o.Match("Pet", "Dog"); got != MatchPlugin {
		t.Errorf("Match(Pet, Dog) = %v after the mutation, want plugin", got)
	}
	if d := o.Stats().Delta(before); d.MatchHits != 0 || d.MatchMisses != 1 {
		t.Errorf("delta after the mutation = %+v, want a pure miss", d)
	}
}

func TestMatchLevelString(t *testing.T) {
	for level, want := range map[MatchLevel]string{
		MatchExact: "exact", MatchPlugin: "plugin", MatchSubsume: "subsume",
		MatchFail: "fail", MatchLevel(99): "MatchLevel(99)",
	} {
		if got := level.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(level), got, want)
		}
	}
}

// memoSize reads the live match-memo size under the ontology lock
// (white-box helper for the cap test).
func memoSize(o *Ontology) int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.matchMemo)
}

func TestMemoCapEvictsMatchEntries(t *testing.T) {
	o := buildAnimals(t)

	// memoCapDefault+1 distinct pairs through the cap: the last insert
	// must evict exactly one resident entry. Three pairs grade subsume;
	// the unknown-concept fillers grade fail.
	want := map[[2]ConceptID]MatchLevel{
		{"Dog", "Animal"}: MatchSubsume, {"Cat", "Animal"}: MatchSubsume, {"Sparrow", "Animal"}: MatchSubsume,
	}
	for i := 0; len(want) < memoCapDefault+1; i++ {
		want[[2]ConceptID{ConceptID(fmt.Sprintf("Ghost%d", i)), "Animal"}] = MatchFail
	}
	for pair := range want {
		o.Match(pair[0], pair[1])
	}
	if m := memoSize(o); m != memoCapDefault {
		t.Fatalf("match memo holds %d entries, cap is %d", m, memoCapDefault)
	}
	if ev := o.Stats().MatchEvictions; ev != 1 {
		t.Fatalf("MatchEvictions = %d, want 1", ev)
	}

	// Eviction must never change answers: every pair still grades the
	// same, an evicted one simply recomputes (a miss, then possibly a
	// fresh eviction) instead of hitting.
	for pair, level := range want {
		if got := o.Match(pair[0], pair[1]); got != level {
			t.Errorf("Match(%s, %s) = %v after eviction, want %v", pair[0], pair[1], got, level)
		}
	}
	if m := memoSize(o); m > memoCapDefault {
		t.Fatalf("match memo grew to %d entries past the cap", m)
	}

	// Re-querying a resident pair is still a hit — the cap does not turn
	// the memo off.
	before := o.Stats()
	o.Match("Sparrow", "Animal")
	if d := o.Stats().Delta(before); d.MatchHits != 1 {
		t.Errorf("resident pair after evictions: delta %+v, want a pure hit", d)
	}
}
