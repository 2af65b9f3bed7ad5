package task

import (
	"testing"

	"qasom/internal/semantics"
)

func behaviour(name string, ids ...string) *Task {
	children := make([]*Node, len(ids))
	for i, id := range ids {
		children[i] = act(id)
	}
	return &Task{Name: name, Concept: semantics.ShoppingService, Root: Sequence(children...)}
}

func shoppingClass() *Class {
	return &Class{
		Name:    "shopping-class",
		Concept: semantics.ShoppingService,
		Behaviours: []*Task{
			behaviour("b1", "a", "b", "c"),
			behaviour("b2", "a", "c", "b"),
			behaviour("b3", "x", "y"),
		},
	}
}

func TestClassValidate(t *testing.T) {
	if err := shoppingClass().Validate(); err != nil {
		t.Fatalf("valid class rejected: %v", err)
	}
	tests := []struct {
		name  string
		class *Class
	}{
		{"nil", nil},
		{"unnamed", &Class{Concept: "C", Behaviours: []*Task{behaviour("b", "a")}}},
		{"no concept", &Class{Name: "c", Behaviours: []*Task{behaviour("b", "a")}}},
		{"no behaviours", &Class{Name: "c", Concept: semantics.ShoppingService}},
		{"invalid behaviour", &Class{Name: "c", Concept: semantics.ShoppingService, Behaviours: []*Task{{Name: "bad"}}}},
		{"concept mismatch", &Class{Name: "c", Concept: "Other", Behaviours: []*Task{behaviour("b", "a")}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.class.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestClassAlternatives(t *testing.T) {
	c := shoppingClass()
	alts := c.Alternatives("b2")
	if len(alts) != 2 || alts[0].Name != "b1" || alts[1].Name != "b3" {
		t.Errorf("Alternatives(b2) = %v", names(alts))
	}
	if got := c.Alternatives("unknown"); len(got) != 3 {
		t.Errorf("Alternatives(unknown) should return all behaviours, got %d", len(got))
	}
}

func names(ts []*Task) []string {
	out := make([]string, len(ts))
	for i, x := range ts {
		out[i] = x.Name
	}
	return out
}

func TestRepositoryRegisterAndLookup(t *testing.T) {
	repo := NewRepository(nil)
	if err := repo.Register(shoppingClass()); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := repo.Register(&Class{Name: "bad"}); err == nil {
		t.Error("invalid class should be rejected")
	}
	if repo.Len() != 1 {
		t.Errorf("Len = %d, want 1", repo.Len())
	}
	if c := repo.Class("shopping-class"); c == nil {
		t.Error("Class lookup failed")
	}
	if c := repo.Class("missing"); c != nil {
		t.Error("missing class should be nil")
	}
	if got := repo.Names(); len(got) != 1 || got[0] != "shopping-class" {
		t.Errorf("Names = %v", got)
	}
}

func TestRepositoryByConceptExact(t *testing.T) {
	repo := NewRepository(nil)
	if err := repo.Register(shoppingClass()); err != nil {
		t.Fatal(err)
	}
	if got := repo.ByConcept(semantics.ShoppingService); len(got) != 1 {
		t.Errorf("ByConcept exact = %d classes, want 1", len(got))
	}
	if got := repo.ByConcept(semantics.MedicalService); len(got) != 0 {
		t.Errorf("ByConcept other = %d classes, want 0", len(got))
	}
}

func TestRepositoryByConceptSemantic(t *testing.T) {
	o := semantics.Scenarios()
	repo := NewRepository(o)
	bookClass := &Class{
		Name:    "book-shopping",
		Concept: semantics.BookSale,
		Behaviours: []*Task{
			{Name: "bb1", Concept: semantics.BookSale, Root: act("a")},
		},
	}
	if err := repo.Register(bookClass); err != nil {
		t.Fatal(err)
	}
	// A request for generic Shopping is satisfied by the BookSale class
	// (plugin match).
	if got := repo.ByConcept(semantics.ShoppingService); len(got) != 1 {
		t.Errorf("subsumption lookup failed: %d classes", len(got))
	}
}

func TestRepositoryClassOf(t *testing.T) {
	repo := NewRepository(nil)
	if err := repo.Register(shoppingClass()); err != nil {
		t.Fatal(err)
	}
	if c := repo.ClassOf("b2"); c == nil || c.Name != "shopping-class" {
		t.Error("ClassOf(b2) should find the class")
	}
	if c := repo.ClassOf("nope"); c != nil {
		t.Error("ClassOf(nope) should be nil")
	}
}

// TestRepositoryClassOfSharedAndReregistered pins ClassOf's tie rule —
// the first class in sorted class-name order owns a shared behaviour
// name, whatever the registration order — and that re-registering a
// class without a behaviour hands the name to the next owner.
func TestRepositoryClassOfSharedAndReregistered(t *testing.T) {
	repo := NewRepository(nil)
	mk := func(name string, behaviours ...*Task) *Class {
		return &Class{Name: name, Concept: semantics.ShoppingService, Behaviours: behaviours}
	}
	for _, c := range []*Class{
		mk("zeta", behaviour("shared", "a"), behaviour("z-only", "z")),
		mk("alpha", behaviour("shared", "b"), behaviour("a-only", "x")),
	} {
		if err := repo.Register(c); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range map[string]string{"shared": "alpha", "a-only": "alpha", "z-only": "zeta"} {
		if c := repo.ClassOf(name); c == nil || c.Name != want {
			t.Errorf("ClassOf(%s) = %v, want %s", name, c, want)
		}
	}
	// alpha re-registered without the shared behaviour: zeta owns it now,
	// and alpha's dropped behaviour name resolves to nothing.
	if err := repo.Register(mk("alpha", behaviour("a-new", "x"))); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"shared": "zeta", "a-new": "alpha", "z-only": "zeta"} {
		if c := repo.ClassOf(name); c == nil || c.Name != want {
			t.Errorf("after re-registration ClassOf(%s) = %v, want %s", name, c, want)
		}
	}
	if c := repo.ClassOf("a-only"); c != nil {
		t.Errorf("ClassOf(a-only) = %s after re-registration, want nil", c.Name)
	}
}

func TestRepositoryZeroValue(t *testing.T) {
	var repo Repository
	if err := repo.Register(shoppingClass()); err != nil {
		t.Fatalf("zero-value repository should accept Register: %v", err)
	}
	if repo.Class("shopping-class") == nil {
		t.Error("lookup after zero-value Register failed")
	}
}
