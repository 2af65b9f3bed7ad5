package task

import (
	"fmt"
	"sort"
	"sync"

	"qasom/internal/semantics"
)

// Class is a task class (Chapter V §5): a set of behaviourally different
// but functionally equivalent tasks. All behaviours realise the same
// overall functionality (the class concept); they may differ in activity
// order, composition patterns or activity granularity (split/merged
// activities).
type Class struct {
	// Name identifies the class.
	Name string
	// Concept is the functionality every behaviour realises.
	Concept semantics.ConceptID
	// Behaviours are the equivalent task definitions, preference-ordered
	// (earlier behaviours are tried first during adaptation).
	Behaviours []*Task
}

// Validate checks that the class is non-empty and every behaviour is a
// valid task realising the class concept.
func (c *Class) Validate() error {
	if c == nil {
		return fmt.Errorf("task: nil class")
	}
	if c.Name == "" {
		return fmt.Errorf("task: unnamed class")
	}
	if c.Concept == "" {
		return fmt.Errorf("task: class %q without concept", c.Name)
	}
	if len(c.Behaviours) == 0 {
		return fmt.Errorf("task: class %q has no behaviours", c.Name)
	}
	for i, b := range c.Behaviours {
		if err := b.Validate(); err != nil {
			return fmt.Errorf("task: class %q behaviour %d: %w", c.Name, i, err)
		}
		if b.Concept != c.Concept {
			return fmt.Errorf("task: class %q behaviour %q realises %q, want %q",
				c.Name, b.Name, b.Concept, c.Concept)
		}
	}
	return nil
}

// Alternatives returns the behaviours other than the named one, in
// preference order. It is what behavioural adaptation iterates over when
// the running behaviour fails.
func (c *Class) Alternatives(currentName string) []*Task {
	out := make([]*Task, 0, len(c.Behaviours))
	for _, b := range c.Behaviours {
		if b.Name != currentName {
			out = append(out, b)
		}
	}
	return out
}

// Repository is the task-class repository of the middleware: it stores
// the abstract descriptions of the tasks offered by the pervasive
// environment and serves lookups by name or by functional concept.
// The zero value is ready to use. Safe for concurrent use.
type Repository struct {
	mu      sync.RWMutex
	classes map[string]*Class
	// byBehaviour maps a behaviour name to its class, the first in
	// sorted class-name order when several classes share the name.
	// Rebuilt by Register.
	byBehaviour map[string]*Class
	// ontology, when set, enables subsumption-aware concept lookups.
	ontology *semantics.Ontology
}

// NewRepository creates a repository; the ontology may be nil, in which
// case concept lookups are exact-match only.
func NewRepository(o *semantics.Ontology) *Repository {
	return &Repository{classes: make(map[string]*Class), ontology: o}
}

// Register validates and stores a class, replacing any class of the same
// name.
func (r *Repository) Register(c *Class) error {
	if err := c.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.classes == nil {
		r.classes = make(map[string]*Class)
	}
	r.classes[c.Name] = c
	// Replacing a class may drop behaviour names, so rebuild the map
	// rather than patch it; walking classes in reverse name order lets
	// the first class in sorted order win a shared behaviour name.
	names := make([]string, 0, len(r.classes))
	for name := range r.classes {
		names = append(names, name)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	r.byBehaviour = make(map[string]*Class)
	for _, name := range names {
		for _, b := range r.classes[name].Behaviours {
			r.byBehaviour[b.Name] = r.classes[name]
		}
	}
	return nil
}

// Class returns the class with the given name, or nil.
func (r *Repository) Class(name string) *Class {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.classes[name]
}

// ByConcept returns all classes whose concept satisfies the required
// functionality (exact or, with an ontology, plugin matches), sorted by
// name for determinism.
func (r *Repository) ByConcept(required semantics.ConceptID) []*Class {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*Class
	for _, c := range r.classes {
		if c.Concept == required {
			out = append(out, c)
			continue
		}
		if r.ontology != nil && r.ontology.Match(required, c.Concept).Satisfies() {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ClassOf returns the class containing a behaviour with the given task
// name, or nil. Adaptation uses it to find the class of the running task.
// When several classes share the behaviour name, the first in sorted
// class-name order wins.
func (r *Repository) ClassOf(taskName string) *Class {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byBehaviour[taskName]
}

// Names returns the sorted names of all registered classes.
func (r *Repository) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.classes))
	for name := range r.classes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered classes.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.classes)
}
