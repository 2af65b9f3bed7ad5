package registry

import (
	"fmt"
	"sort"
	"sync"

	"qasom/internal/qos"
	"qasom/internal/semantics"
	"qasom/internal/task"
)

// Federation aggregates the per-device registries of an ad hoc
// environment: each device advertises its own services in its own
// registry, and a requester resolves candidates across every registry
// currently in reach. Members join and leave dynamically (device churn);
// duplicate service IDs across members resolve to the first member in
// join order. Safe for concurrent use.
type Federation struct {
	ontology *semantics.Ontology

	mu      sync.RWMutex
	order   []string
	members map[string]*Registry
}

// NewFederation creates an empty federation over the shared ontology.
func NewFederation(o *semantics.Ontology) *Federation {
	return &Federation{
		ontology: o,
		members:  make(map[string]*Registry),
	}
}

// Join adds a member registry under the given name (typically the device
// ID). Joining an existing name replaces that member.
func (f *Federation) Join(name string, r *Registry) error {
	if name == "" || r == nil {
		return fmt.Errorf("registry: federation member needs a name and a registry")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, exists := f.members[name]; !exists {
		f.order = append(f.order, name)
	}
	f.members[name] = r
	return nil
}

// Leave removes a member (its services become unreachable); it reports
// whether the member existed.
func (f *Federation) Leave(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.members[name]; !ok {
		return false
	}
	delete(f.members, name)
	for i, n := range f.order {
		if n == name {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	return true
}

// Members returns the member names in join order.
func (f *Federation) Members() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]string(nil), f.order...)
}

// snapshot returns the members in join order.
func (f *Federation) snapshot() []*Registry {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]*Registry, 0, len(f.order))
	for _, name := range f.order {
		out = append(out, f.members[name])
	}
	return out
}

// Len returns the total number of distinct services across members.
func (f *Federation) Len() int {
	seen := make(map[ServiceID]struct{})
	for _, r := range f.snapshot() {
		for _, d := range r.All() {
			seen[d.ID] = struct{}{}
		}
	}
	return len(seen)
}

// Get returns the first member's copy of the service.
func (f *Federation) Get(id ServiceID) (Description, bool) {
	for _, r := range f.snapshot() {
		if d, ok := r.Get(id); ok {
			return d, true
		}
	}
	return Description{}, false
}

// All returns every distinct description across members, sorted by ID.
func (f *Federation) All() []Description {
	seen := make(map[ServiceID]struct{})
	var out []Description
	for _, r := range f.snapshot() {
		for _, d := range r.All() {
			if _, dup := seen[d.ID]; dup {
				continue
			}
			seen[d.ID] = struct{}{}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Candidates resolves candidates across every member, deduplicated by
// service ID (first member wins) and sorted like Registry.Candidates.
func (f *Federation) Candidates(required semantics.ConceptID, ps *qos.PropertySet) []Candidate {
	return f.merge(func(r *Registry) []Candidate { return r.Candidates(required, ps) })
}

// CandidatesForActivity resolves activity candidates across members with
// the same data-compatibility rules as Registry.CandidatesForActivity.
func (f *Federation) CandidatesForActivity(a *task.Activity, ps *qos.PropertySet) []Candidate {
	return f.merge(func(r *Registry) []Candidate { return r.CandidatesForActivity(a, ps) })
}

// merge runs lookup on every member in join order, keeps the first
// member's candidate for each service ID and sorts the union with the
// registry's own rule. IDs are unique after the dedupe, so the order is
// total and does not depend on which member answered first.
func (f *Federation) merge(lookup func(*Registry) []Candidate) []Candidate {
	seen := make(map[ServiceID]struct{})
	var out []Candidate
	for _, r := range f.snapshot() {
		for _, c := range lookup(r) {
			if _, dup := seen[c.Service.ID]; dup {
				continue
			}
			seen[c.Service.ID] = struct{}{}
			out = append(out, c)
		}
	}
	sortCandidates(out)
	return out
}
