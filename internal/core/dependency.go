package core

// Inter-service dependency constraints (ROADMAP item 4; Mabrouk's
// follow-up work on service dependencies in ubiquitous environments):
// binding a service for one activity can restrict which services are
// admissible for another. Three edge kinds cover the cases the paper
// motivates — requires (binding A to s forces B into a service set),
// excludes (binding A to s forbids a service set for B) and co-location
// (A and B must bind services hosted on the same device).
//
// A rule set compiles once per request into a DependencySet: dense activity
// indexing, per-activity rule adjacency, and structural validation with
// typed errors (unknown activities, cyclic requires-edges, contradictory
// requires+excludes) so a malformed rule set fails at compile time and
// can never panic mid-search. The global phase additionally binds the
// compiled set to its ranked candidate pools (boundDeps): per-rule
// trigger/member bitmaps over pool indices make the per-probe
// admissibility and violation checks allocation-free and O(rules
// touching the activity).

import (
	"errors"
	"fmt"

	"qasom/internal/registry"
	"qasom/internal/task"
)

// DependencyKind is the edge type of a dependency rule.
type DependencyKind int

// Dependency edge kinds.
const (
	// DepRequires: if From is bound to FromService (any binding when
	// empty), To must be bound to one of ToServices.
	DepRequires DependencyKind = iota + 1
	// DepExcludes: if From is bound to FromService (any binding when
	// empty), To must NOT be bound to any of ToServices.
	DepExcludes
	// DepColocated: the services bound to From and To must be hosted on
	// the same device (Description.Provider). FromService/ToServices are
	// ignored.
	DepColocated
)

// String returns "requires", "excludes" or "colocated".
func (k DependencyKind) String() string {
	switch k {
	case DepRequires:
		return "requires"
	case DepExcludes:
		return "excludes"
	case DepColocated:
		return "colocated"
	default:
		return fmt.Sprintf("DependencyKind(%d)", int(k))
	}
}

// Dependency is one declarative inter-service constraint between two
// activities of the task.
type Dependency struct {
	// Kind selects the edge semantics.
	Kind DependencyKind
	// From and To are activity IDs of the request's task.
	From, To string
	// FromService restricts which binding of From triggers the rule;
	// empty means any binding. Ignored for DepColocated.
	FromService registry.ServiceID
	// ToServices is the admissible set (DepRequires) or the forbidden
	// set (DepExcludes) for To's binding. Ignored for DepColocated.
	ToServices []registry.ServiceID
}

// Typed dependency-compilation errors (match with errors.Is).
var (
	// ErrDependencyInvalid flags a structurally malformed rule (bad kind,
	// self-edge, empty service set on requires/excludes).
	ErrDependencyInvalid = errors.New("core: invalid dependency rule")
	// ErrDependencyUnknownActivity flags a rule referencing an activity
	// the task does not contain.
	ErrDependencyUnknownActivity = errors.New("core: dependency references unknown activity")
	// ErrDependencyCycle flags a cycle in the requires-edge graph.
	ErrDependencyCycle = errors.New("core: dependency requires-edges form a cycle")
	// ErrDependencyContradiction flags a requires rule whose admissible
	// set is entirely forbidden by an excludes rule with an overlapping
	// trigger: no binding of To could ever satisfy both.
	ErrDependencyContradiction = errors.New("core: contradictory requires and excludes dependencies")
)

// depRule is one compiled rule over dense activity indices.
type depRule struct {
	kind     DependencyKind
	from, to int
	trigger  registry.ServiceID // empty = any binding of from
	set      map[registry.ServiceID]bool
}

// DependencySet is a compiled, validated dependency rule set. It is
// immutable after compile and safe for concurrent readers; all checks
// work on service IDs and providers, so the same set serves the
// selection engine, the repair loop and run-time failover.
type DependencySet struct {
	rules    []depRule
	actIDs   []string
	actIdx   map[string]int
	touching [][]int // per activity: indices into rules
	adjacent [][]int // per activity: dependency-adjacent activity indices
}

// CompileDependencies validates and compiles a dependency rule set
// against a task. An empty rule set compiles to nil. All validation
// errors wrap the typed sentinels above.
func CompileDependencies(t *task.Task, rules []Dependency) (*DependencySet, error) {
	if len(rules) == 0 {
		return nil, nil
	}
	acts := t.Activities()
	ds := &DependencySet{
		rules:    make([]depRule, 0, len(rules)),
		actIDs:   make([]string, len(acts)),
		actIdx:   make(map[string]int, len(acts)),
		touching: make([][]int, len(acts)),
		adjacent: make([][]int, len(acts)),
	}
	for i, a := range acts {
		ds.actIDs[i] = a.ID
		ds.actIdx[a.ID] = i
	}
	for ri, r := range rules {
		if r.Kind < DepRequires || r.Kind > DepColocated {
			return nil, fmt.Errorf("%w: rule %d has kind %d", ErrDependencyInvalid, ri, int(r.Kind))
		}
		from, ok := ds.actIdx[r.From]
		if !ok {
			return nil, fmt.Errorf("%w: rule %d (%s) names %q", ErrDependencyUnknownActivity, ri, r.Kind, r.From)
		}
		to, ok := ds.actIdx[r.To]
		if !ok {
			return nil, fmt.Errorf("%w: rule %d (%s) names %q", ErrDependencyUnknownActivity, ri, r.Kind, r.To)
		}
		if from == to {
			return nil, fmt.Errorf("%w: rule %d (%s) is a self-edge on %q", ErrDependencyInvalid, ri, r.Kind, r.From)
		}
		cr := depRule{kind: r.Kind, from: from, to: to, trigger: r.FromService}
		if r.Kind != DepColocated {
			if len(r.ToServices) == 0 {
				return nil, fmt.Errorf("%w: rule %d (%s %s→%s) has an empty service set",
					ErrDependencyInvalid, ri, r.Kind, r.From, r.To)
			}
			cr.set = make(map[registry.ServiceID]bool, len(r.ToServices))
			for _, s := range r.ToServices {
				cr.set[s] = true
			}
		}
		idx := len(ds.rules)
		ds.rules = append(ds.rules, cr)
		ds.touching[from] = append(ds.touching[from], idx)
		ds.touching[to] = append(ds.touching[to], idx)
	}
	for a := range ds.adjacent {
		seen := map[int]bool{a: true}
		for _, ri := range ds.touching[a] {
			r := &ds.rules[ri]
			for _, other := range []int{r.from, r.to} {
				if !seen[other] {
					seen[other] = true
					ds.adjacent[a] = append(ds.adjacent[a], other)
				}
			}
		}
	}
	if err := ds.checkAcyclic(); err != nil {
		return nil, err
	}
	if err := ds.checkContradictions(); err != nil {
		return nil, err
	}
	return ds, nil
}

// checkAcyclic rejects cycles in the requires-edge graph: a requires
// cycle makes the repair re-opening order ill-defined (fixing A can
// forever re-open B and vice versa).
func (ds *DependencySet) checkAcyclic() error {
	edges := make([][]int, len(ds.actIDs))
	for _, r := range ds.rules {
		if r.kind == DepRequires {
			edges[r.from] = append(edges[r.from], r.to)
		}
	}
	const (
		unseen = 0
		open   = 1
		done   = 2
	)
	state := make([]int, len(ds.actIDs))
	var visit func(a int) error
	visit = func(a int) error {
		state[a] = open
		for _, b := range edges[a] {
			switch state[b] {
			case open:
				return fmt.Errorf("%w: through %q and %q", ErrDependencyCycle, ds.actIDs[a], ds.actIDs[b])
			case unseen:
				if err := visit(b); err != nil {
					return err
				}
			}
		}
		state[a] = done
		return nil
	}
	for a := range state {
		if state[a] == unseen {
			if err := visit(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkContradictions rejects a requires rule whose entire admissible
// set is forbidden by an excludes rule on the same edge with an
// overlapping trigger: whenever both rules fire, To has no legal binding.
func (ds *DependencySet) checkContradictions() error {
	for i, req := range ds.rules {
		if req.kind != DepRequires {
			continue
		}
		for j, exc := range ds.rules {
			if exc.kind != DepExcludes || exc.from != req.from || exc.to != req.to {
				continue
			}
			if req.trigger != "" && exc.trigger != "" && req.trigger != exc.trigger {
				continue // triggers never overlap
			}
			covered := true
			for s := range req.set {
				if !exc.set[s] {
					covered = false
					break
				}
			}
			if covered {
				return fmt.Errorf("%w: rules %d and %d on %s→%s",
					ErrDependencyContradiction, i, j, ds.actIDs[req.from], ds.actIDs[req.to])
			}
		}
	}
	return nil
}

// Len returns the compiled rule count (0 for a nil set).
func (ds *DependencySet) Len() int {
	if ds == nil {
		return 0
	}
	return len(ds.rules)
}

// ruleViolated evaluates one rule against concrete bindings.
func (r *depRule) violated(from, to registry.Candidate) bool {
	switch r.kind {
	case DepRequires:
		return (r.trigger == "" || from.Service.ID == r.trigger) && !r.set[to.Service.ID]
	case DepExcludes:
		return (r.trigger == "" || from.Service.ID == r.trigger) && r.set[to.Service.ID]
	case DepColocated:
		return from.Service.Provider != to.Service.Provider
	default:
		return false
	}
}

// Admissible reports whether binding cand to the given activity violates
// any rule, with every other endpoint read through bound (a missing
// binding leaves the rule unevaluated — it cannot be violated yet). A
// nil set admits everything.
func (ds *DependencySet) Admissible(activityID string, cand registry.Candidate, bound func(string) (registry.Candidate, bool)) bool {
	if ds == nil {
		return true
	}
	a, ok := ds.actIdx[activityID]
	if !ok {
		return true
	}
	for _, ri := range ds.touching[a] {
		r := &ds.rules[ri]
		other := r.from
		if other == a {
			other = r.to
		}
		oc, ok := bound(ds.actIDs[other])
		if !ok {
			continue
		}
		fromC, toC := cand, oc
		if r.from != a {
			fromC, toC = oc, cand
		}
		if r.violated(fromC, toC) {
			return false
		}
	}
	return true
}

// Violations counts the rules violated by a full assignment read through
// bound (rules with an unbound endpoint don't count). Zero for a nil
// set.
func (ds *DependencySet) Violations(bound func(string) (registry.Candidate, bool)) int {
	if ds == nil {
		return 0
	}
	n := 0
	for i := range ds.rules {
		r := &ds.rules[i]
		fc, ok := bound(ds.actIDs[r.from])
		if !ok {
			continue
		}
		tc, ok := bound(ds.actIDs[r.to])
		if !ok {
			continue
		}
		if r.violated(fc, tc) {
			n++
		}
	}
	return n
}

// boundDeps is a DependencySet bound to the global phase's ranked
// candidate pools: per-rule trigger/membership bitmaps over pool indices
// replace the map lookups, so the per-probe admissibility and violation
// checks the search consults are allocation-free. Activity indices align
// with the engine's dense indexing (both are task order).
type boundDeps struct {
	ds    *DependencySet
	rules []boundRule
	// touching mirrors ds.touching into the bound rules; adjacent is
	// ds.adjacent, the activities repair re-opens after a swap. Both
	// are shared with the compiled set, never written.
	touching, adjacent [][]int
}

type boundRule struct {
	kind     DependencyKind
	from, to int
	trigger  []bool   // per from-pool candidate: rule fires
	member   []bool   // per to-pool candidate: in the rule's service set
	fromProv []string // per from-pool candidate: hosting device (colocated)
	toProv   []string
}

// bindDeps precomputes the pool bitmaps. ranked is the global phase's
// per-activity shortlist backing (task order, same indexing the kernel
// uses).
func bindDeps(ds *DependencySet, ranked [][]RankedCandidate) *boundDeps {
	if ds == nil {
		return nil
	}
	b := &boundDeps{
		ds:       ds,
		rules:    make([]boundRule, len(ds.rules)),
		touching: ds.touching,
		adjacent: ds.adjacent,
	}
	for ri := range ds.rules {
		r := &ds.rules[ri]
		br := boundRule{kind: r.kind, from: r.from, to: r.to}
		fromPool, toPool := ranked[r.from], ranked[r.to]
		switch r.kind {
		case DepColocated:
			br.fromProv = make([]string, len(fromPool))
			for i := range fromPool {
				br.fromProv[i] = string(fromPool[i].Service.Provider)
			}
			br.toProv = make([]string, len(toPool))
			for i := range toPool {
				br.toProv[i] = string(toPool[i].Service.Provider)
			}
		default:
			br.trigger = make([]bool, len(fromPool))
			for i := range fromPool {
				br.trigger[i] = r.trigger == "" || fromPool[i].Service.ID == r.trigger
			}
			br.member = make([]bool, len(toPool))
			for i := range toPool {
				br.member[i] = r.set[toPool[i].Service.ID]
			}
		}
		b.rules[ri] = br
	}
	return b
}

// violated evaluates one bound rule against pool indices.
func (b *boundDeps) violated(ri int, fromCand, toCand int) bool {
	r := &b.rules[ri]
	switch r.kind {
	case DepRequires:
		return r.trigger[fromCand] && !r.member[toCand]
	case DepExcludes:
		return r.trigger[fromCand] && r.member[toCand]
	default: // DepColocated
		return r.fromProv[fromCand] != r.toProv[toCand]
	}
}

// currents is the slice of the probe kernel the dependency checks read:
// the bound pool index per dense activity. Both evaluation kernels and
// the baselines' index arrays satisfy it.
type currents interface {
	Current(act int) int
}

// sliceCurrents adapts a plain index array (the baselines' recursion
// state) to the currents view.
type sliceCurrents []int

func (s sliceCurrents) Current(act int) int { return s[act] }

// violations counts the rules violated by the kernel's current
// assignment. Allocation-free, O(rules).
func (b *boundDeps) violations(k currents) int {
	if b == nil {
		return 0
	}
	n := 0
	for ri := range b.rules {
		r := &b.rules[ri]
		if b.violated(ri, k.Current(r.from), k.Current(r.to)) {
			n++
		}
	}
	return n
}

// admissible reports whether binding pool member cand to activity act
// keeps every rule touching act satisfied under the rest of the current
// assignment. Allocation-free, O(rules touching act).
func (b *boundDeps) admissible(act, cand int, k currents) bool {
	if b == nil {
		return true
	}
	for _, ri := range b.touching[act] {
		r := &b.rules[ri]
		fromCand, toCand := k.Current(r.from), k.Current(r.to)
		if r.from == act {
			fromCand = cand
		} else {
			toCand = cand
		}
		if b.violated(ri, fromCand, toCand) {
			return false
		}
	}
	return true
}
