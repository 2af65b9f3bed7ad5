// Package semantics implements the lightweight description-logic fragment
// that QASOM uses in place of OWL: named concepts organised in a
// multiple-inheritance subsumption hierarchy, concept aliases (to map the
// heterogeneous vocabularies of users and providers onto a shared model),
// a small triple store for non-hierarchical relations, and the
// matchmaking levels (exact / plugin / subsume / fail) used throughout the
// middleware for semantic service and QoS-property matching.
//
// The four QoS ontologies of the thesis (QoS Core, Infrastructure QoS,
// Service QoS and User QoS — Chapter III) are provided as ready-made
// instances; see CoreQoS, InfrastructureQoS, ServiceQoS, UserQoS and the
// merged Pervasive ontology.
package semantics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ConceptID names a concept in an ontology. IDs are case-sensitive and
// unique within an ontology (aliases share the namespace).
type ConceptID string

// MatchLevel grades how well an offered concept satisfies a required one,
// following the classic semantic matchmaking scale (exact > plugin >
// subsume > fail) used by Amigo and PERSE, which the thesis builds on.
type MatchLevel int

// Match levels, ordered from best to worst.
const (
	// MatchExact means the two concepts are identical (after alias
	// resolution).
	MatchExact MatchLevel = iota + 1
	// MatchPlugin means the offered concept is a specialisation of the
	// required one and can therefore be plugged in wherever the required
	// concept is expected.
	MatchPlugin
	// MatchSubsume means the offered concept is a generalisation of the
	// required one; it may satisfy the request but gives weaker
	// guarantees.
	MatchSubsume
	// MatchFail means the concepts are unrelated.
	MatchFail
)

// String returns the conventional name of the match level.
func (m MatchLevel) String() string {
	switch m {
	case MatchExact:
		return "exact"
	case MatchPlugin:
		return "plugin"
	case MatchSubsume:
		return "subsume"
	case MatchFail:
		return "fail"
	default:
		return fmt.Sprintf("MatchLevel(%d)", int(m))
	}
}

// Beats reports whether m is a strictly better match than other.
func (m MatchLevel) Beats(other MatchLevel) bool { return m < other }

// Satisfies reports whether the level denotes a usable match (anything
// better than fail).
func (m MatchLevel) Satisfies() bool { return m != MatchFail && m != 0 }

// Triple is a non-hierarchical statement (subject, predicate, object)
// attached to the ontology, e.g. (ResponseTime, hasUnit, Millisecond).
type Triple struct {
	Subject   ConceptID
	Predicate string
	Object    ConceptID
}

type conceptNode struct {
	id      ConceptID
	parents map[ConceptID]struct{}
}

// conceptPair keys the match memo table.
type conceptPair struct {
	a, b ConceptID
}

// CacheStats reports the reasoning-cache effectiveness of an ontology:
// how many Match calls were answered from the memo table versus derived
// from the hierarchy.
type CacheStats struct {
	MatchHits, MatchMisses uint64
	// MatchEvictions counts memo entries dropped by the size cap
	// (memoCapDefault): a long-running node reasoning over an unbounded
	// stream of concept pairs trades recomputation for bounded memory.
	MatchEvictions uint64
}

// Delta returns the counter increments since an earlier snapshot —
// the per-window attribution a caller gets by snapshotting around a
// phase (approximate under concurrent reasoners, since other
// goroutines' cache traffic lands in the same window).
func (s CacheStats) Delta(prev CacheStats) CacheStats {
	return CacheStats{
		MatchHits:      s.MatchHits - prev.MatchHits,
		MatchMisses:    s.MatchMisses - prev.MatchMisses,
		MatchEvictions: s.MatchEvictions - prev.MatchEvictions,
	}
}

// Ontology is a concept store with subsumption reasoning. The zero value
// is not usable; create instances with New. All methods are safe for
// concurrent use.
type Ontology struct {
	mu       sync.RWMutex
	name     string
	concepts map[ConceptID]*conceptNode
	aliases  map[ConceptID]ConceptID
	triples  []Triple
	// ancestors memoises the transitive closure of the parent relation;
	// invalidated on every mutation.
	ancestors map[ConceptID]map[ConceptID]struct{}
	// matchMemo memoises Match over canonical concept pairs, at most
	// memoCapDefault entries; invalidated together with ancestors on
	// mutation.
	matchMemo map[conceptPair]MatchLevel
	stats     cacheCounters
	// version counts hierarchy/alias mutations; dependents (e.g. the
	// registry's capability index) use it to detect staleness.
	version uint64
	// snap is the immutable alias/version snapshot Canonical and Version
	// read without taking mu — both sit on every candidate-lookup and
	// plan-cache-validation path, where an RLock would serialize readers
	// against reasoning-memo writers. Republished by invalidateLocked.
	snap atomic.Pointer[aliasTable]
}

// cacheCounters are the reasoning-cache counters as atomics, so the memo
// hit paths never take the ontology lock. Stats assembles a snapshot
// from individual loads — approximate under concurrent reasoners, which
// is all CacheStats.Delta promises anyway.
type cacheCounters struct {
	matchHits, matchMisses, matchEvictions atomic.Uint64
}

// aliasTable is one immutable alias-resolution snapshot, paired with the
// version it was published at.
type aliasTable struct {
	aliases map[ConceptID]ConceptID
	version uint64
}

// publishSnapLocked copies the live alias table into a fresh snapshot;
// callers hold the write lock (or own the ontology exclusively, as New
// does).
func (o *Ontology) publishSnapLocked() {
	aliases := make(map[ConceptID]ConceptID, len(o.aliases))
	for a, c := range o.aliases {
		aliases[a] = c
	}
	o.snap.Store(&aliasTable{aliases: aliases, version: o.version})
}

// New creates an empty ontology with the given name.
func New(name string) *Ontology {
	o := &Ontology{
		name:     name,
		concepts: make(map[ConceptID]*conceptNode),
		aliases:  make(map[ConceptID]ConceptID),
	}
	o.publishSnapLocked()
	return o
}

// Version returns a counter incremented on every mutation of the
// concept hierarchy or alias table. Derived structures cache it to
// detect when they must be rebuilt. Lock-free: one atomic load.
func (o *Ontology) Version() uint64 {
	return o.snap.Load().version
}

// Stats returns a snapshot of the reasoning-cache counters
// (approximate under concurrent reasoners).
func (o *Ontology) Stats() CacheStats {
	return CacheStats{
		MatchHits:      o.stats.matchHits.Load(),
		MatchMisses:    o.stats.matchMisses.Load(),
		MatchEvictions: o.stats.matchEvictions.Load(),
	}
}

// memoCapDefault bounds the Match memo table: generous enough that a
// realistic ontology memoises everything it ever computes, small enough
// that a long-running node fed adversarial or ever-growing concept
// vocabularies cannot grow the table without limit.
const memoCapDefault = 8192

// invalidateLocked drops every derived cache and republishes the
// alias/version snapshot; callers hold the write lock with the alias
// table already in its post-mutation state.
func (o *Ontology) invalidateLocked() {
	o.ancestors = nil
	o.matchMemo = nil
	o.version++
	o.publishSnapLocked()
}

// Name returns the ontology name.
func (o *Ontology) Name() string { return o.name }

// Len returns the number of concepts (aliases excluded).
func (o *Ontology) Len() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.concepts)
}

// AddConcept registers a concept with the given parent concepts. All
// parents must already exist. Re-adding an existing concept merges the
// parent sets. It returns an error if id is empty, clashes with an alias,
// or any parent is unknown.
func (o *Ontology) AddConcept(id ConceptID, parents ...ConceptID) error {
	if id == "" {
		return fmt.Errorf("semantics: empty concept id")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, clash := o.aliases[id]; clash {
		return fmt.Errorf("semantics: concept %q clashes with an alias", id)
	}
	for _, p := range parents {
		if _, ok := o.concepts[p]; !ok {
			return fmt.Errorf("semantics: unknown parent concept %q for %q", p, id)
		}
	}
	node, ok := o.concepts[id]
	if !ok {
		node = &conceptNode{id: id, parents: make(map[ConceptID]struct{}, len(parents))}
		o.concepts[id] = node
	}
	for _, p := range parents {
		node.parents[p] = struct{}{}
	}
	o.invalidateLocked()
	return nil
}

// MustAddConcept is AddConcept but panics on error. It is intended for
// building the static QoS ontologies at construction time.
func (o *Ontology) MustAddConcept(id ConceptID, parents ...ConceptID) {
	if err := o.AddConcept(id, parents...); err != nil {
		panic(err)
	}
}

// AddAlias declares alias as an alternative name for canonical. Aliases
// let heterogeneous vocabularies (e.g. "Delay" vs "ResponseTime") resolve
// to the shared model.
func (o *Ontology) AddAlias(alias, canonical ConceptID) error {
	if alias == "" || canonical == "" {
		return fmt.Errorf("semantics: empty alias or canonical id")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, clash := o.concepts[alias]; clash {
		return fmt.Errorf("semantics: alias %q clashes with a concept", alias)
	}
	target := canonical
	if t, ok := o.aliases[canonical]; ok {
		target = t
	}
	if _, ok := o.concepts[target]; !ok {
		return fmt.Errorf("semantics: alias %q targets unknown concept %q", alias, canonical)
	}
	o.aliases[alias] = target
	o.invalidateLocked()
	return nil
}

// MustAddAlias is AddAlias but panics on error.
func (o *Ontology) MustAddAlias(alias, canonical ConceptID) {
	if err := o.AddAlias(alias, canonical); err != nil {
		panic(err)
	}
}

// AddTriple records a non-hierarchical statement about a concept.
func (o *Ontology) AddTriple(subject ConceptID, predicate string, object ConceptID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.triples = append(o.triples, Triple{
		Subject:   o.resolveLocked(subject),
		Predicate: predicate,
		Object:    o.resolveLocked(object),
	})
}

// Objects returns the objects of all triples with the given subject and
// predicate, in insertion order.
func (o *Ontology) Objects(subject ConceptID, predicate string) []ConceptID {
	o.mu.RLock()
	defer o.mu.RUnlock()
	subject = o.resolveLocked(subject)
	var out []ConceptID
	for _, t := range o.triples {
		if t.Subject == subject && t.Predicate == predicate {
			out = append(out, t.Object)
		}
	}
	return out
}

// Canonical resolves aliases to their canonical concept; unknown IDs are
// returned unchanged. Lock-free: reads the published alias snapshot.
func (o *Ontology) Canonical(id ConceptID) ConceptID {
	if c, ok := o.snap.Load().aliases[id]; ok {
		return c
	}
	return id
}

func (o *Ontology) resolveLocked(id ConceptID) ConceptID {
	if c, ok := o.aliases[id]; ok {
		return c
	}
	return id
}

// Has reports whether the concept (or an alias of it) exists.
func (o *Ontology) Has(id ConceptID) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	_, ok := o.concepts[o.resolveLocked(id)]
	return ok
}

// Parents returns the direct parents of a concept in sorted order.
func (o *Ontology) Parents(id ConceptID) []ConceptID {
	o.mu.RLock()
	defer o.mu.RUnlock()
	node, ok := o.concepts[o.resolveLocked(id)]
	if !ok {
		return nil
	}
	out := make([]ConceptID, 0, len(node.parents))
	for p := range node.parents {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Children returns the direct children of a concept in sorted order.
func (o *Ontology) Children(id ConceptID) []ConceptID {
	o.mu.RLock()
	defer o.mu.RUnlock()
	id = o.resolveLocked(id)
	var out []ConceptID
	for cid, node := range o.concepts {
		if _, ok := node.parents[id]; ok {
			out = append(out, cid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsA reports whether sub is the same concept as, or a (transitive)
// specialisation of, sup. Unknown concepts are related only to themselves.
func (o *Ontology) IsA(sub, sup ConceptID) bool {
	o.mu.RLock()
	sub = o.resolveLocked(sub)
	sup = o.resolveLocked(sup)
	o.mu.RUnlock()
	if sub == sup {
		return true
	}
	anc := o.closure()
	_, ok := anc[sub][sup]
	return ok
}

// Ancestors returns all transitive ancestors of a concept (excluding the
// concept itself), in sorted order.
func (o *Ontology) Ancestors(id ConceptID) []ConceptID {
	id = o.Canonical(id)
	set, ok := o.closure()[id]
	if !ok {
		return nil
	}
	out := make([]ConceptID, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// closure returns the memoised transitive closure of the parent relation,
// rebuilding it under the write lock when a mutation invalidated it. The
// returned map is never mutated after publication and is safe to read
// without holding mu.
func (o *Ontology) closure() map[ConceptID]map[ConceptID]struct{} {
	o.mu.RLock()
	cached := o.ancestors
	o.mu.RUnlock()
	if cached != nil {
		return cached
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.ancestors != nil {
		return o.ancestors
	}
	closure := make(map[ConceptID]map[ConceptID]struct{}, len(o.concepts))
	var visit func(id ConceptID) map[ConceptID]struct{}
	visit = func(id ConceptID) map[ConceptID]struct{} {
		if set, ok := closure[id]; ok {
			return set
		}
		set := make(map[ConceptID]struct{})
		closure[id] = set // break cycles defensively
		node := o.concepts[id]
		if node == nil {
			return set
		}
		for p := range node.parents {
			set[p] = struct{}{}
			for a := range visit(p) {
				set[a] = struct{}{}
			}
		}
		return set
	}
	for id := range o.concepts {
		visit(id)
	}
	o.ancestors = closure
	return closure
}

// Match grades how well the offered concept satisfies the required one:
// exact when identical, plugin when offered specialises required, subsume
// when offered generalises required, fail otherwise. Results are
// memoised per canonical concept pair until the hierarchy mutates.
func (o *Ontology) Match(required, offered ConceptID) MatchLevel {
	o.mu.RLock()
	required = o.resolveLocked(required)
	offered = o.resolveLocked(offered)
	key := conceptPair{required, offered}
	if level, ok := o.matchMemo[key]; ok {
		o.mu.RUnlock()
		o.stats.matchHits.Add(1)
		return level
	}
	version := o.version
	o.mu.RUnlock()

	var level MatchLevel
	switch {
	case required == offered:
		level = MatchExact
	case o.IsA(offered, required):
		level = MatchPlugin
	case o.IsA(required, offered):
		level = MatchSubsume
	default:
		level = MatchFail
	}

	o.mu.Lock()
	o.stats.matchMisses.Add(1)
	if o.version == version { // don't cache across a concurrent mutation
		if o.matchMemo == nil {
			o.matchMemo = make(map[conceptPair]MatchLevel)
		}
		o.putMatchLocked(key, level)
	}
	o.mu.Unlock()
	return level
}

// putMatchLocked inserts into the match memo, evicting arbitrary
// resident entries while the table is at its cap. Random eviction (map
// iteration order) is deliberate: it is O(1), needs no recency
// bookkeeping on the read path, and for a memo whose entries are all
// equally cheap to recompute it performs within noise of LRU.
func (o *Ontology) putMatchLocked(key conceptPair, level MatchLevel) {
	if _, resident := o.matchMemo[key]; !resident {
		for len(o.matchMemo) >= memoCapDefault {
			for victim := range o.matchMemo {
				delete(o.matchMemo, victim)
				o.stats.matchEvictions.Add(1)
				break
			}
		}
	}
	o.matchMemo[key] = level
}

// Merge copies every concept, alias and triple of src into o. A concept
// already present has its parent set merged. Merge returns an error
// on alias/concept namespace clashes.
func (o *Ontology) Merge(src *Ontology) error {
	if src == nil {
		return nil
	}
	src.mu.RLock()
	type conceptData struct {
		id      ConceptID
		parents []ConceptID
	}
	nodes := make([]conceptData, 0, len(src.concepts))
	for id, node := range src.concepts {
		cd := conceptData{id: id, parents: make([]ConceptID, 0, len(node.parents))}
		for p := range node.parents {
			cd.parents = append(cd.parents, p)
		}
		nodes = append(nodes, cd)
	}
	aliases := make(map[ConceptID]ConceptID, len(src.aliases))
	for a, c := range src.aliases {
		aliases[a] = c
	}
	triples := make([]Triple, len(src.triples))
	copy(triples, src.triples)
	src.mu.RUnlock()

	// Insert concepts in dependency order (parents first).
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].id < nodes[j].id })
	pending := nodes
	for len(pending) > 0 {
		progressed := false
		var next []conceptData
		for _, cd := range pending {
			ready := true
			for _, p := range cd.parents {
				if !o.Has(p) {
					ready = false
					break
				}
			}
			if !ready {
				next = append(next, cd)
				continue
			}
			if err := o.AddConcept(cd.id, cd.parents...); err != nil {
				return fmt.Errorf("semantics: merging %q: %w", src.name, err)
			}
			progressed = true
		}
		if !progressed {
			return fmt.Errorf("semantics: merging %q: unresolved parent cycle among %d concepts", src.name, len(next))
		}
		pending = next
	}
	aliasNames := make([]ConceptID, 0, len(aliases))
	for a := range aliases {
		aliasNames = append(aliasNames, a)
	}
	sort.Slice(aliasNames, func(i, j int) bool { return aliasNames[i] < aliasNames[j] })
	for _, a := range aliasNames {
		if err := o.AddAlias(a, aliases[a]); err != nil {
			return fmt.Errorf("semantics: merging %q: %w", src.name, err)
		}
	}
	for _, t := range triples {
		o.AddTriple(t.Subject, t.Predicate, t.Object)
	}
	return nil
}
