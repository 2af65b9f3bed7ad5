package registry

import (
	"sync"
	"sync/atomic"
	"time"

	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/semantics"
)

// This file implements the multi-tenant registry core. The public
// Registry type is a tenant-bound view over a Store: many logical
// environments (tenants) share one process and one Store.
//
// Write rule: one RWMutex guards the directory and the writers' entry
// map, whose capEntries hold each key's filing set. Publish and Withdraw
// hold it across the directory update and the filing update, so a
// service's filing and its epoch bumps land as one step and two
// mutations of the same service never interleave. A service is filed
// when it is published, under every key of its capability closure; the
// description itself is stored once, as an immutable *storedService
// shared by all filings. Lookups hand out a pointer to the frozen
// description (Candidate.Service); Get and All clone it on the way out,
// so no caller can write the registry's copy.
//
// Ontology changes: a concept or alias mutation changes closures, so
// the first lookup that sees the ontology version past the one the
// filings were computed under refiles the whole store under the write
// lock. A publish whose closure was computed under an older version
// than the one it finds under the lock computes it again, so a refile
// that runs between the two cannot leave it filed under a stale closure.
//
// Epochs: the epoch of capability key k is bumped under the write lock,
// before the filing change for k, so a snapshot taken before a lookup
// still certifies "no candidate this lookup could see has changed".
//
// Read path: each capability key owns a capEntry (its epoch and a
// cached candidate list), reached through a sync.Map whose Load is
// lock-free. Writers, under the write lock, nil the list before they
// bump the epoch; a reader that finds the list nil takes the write lock,
// re-checks, rebuilds the list from the filing set and stores it. A list
// is never stored outside the write lock, so a reader that has seen
// epoch E can only load a list built after the mutation that set E.
// Steady-state Candidates and CapabilityEpochs take no lock.

// TenantID names a logical environment sharing the store. The zero value
// is the default tenant, which every tenant-unaware caller uses.
type TenantID string

// DefaultTenant is the tenant of New and of every pre-multi-tenant call
// site.
const DefaultTenant TenantID = ""

// StoreOptions configure a store.
type StoreOptions struct {
	// Obs, when non-nil, receives the store's telemetry:
	// qasom_registry_lock_wait_seconds observes write-lock acquisition
	// waits (only the contended ones: the uncontended fast path costs
	// one TryLock) and qasom_registry_mutations_total counts
	// Publish/Withdraw directory updates.
	Obs *obs.Registry
}

// svcKey is the tenant-scoped directory key of a service.
type svcKey struct {
	tenant TenantID
	id     ServiceID
}

// capKey is the tenant-scoped key of a capability concept: its filing
// set and its epoch counter.
type capKey struct {
	tenant  TenantID
	concept semantics.ConceptID
}

// storedService is one published description plus the filing metadata
// every filing of it shares. desc is the description Publish
// froze: nothing writes it, and every candidate of this publish points at
// it (&desc; embedding it keeps a publish to one allocation). keys is
// immutable after insertion (a re-publish swaps in a fresh
// storedService; the whole-store refile, under the write lock, is the
// only writer of keys).
type storedService struct {
	desc Description
	// keys is the canonical capability closure the service is filed and
	// epoch-bumped under: its canonical capability plus every ancestor.
	// Computed once per Publish and reused for filing and epoch bumps.
	keys []semantics.ConceptID
	// vec is the one-slot cache of the publish's QoS vector: the one
	// resolved for the property set of the latest lookup that had to
	// resolve it. Lookups that find their own property set and the
	// current ontology version share its vector.
	vec atomic.Pointer[resolvedVector]
}

// resolvedVector is one publish's QoS vector aligned to ps, resolved
// under ontology version (read before resolving, so a vector resolved
// while the ontology moved carries the older version and is resolved
// again by the next lookup). ok is false when some property of ps has no
// usable offer. Immutable once stored: vec is shared read-only by every
// candidate handed out from it.
type resolvedVector struct {
	ps      *qos.PropertySet
	version uint64
	vec     qos.Vector
	ok      bool
}

// capEntry is the state of one capability key. Entries are created
// under the write lock and never removed, so a key's epoch survives
// whole-store refiles.
type capEntry struct {
	epoch atomic.Uint64
	// list holds the services filed under the key, built from set; nil
	// means it must be rebuilt. It is stored only under the write lock
	// and never mutated after the store: callers copy before filtering or
	// sorting.
	list atomic.Pointer[[]*storedService]
	// set is the writers' truth of the services filed under the key,
	// guarded by Store.mu; readers consume it only through list.
	set map[ServiceID]*storedService
}

// file adds ss to the key's filing set. Callers hold the write lock.
func (e *capEntry) file(id ServiceID, ss *storedService) {
	if e.set == nil {
		e.set = make(map[ServiceID]*storedService)
	}
	e.set[id] = ss
}

// Store is the multi-tenant registry core. Create instances with
// NewStore and obtain tenant-bound views with Tenant; the plain New
// constructor wraps a fresh single-tenant store for compatibility.
type Store struct {
	ontology *semantics.Ontology

	// keys maps capKey → *capEntry for lock-free readers. It mirrors
	// entries: a key is stored in both, once, under mu.
	keys sync.Map

	mu sync.RWMutex
	// services is the directory of every tenant.
	services map[svcKey]*storedService
	// entries is the writers' typed view of keys.
	entries map[capKey]*capEntry

	// counts holds per-tenant service counts (TenantID → *atomic.Int64).
	counts sync.Map

	// indexVersion is the ontology version the filings were computed
	// under; a lookup that finds the ontology past it refiles the whole
	// store.
	indexVersion atomic.Uint64

	// The telemetry handles are nil without StoreOptions.Obs; their
	// methods are no-ops then.
	lockWait  *obs.Histogram
	mutations *obs.Counter
}

// NewStore creates a multi-tenant store bound to the shared ontology
// (nil restricts matching to exact concept equality).
func NewStore(o *semantics.Ontology, opts StoreOptions) *Store {
	s := &Store{
		ontology: o,
		services: make(map[svcKey]*storedService),
		entries:  make(map[capKey]*capEntry),
	}
	s.indexVersion.Store(s.ontologyVersion())
	if opts.Obs != nil {
		s.lockWait = opts.Obs.Histogram("qasom_registry_lock_wait_seconds",
			"Contended registry write-lock acquisition waits.",
			[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1})
		s.mutations = opts.Obs.Counter("qasom_registry_mutations_total",
			"Publish/Withdraw directory mutations.")
	}
	return s
}

// Tenant returns the tenant-bound view through which one logical
// environment publishes, withdraws and resolves candidates. Views are
// cheap handles; any number may exist per tenant.
func (s *Store) Tenant(t TenantID) *Registry {
	return &Registry{store: s, tenant: t}
}

// Ontology returns the store's shared ontology (may be nil).
func (s *Store) Ontology() *semantics.Ontology { return s.ontology }

// ontologyVersion is the shared ontology's mutation version, 0 without
// one.
func (s *Store) ontologyVersion() uint64 {
	if s.ontology == nil {
		return 0
	}
	return s.ontology.Version()
}

// lock takes the write lock, feeding the contended-wait histogram when
// telemetry is attached. The uncontended path costs one TryLock and no
// clock reads.
func (s *Store) lock() {
	if s.lockWait == nil {
		s.mu.Lock()
		return
	}
	if s.mu.TryLock() {
		return
	}
	start := time.Now()
	s.mu.Lock()
	s.lockWait.Observe(time.Since(start).Seconds())
}

// entryLocked returns the entry for ck, creating it when absent. Callers
// hold the write lock.
func (s *Store) entryLocked(ck capKey) *capEntry {
	e := s.entries[ck]
	if e == nil {
		e = &capEntry{}
		s.entries[ck] = e
		s.keys.Store(ck, e)
	}
	return e
}

// entry returns the entry for ck without locking, or nil when the key
// has never been filed or bumped.
func (s *Store) entry(ck capKey) *capEntry {
	v, _ := s.keys.Load(ck)
	e, _ := v.(*capEntry)
	return e
}

// listOf returns the cached list of e, rebuilding it from e's filing
// set under the write lock when a mutation cleared it.
func (s *Store) listOf(e *capEntry) []*storedService {
	if l := e.list.Load(); l != nil {
		return *l
	}
	s.lock()
	defer s.mu.Unlock()
	if l := e.list.Load(); l != nil {
		return *l
	}
	list := make([]*storedService, 0, len(e.set))
	for _, ss := range e.set {
		list = append(list, ss)
	}
	e.list.Store(&list)
	return list
}

func (s *Store) tenantCount(t TenantID) *atomic.Int64 {
	if v, ok := s.counts.Load(t); ok {
		return v.(*atomic.Int64)
	}
	v, _ := s.counts.LoadOrStore(t, new(atomic.Int64))
	return v.(*atomic.Int64)
}

// closureKeys computes, once, the canonical capability closure a
// description is filed and epoch-bumped under: its canonical capability
// plus every (transitive) ancestor.
func (s *Store) closureKeys(c semantics.ConceptID) []semantics.ConceptID {
	if s.ontology == nil {
		return []semantics.ConceptID{c}
	}
	canon := s.ontology.Canonical(c)
	anc := s.ontology.Ancestors(canon)
	keys := make([]semantics.ConceptID, 0, 1+len(anc))
	keys = append(keys, canon)
	return append(keys, anc...)
}

// publish validates and stores a description for the tenant, replacing
// any previous version.
func (s *Store) publish(t TenantID, d Description) error {
	if err := d.Validate(); err != nil {
		return err
	}
	// The clone is the frozen description every later lookup shares.
	cp := d.clone()
	// Canonicalize once, outside the lock: the closure drives filing and
	// epoch bumps alike. The version is read first, so a closure the
	// ontology may have moved under is recomputed under the lock, where
	// no refile can run.
	version := s.ontologyVersion()
	ss := &storedService{desc: cp, keys: s.closureKeys(cp.Concept)}
	sk := svcKey{t, cp.ID}

	s.lock()
	if s.ontologyVersion() != version {
		ss.keys = s.closureKeys(cp.Concept)
	}
	old := s.services[sk]
	s.services[sk] = ss
	var oldKeys []semantics.ConceptID
	if old != nil {
		oldKeys = old.keys
	}
	s.applyIndexDeltaLocked(t, cp.ID, ss, oldKeys, ss.keys)
	s.mu.Unlock()

	if old == nil {
		s.tenantCount(t).Add(1)
	}
	s.mutations.Inc()
	return nil
}

// withdraw removes a tenant's service; it reports whether the service
// was present.
func (s *Store) withdraw(t TenantID, id ServiceID) bool {
	sk := svcKey{t, id}
	s.lock()
	old := s.services[sk]
	if old == nil {
		s.mu.Unlock()
		return false
	}
	delete(s.services, sk)
	s.applyIndexDeltaLocked(t, id, nil, old.keys, nil)
	s.mu.Unlock()

	s.tenantCount(t).Add(-1)
	s.mutations.Inc()
	return true
}

// applyIndexDeltaLocked unfiles the service from the keys in oldKeys it
// leaves, files it (as ss) under every key in newKeys, and bumps the
// epoch of each key once per appearance in either list. ss == nil means
// withdrawal. Callers hold the write lock.
func (s *Store) applyIndexDeltaLocked(t TenantID, id ServiceID, ss *storedService, oldKeys, newKeys []semantics.ConceptID) {
	// bump invalidates the key for lock-free readers before the filing
	// change. The list is nilled before the epoch moves, so a reader that
	// sees the new epoch finds no pre-mutation list to load.
	bump := func(k semantics.ConceptID) *capEntry {
		e := s.entryLocked(capKey{t, k})
		e.list.Store(nil)
		e.epoch.Add(1)
		return e
	}
	for _, k := range oldKeys {
		e := bump(k)
		if ss != nil && containsConcept(newKeys, k) {
			continue // key kept: the newKeys pass below overwrites the filing
		}
		delete(e.set, id)
	}
	if ss == nil {
		return
	}
	for _, k := range newKeys {
		bump(k).file(id, ss)
	}
}

func containsConcept(keys []semantics.ConceptID, c semantics.ConceptID) bool {
	for _, k := range keys {
		if k == c {
			return true
		}
	}
	return false
}

// has reports whether the tenant publishes id, copying nothing.
func (s *Store) has(t TenantID, id ServiceID) bool {
	s.mu.RLock()
	_, ok := s.services[svcKey{t, id}]
	s.mu.RUnlock()
	return ok
}

// get returns a copy of the tenant's description for id.
func (s *Store) get(t TenantID, id ServiceID) (Description, bool) {
	s.mu.RLock()
	ss := s.services[svcKey{t, id}]
	s.mu.RUnlock()
	if ss == nil {
		return Description{}, false
	}
	return ss.desc.clone(), true
}

// tenantServices appends the tenant's stored services to out under the
// read lock.
func (s *Store) tenantServices(t TenantID, out []*storedService) []*storedService {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for sk, ss := range s.services {
		if sk.tenant == t {
			out = append(out, ss)
		}
	}
	return out
}

// all returns copies of every description of the tenant (unsorted; the
// caller sorts).
func (s *Store) all(t TenantID) []Description {
	stored := s.tenantServices(t, make([]*storedService, 0, s.tenantCount(t).Load()))
	out := make([]Description, len(stored))
	for i, ss := range stored {
		out[i] = ss.desc.clone()
	}
	return out
}

// capabilityEpochs fills dst, in concepts order, with the current epoch
// of each capability key for the tenant — one atomic load per key, no
// locks — and appends the ontology version when one is attached. Each
// position is individually monotonic, which is all the plan cache's
// snapshot-before-lookup protocol needs: any mutation between snapshot
// and validation makes some position differ.
func (s *Store) capabilityEpochs(t TenantID, dst []uint64, concepts ...semantics.ConceptID) []uint64 {
	if dst != nil {
		dst = dst[:0]
	}
	for _, c := range concepts {
		if s.ontology != nil {
			c = s.ontology.Canonical(c)
		}
		var epoch uint64
		if e := s.entry(capKey{t, c}); e != nil {
			epoch = e.epoch.Load()
		}
		dst = append(dst, epoch)
	}
	if s.ontology != nil {
		dst = append(dst, s.ontology.Version())
	}
	return dst
}

// EpochProbe takes the snapshot CapabilityEpochs takes for one fixed
// concept list, resolving each concept's canonical key and capEntry
// once per ontology version instead of on every call. A resolved
// pointer stays valid because capEntries are never removed (a key's
// epoch survives whole-store refiles); an alias change moves the
// ontology version, which forces a fresh resolution. A warm probe
// is one atomic load per concept plus the version. Safe for concurrent
// use.
type EpochProbe struct {
	store    *Store
	tenant   TenantID
	concepts []semantics.ConceptID
	resolved atomic.Pointer[probeResolution]
}

// probeResolution is the immutable capEntry list of a probe's concepts
// under one ontology version.
type probeResolution struct {
	version uint64
	entries []*capEntry
}

// Epochs fills dst exactly as CapabilityEpochs(dst, concepts...) does:
// it overwrites dst from index 0, discarding what it held, and takes no
// lock.
func (p *EpochProbe) Epochs(dst []uint64) []uint64 {
	if dst != nil {
		dst = dst[:0]
	}
	o := p.store.ontology
	var version uint64
	if o != nil {
		version = o.Version()
	}
	res := p.resolved.Load()
	if res == nil || res.version != version {
		res = p.resolve(version)
	}
	for _, e := range res.entries {
		var epoch uint64
		if e != nil {
			epoch = e.epoch.Load()
		}
		dst = append(dst, epoch)
	}
	if o != nil {
		dst = append(dst, version)
	}
	return dst
}

// resolve looks up every concept's capEntry under the ontology version
// read just before, and caches the result only when every entry exists:
// a never-published capability has no entry yet, and a cached nil would
// hide its first publish.
func (p *EpochProbe) resolve(version uint64) *probeResolution {
	s := p.store
	res := &probeResolution{version: version, entries: make([]*capEntry, len(p.concepts))}
	complete := true
	for i, c := range p.concepts {
		if s.ontology != nil {
			c = s.ontology.Canonical(c)
		}
		res.entries[i] = s.entry(capKey{p.tenant, c})
		complete = complete && res.entries[i] != nil
	}
	if complete {
		p.resolved.Store(res)
	}
	return res
}

// refile recomputes every stored service's closure and refiles the
// whole store when the ontology version moved past the one the filings
// were computed under (concept and alias mutations change closures).
func (s *Store) refile() {
	if s.indexVersion.Load() == s.ontologyVersion() {
		return
	}
	s.lock()
	defer s.mu.Unlock()
	version := s.ontologyVersion()
	if s.indexVersion.Load() == version {
		return
	}
	// A refile is not a mutation: epochs stay (the ontology version,
	// appended to every epoch snapshot, certifies closure changes). Keys
	// a moved ontology newly files get zero-epoch entries, and every list
	// is cleared because filings changed under unchanged epochs.
	for _, e := range s.entries {
		e.list.Store(nil)
		e.set = nil
	}
	for sk, ss := range s.services {
		ss.keys = s.closureKeys(ss.desc.Concept)
		for _, k := range ss.keys {
			s.entryLocked(capKey{sk.tenant, k}).file(sk.id, ss)
		}
	}
	s.indexVersion.Store(version)
}

// collect returns the services filed under the tenant's capability:
// its cached list, lock-free unless a mutation or a refile cleared it.
// The result may be a shared snapshot — callers must treat it as
// immutable and copy before filtering or sorting.
func (s *Store) collect(t TenantID, canon semantics.ConceptID) []*storedService {
	s.refile()
	e := s.entry(capKey{t, canon})
	if e == nil {
		return nil // key never filed or bumped: nothing to find
	}
	return s.listOf(e)
}

// candidates resolves the tenant's services able to provide the required
// capability; see Registry.Candidates for the contract. A lookup sees the
// same few capability concepts on every description, so it matches each
// distinct one once per call. Each publish's vector comes from its
// one-slot cache; only a miss resolves offers, matching each distinct
// offer name against the properties of ps once per call.
func (s *Store) candidates(t TenantID, required semantics.ConceptID, ps *qos.PropertySet) []Candidate {
	// Read before anything is resolved, so a cached vector never claims a
	// newer ontology than the one it was resolved under.
	version := s.ontologyVersion()
	if s.ontology != nil {
		required = s.ontology.Canonical(required)
	}
	stored := s.collect(t, required)
	// Services filed under the capability match it (exact or plug-in);
	// only one lacking an offer drops out, so size for all of them.
	out := make([]Candidate, 0, len(stored))
	var levels levelMemo
	var names map[semantics.ConceptID]uint64 // built on the first vector miss
	vocab := offerVocab{o: s.ontology, ps: ps}
	for _, ss := range stored {
		level := levels.level(s, required, ss.desc.Concept)
		if level != semantics.MatchExact && level != semantics.MatchPlugin {
			continue
		}
		rv := ss.vec.Load()
		if rv == nil || rv.ps != ps || rv.version != version {
			if names == nil {
				names = make(map[semantics.ConceptID]uint64)
			}
			rv = &resolvedVector{ps: ps, version: version}
			rv.vec, rv.ok = vocab.vectorFor(names, &ss.desc)
			ss.vec.Store(rv)
		}
		if !rv.ok {
			continue
		}
		out = append(out, Candidate{Service: &ss.desc, Vector: rv.vec, Match: level})
	}
	sortCandidates(out)
	return out
}

// levelMemo holds one lookup's capability match levels for the first
// few distinct offered concepts; a concept past them is matched by the
// ontology, whose Match is memoized itself.
type levelMemo struct {
	n        int
	concepts [8]semantics.ConceptID
	levels   [8]semantics.MatchLevel
}

// level returns the match level of offered against required.
func (m *levelMemo) level(s *Store, required, offered semantics.ConceptID) semantics.MatchLevel {
	for i := 0; i < m.n; i++ {
		if m.concepts[i] == offered {
			return m.levels[i]
		}
	}
	level := s.matchCapability(required, offered)
	if m.n < len(m.concepts) {
		m.concepts[m.n], m.levels[m.n] = offered, level
		m.n++
	}
	return level
}

func (s *Store) matchCapability(required, offered semantics.ConceptID) semantics.MatchLevel {
	if s.ontology == nil {
		if required == offered {
			return semantics.MatchExact
		}
		return semantics.MatchFail
	}
	return s.ontology.Match(required, offered)
}

// offerVocab resolves descriptions' offers against one property set for
// the span of one lookup. Each distinct offer name is matched once, into
// a bitmask of the property indices it satisfies, by OfferFor's rule;
// the caller keeps that name → mask memo. (It is not a field: the
// ontology pointer here escapes through Match, and a map stored next to
// it would escape too instead of staying in the caller's frame.)
type offerVocab struct {
	o     *semantics.Ontology
	ps    *qos.PropertySet
	masks []uint64 // per offer of the description being resolved
}

// mask returns the properties of ps an offer named name satisfies: bit j
// is set when offerMatches holds for ps.At(j).
func (v *offerVocab) mask(names map[semantics.ConceptID]uint64, name semantics.ConceptID) uint64 {
	if m, ok := names[name]; ok {
		return m
	}
	canon := canonicalName(v.o, name)
	var m uint64
	for j := 0; j < v.ps.Len(); j++ {
		if offerMatches(v.o, canon, v.ps.At(j)) {
			m |= 1 << j
		}
	}
	names[name] = m
	return m
}

// vectorFor is d.VectorFor(v.ps, v.o) with the offer matches read
// from the memo: per property the first matching offer whose unit
// converts, and false when some property has none. Property sets wider
// than a mask fall back to VectorFor itself.
func (v *offerVocab) vectorFor(names map[semantics.ConceptID]uint64, d *Description) (qos.Vector, bool) {
	if v.ps.Len() > 64 {
		vec, err := d.VectorFor(v.ps, v.o)
		return vec, err == nil
	}
	v.masks = v.masks[:0]
	for i := range d.Offers {
		v.masks = append(v.masks, v.mask(names, d.Offers[i].Property))
	}
	vec := v.ps.NewVector()
	for j := range vec {
		p := v.ps.At(j)
		found := false
		for i := range d.Offers {
			if v.masks[i]&(1<<j) == 0 {
				continue
			}
			x, err := convertOffer(&d.Offers[i], p)
			if err != nil {
				continue
			}
			vec[j], found = x, true
			break
		}
		if !found {
			return nil, false
		}
	}
	return vec, true
}
