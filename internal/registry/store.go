package registry

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/semantics"
)

// This file implements the sharded, multi-tenant registry core. The
// public Registry type is a tenant-bound view over a Store: many logical
// environments (tenants) share one process and one shard array, and the
// single lock domain of the original registry becomes one RWMutex per
// shard so Publish/Withdraw and candidate lookups on unrelated
// capabilities never contend.
//
// Placement: a capability concept (and its index entry and epoch
// counter) lives in the shard its (tenant, concept) pair hashes to; a
// service's directory entry lives in the shard its (tenant, id) pair
// hashes to. A service is therefore *indexed* in every shard that owns
// one of its capability-closure keys, while the description itself is
// stored once, as an immutable *storedService shared by all filings —
// readers clone on the way out exactly as before, so no aliasing is
// introduced by the sharing.
//
// Epoch semantics are unchanged from the single-lock registry but are
// now per shard: the epoch of capability key k is bumped under shard(k)'s
// write lock, before the index change for k, so a snapshot taken before
// a lookup still certifies "no candidate this lookup could see has
// changed".
//
// Read path: each capability key owns a capEntry (its epoch and a
// cached candidate list), reached through a per-shard sync.Map whose
// Load is lock-free. Writers, under the shard write lock, nil the list
// before they bump the epoch; a reader that finds the list nil takes the
// shard write lock, re-checks, rebuilds the list from the index and
// stores it. A list is never stored outside the write lock, so a reader
// that has seen epoch E can only load a list built after the mutation
// that set E. Steady-state Candidates and CapabilityEpochs take no lock.
//
// Mutations of one service (same tenant + ID) are serialized on a
// striped mutex so a Publish/Withdraw race on the same ID cannot
// interleave its per-shard index updates with another mutation of the
// same service; mutations of different services only meet at the shard
// granularity. Stripe locks never nest inside shard locks and shard
// locks are held one at a time (the whole-store index rebuild is the one
// exception: it takes every shard lock, in index order, while holding
// rebuildMu and no stripe).

// TenantID names a logical environment sharing the store. The zero value
// is the default tenant, which every tenant-unaware caller uses.
type TenantID string

// DefaultTenant is the tenant of New and of every pre-multi-tenant call
// site.
const DefaultTenant TenantID = ""

// DefaultShards is the shard count when StoreOptions.Shards is zero.
const DefaultShards = 8

// mutationStripes is the size of the per-service mutation serialization
// table. It only bounds the number of concurrent *mutations* in flight
// (readers never touch it), so a modest fixed size is plenty.
const mutationStripes = 128

// StoreOptions configure a sharded store.
type StoreOptions struct {
	// Shards is the number of lock domains; it is rounded up to a power
	// of two. 0 means DefaultShards.
	Shards int
	// Obs, when non-nil, receives the store's shard telemetry:
	// qasom_registry_shard_lock_wait_seconds{shard} observes write-lock
	// acquisition waits (only the contended ones — the uncontended fast
	// path costs one TryLock), and qasom_registry_shard_mutations_total
	// counts Publish/Withdraw directory updates per shard.
	Obs *obs.Registry
}

// paddedMutex keeps adjacent stripe locks on separate cache lines so
// unrelated concurrent mutations never false-share a lock word.
type paddedMutex struct {
	sync.Mutex
	_ [56]byte
}

// svcKey is the tenant-scoped directory key of a service.
type svcKey struct {
	tenant TenantID
	id     ServiceID
}

// capKey is the tenant-scoped key of a capability concept: its index
// entry and its epoch counter live in the shard this key hashes to.
type capKey struct {
	tenant  TenantID
	concept semantics.ConceptID
}

// storedService is one published description plus the filing metadata
// every shard that indexes it shares. desc and keys are immutable after
// insertion (a re-publish swaps in a fresh storedService; the whole-store
// rebuild, which holds every shard lock, is the only writer of keys).
type storedService struct {
	desc   Description
	tenant TenantID
	// keys is the canonical capability closure the service is filed and
	// epoch-bumped under: its canonical capability plus every ancestor.
	// Computed once per Publish and reused for shard routing, index
	// filing and epoch bumps.
	keys []semantics.ConceptID
	// home is the shard holding the directory entry.
	home uint32
}

// capEntry is the read-side state of one capability key. Entries are
// created under the shard write lock and never removed, so a key's epoch
// survives index rebuilds.
type capEntry struct {
	epoch atomic.Uint64
	// list holds the services filed under the key, built from the index;
	// nil means it must be rebuilt. It is stored only under the shard
	// write lock and never mutated after the store: callers copy before
	// filtering or sorting.
	list atomic.Pointer[[]*storedService]
}

// shard is one lock domain of the store.
type shard struct {
	// keys maps capKey → *capEntry for lock-free readers. It mirrors
	// entries: a key is stored in both, once, under mu.
	keys sync.Map

	mu sync.RWMutex
	// services holds the directory entries homed here (routed by
	// (tenant, id)).
	services map[svcKey]*storedService
	// index maps each capability key owned by this shard (routed by
	// (tenant, concept)) to the services filed under it, across all home
	// shards. Writer truth; readers consume it only through capEntry.list
	// or under mu.
	index map[capKey]map[ServiceID]*storedService
	// entries is the writers' typed view of keys.
	entries map[capKey]*capEntry

	// _ pads the shard past a cache line so adjacent shards' hot fields
	// never false-share.
	_ [64]byte
}

// entryLocked returns the entry for ck, creating it when absent. Callers
// hold the shard's write lock.
func (sh *shard) entryLocked(ck capKey) *capEntry {
	e := sh.entries[ck]
	if e == nil {
		e = &capEntry{}
		sh.entries[ck] = e
		sh.keys.Store(ck, e)
	}
	return e
}

// entry returns the entry for ck without locking, or nil when the key
// has never been filed or bumped.
func (sh *shard) entry(ck capKey) *capEntry {
	v, _ := sh.keys.Load(ck)
	e, _ := v.(*capEntry)
	return e
}

// clearListsLocked drops every cached list, for index changes that move
// no epoch. Callers hold the shard's write lock.
func (sh *shard) clearListsLocked() {
	for _, e := range sh.entries {
		e.list.Store(nil)
	}
}

// listOf returns the cached list of ck, rebuilding it from the index
// under the write lock when a mutation cleared it.
func (sh *shard) listOf(ck capKey, e *capEntry) []*storedService {
	if l := e.list.Load(); l != nil {
		return *l
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if l := e.list.Load(); l != nil {
		return *l
	}
	set := sh.index[ck]
	list := make([]*storedService, 0, len(set))
	for _, ss := range set {
		list = append(list, ss)
	}
	e.list.Store(&list)
	return list
}

// watcher is one Watch subscription, tenant-filtered at notify time.
type watcher struct {
	ch     chan Event
	tenant TenantID
}

// Store is the sharded, multi-tenant registry core. Create instances
// with NewStore and obtain tenant-bound views with Tenant; the plain New
// constructor wraps a fresh single-tenant store for compatibility.
type Store struct {
	ontology *semantics.Ontology
	shards   []shard
	mask     uint32
	stripes  [mutationStripes]paddedMutex

	// gen is the store-global generation, bumped on every mutation of any
	// tenant; readers poll it with one atomic load.
	gen   atomic.Uint64
	total atomic.Int64
	// counts holds per-tenant service counts (TenantID → *atomic.Int64).
	counts sync.Map

	// Index lifecycle: built lazily on the first indexed lookup, then
	// maintained incrementally per shard; a moved ontology version forces
	// a whole-store rebuild (concept mutations change every closure).
	indexing     atomic.Bool
	built        atomic.Bool
	indexVersion atomic.Uint64
	rebuildMu    sync.Mutex

	indexedLookups atomic.Uint64
	scanLookups    atomic.Uint64
	indexRebuilds  atomic.Uint64

	watchMu  sync.RWMutex
	watchers map[int]watcher
	nextW    int

	// lockWait/mutations are nil without StoreOptions.Obs; shardLabels
	// pre-renders the label values so the hot path never formats.
	lockWait    *obs.HistogramVec
	mutations   *obs.CounterVec
	shardLabels []string
}

// NewStore creates a sharded multi-tenant store bound to the shared
// ontology (nil restricts matching to exact concept equality).
func NewStore(o *semantics.Ontology, opts StoreOptions) *Store {
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	// Round up to a power of two so shard routing is a mask, not a mod.
	pow := 1
	for pow < n {
		pow <<= 1
	}
	s := &Store{
		ontology: o,
		shards:   make([]shard, pow),
		mask:     uint32(pow - 1),
		watchers: make(map[int]watcher),
	}
	for i := range s.shards {
		s.shards[i].services = make(map[svcKey]*storedService)
		s.shards[i].entries = make(map[capKey]*capEntry)
	}
	s.indexing.Store(true)
	if opts.Obs != nil {
		s.lockWait = opts.Obs.HistogramVec("qasom_registry_shard_lock_wait_seconds",
			"Contended write-lock acquisition waits per registry shard.",
			[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1}, "shard")
		s.mutations = opts.Obs.CounterVec("qasom_registry_shard_mutations_total",
			"Publish/Withdraw directory mutations per registry shard.", "shard")
		s.shardLabels = make([]string, pow)
		for i := range s.shardLabels {
			s.shardLabels[i] = strconv.Itoa(i)
		}
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

// Shards returns the number of lock domains.
func (s *Store) Shards() int { return len(s.shards) }

// Epoch returns the store-global generation: bumped on every
// Publish/Withdraw of any tenant. One atomic load.
func (s *Store) Epoch() uint64 { return s.gen.Load() }

// Len returns the number of published services across all tenants.
func (s *Store) Len() int { return int(s.total.Load()) }

// ShardOf returns the shard index holding the directory entry of
// (tenant, id) — the value watch events report in Event.Shard.
func (s *Store) ShardOf(t TenantID, id ServiceID) int {
	return int(s.shardOfID(t, id))
}

// SetIndexing enables or disables the capability index store-wide
// (enabled by default); disabling drops every shard's index and reverts
// lookups to the full-scan path. Ablation/benchmark knob.
func (s *Store) SetIndexing(enabled bool) {
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	s.indexing.Store(enabled)
	if !enabled {
		s.built.Store(false)
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			sh.index = nil
			sh.clearListsLocked()
			sh.mu.Unlock()
		}
	}
}

// Metrics returns a snapshot of the store-wide lookup counters.
func (s *Store) Metrics() Metrics {
	return Metrics{
		IndexedLookups: s.indexedLookups.Load(),
		ScanLookups:    s.scanLookups.Load(),
		IndexRebuilds:  s.indexRebuilds.Load(),
		Shards:         len(s.shards),
	}
}

// fnvPair hashes two strings separated by a sentinel byte (FNV-1a).
func fnvPair(a, b string) uint32 {
	const prime = 16777619
	h := uint32(2166136261)
	for i := 0; i < len(a); i++ {
		h = (h ^ uint32(a[i])) * prime
	}
	h = (h ^ 0xff) * prime
	for i := 0; i < len(b); i++ {
		h = (h ^ uint32(b[i])) * prime
	}
	return h
}

func (s *Store) shardOfCap(t TenantID, c semantics.ConceptID) uint32 {
	return fnvPair(string(t), string(c)) & s.mask
}

func (s *Store) shardOfID(t TenantID, id ServiceID) uint32 {
	return fnvPair(string(t), string(id)) & s.mask
}

func (s *Store) stripeFor(t TenantID, id ServiceID) *sync.Mutex {
	return &s.stripes[fnvPair(string(t), string(id))%mutationStripes].Mutex
}

// lockShard takes the shard's write lock, feeding the contended-wait
// histogram when telemetry is attached. The uncontended path costs one
// TryLock and no clock reads.
func (s *Store) lockShard(idx uint32) {
	sh := &s.shards[idx]
	if s.lockWait == nil || sh.mu.TryLock() {
		if s.lockWait == nil {
			sh.mu.Lock()
		}
		return
	}
	start := time.Now()
	sh.mu.Lock()
	s.lockWait.With(s.shardLabels[idx]).Observe(time.Since(start).Seconds())
}

func (s *Store) tenantCount(t TenantID) *atomic.Int64 {
	if v, ok := s.counts.Load(t); ok {
		return v.(*atomic.Int64)
	}
	v, _ := s.counts.LoadOrStore(t, new(atomic.Int64))
	return v.(*atomic.Int64)
}

// closureKeys computes, once, the canonical capability closure a
// description is routed, filed and epoch-bumped under: its canonical
// capability plus every (transitive) ancestor.
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
// any previous version, and notifies the tenant's watchers.
func (s *Store) publish(t TenantID, d Description) error {
	if err := d.Validate(); err != nil {
		return err
	}
	cp := d.clone()
	home := s.shardOfID(t, cp.ID)
	// Canonicalize once: the closure drives shard routing, index filing
	// and epoch bumps alike (satellite: no repeated canonicalization on
	// the Publish path). Keep the local — ss.keys may be rewritten by a
	// concurrent whole-store rebuild, which holds locks we no longer do.
	keys := s.closureKeys(cp.Concept)
	ss := &storedService{desc: cp, tenant: t, keys: keys, home: home}

	stripe := s.stripeFor(t, cp.ID)
	stripe.Lock()
	sk := svcKey{t, cp.ID}
	s.lockShard(home)
	old := s.shards[home].services[sk]
	s.shards[home].services[sk] = ss
	var oldKeys []semantics.ConceptID
	if old != nil {
		oldKeys = old.keys // read under the home lock: ordered vs rebuild
	}
	s.shards[home].mu.Unlock()
	s.applyIndexDelta(t, cp.ID, ss, oldKeys, keys)
	stripe.Unlock()

	s.gen.Add(1)
	if old == nil {
		s.total.Add(1)
		s.tenantCount(t).Add(1)
	}
	if s.mutations != nil {
		s.mutations.With(s.shardLabels[home]).Inc()
	}
	s.notify(Event{Kind: EventPublished, Tenant: t, Shard: int(home), Service: cp})
	return nil
}

// withdraw removes a tenant's service and notifies watchers; it reports
// whether the service was present.
func (s *Store) withdraw(t TenantID, id ServiceID) bool {
	stripe := s.stripeFor(t, id)
	stripe.Lock()
	home := s.shardOfID(t, id)
	sk := svcKey{t, id}
	s.lockShard(home)
	old := s.shards[home].services[sk]
	if old == nil {
		s.shards[home].mu.Unlock()
		stripe.Unlock()
		return false
	}
	delete(s.shards[home].services, sk)
	oldKeys := old.keys // read under the home lock: ordered vs rebuild
	s.shards[home].mu.Unlock()
	s.applyIndexDelta(t, id, nil, oldKeys, nil)
	stripe.Unlock()

	s.gen.Add(1)
	s.total.Add(-1)
	s.tenantCount(t).Add(-1)
	if s.mutations != nil {
		s.mutations.With(s.shardLabels[home]).Inc()
	}
	s.notify(Event{Kind: EventWithdrawn, Tenant: t, Shard: int(home), Service: old.desc})
	return true
}

// applyIndexDelta updates every shard owning a key in oldKeys ∪ newKeys:
// it unfiles the service from keys it leaves, files it (as ss) under
// keys it joins or keeps, and bumps each key's epoch — one write-lock
// acquisition per touched shard, each key's index change and epoch bump
// atomic under its shard's lock. ss == nil means withdrawal. Callers
// hold the service's mutation stripe.
func (s *Store) applyIndexDelta(t TenantID, id ServiceID, ss *storedService, oldKeys, newKeys []semantics.ConceptID) {
	maintain := s.built.Load()
	process := func(idx uint32) {
		s.lockShard(idx)
		sh := &s.shards[idx]
		// bump invalidates the key for lock-free readers before the index
		// change. The list is nilled before the epoch moves, so a reader
		// that sees the new epoch finds no pre-mutation list to load.
		bump := func(ck capKey) {
			e := sh.entryLocked(ck)
			e.list.Store(nil)
			e.epoch.Add(1)
		}
		for _, k := range oldKeys {
			if s.shardOfCap(t, k) != idx {
				continue
			}
			ck := capKey{t, k}
			bump(ck)
			if !maintain || (ss != nil && containsConcept(newKeys, k)) {
				continue // key kept: the newKeys pass below overwrites the filing
			}
			if set := sh.index[ck]; set != nil {
				delete(set, id)
				if len(set) == 0 {
					delete(sh.index, ck)
				}
			}
		}
		if ss != nil {
			for _, k := range newKeys {
				if s.shardOfCap(t, k) != idx {
					continue
				}
				ck := capKey{t, k}
				bump(ck)
				if !maintain {
					continue
				}
				if sh.index == nil {
					sh.index = make(map[capKey]map[ServiceID]*storedService)
				}
				set := sh.index[ck]
				if set == nil {
					set = make(map[ServiceID]*storedService)
					sh.index[ck] = set
				}
				set[id] = ss
			}
		}
		sh.mu.Unlock()
	}
	// Visit each touched shard exactly once, in first-appearance order.
	var visitedBuf [8]uint32
	visited := visitedBuf[:0]
	visit := func(keys []semantics.ConceptID) {
		for _, k := range keys {
			idx := s.shardOfCap(t, k)
			seen := false
			for _, v := range visited {
				if v == idx {
					seen = true
					break
				}
			}
			if seen {
				continue
			}
			visited = append(visited, idx)
			process(idx)
		}
	}
	visit(oldKeys)
	visit(newKeys)
}

func containsConcept(keys []semantics.ConceptID, c semantics.ConceptID) bool {
	for _, k := range keys {
		if k == c {
			return true
		}
	}
	return false
}

// get returns a copy of the tenant's description for id.
func (s *Store) get(t TenantID, id ServiceID) (Description, bool) {
	sh := &s.shards[s.shardOfID(t, id)]
	sh.mu.RLock()
	ss := sh.services[svcKey{t, id}]
	sh.mu.RUnlock()
	if ss == nil {
		return Description{}, false
	}
	return ss.desc.clone(), true
}

// all returns copies of every description of the tenant (unsorted; the
// caller sorts).
func (s *Store) all(t TenantID) []Description {
	out := make([]Description, 0, s.tenantCount(t).Load())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for sk, ss := range sh.services {
			if sk.tenant != t {
				continue
			}
			out = append(out, ss.desc.clone())
		}
		sh.mu.RUnlock()
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
		if e := s.shards[s.shardOfCap(t, c)].entry(capKey{t, c}); e != nil {
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
// epoch survives index rebuilds and SetIndexing); an alias change moves
// the ontology version, which forces a fresh resolution. A warm probe
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
		res.entries[i] = s.shards[s.shardOfCap(p.tenant, c)].entry(capKey{p.tenant, c})
		complete = complete && res.entries[i] != nil
	}
	if complete {
		p.resolved.Store(res)
	}
	return res
}

// ensureIndex builds the capability index on first use and rebuilds it
// when the ontology's version moved (concept/alias mutations change
// every closure). The rebuild is the one whole-store lock: it takes
// every shard's write lock, in index order, recomputes each stored
// service's closure and refiles everything.
func (s *Store) ensureIndex() {
	version := uint64(0)
	if s.ontology != nil {
		version = s.ontology.Version()
	}
	if s.built.Load() && s.indexVersion.Load() == version {
		return
	}
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	if s.ontology != nil {
		version = s.ontology.Version()
	}
	if s.built.Load() && s.indexVersion.Load() == version {
		return
	}
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	for i := range s.shards {
		s.shards[i].index = make(map[capKey]map[ServiceID]*storedService)
	}
	for i := range s.shards {
		for sk, ss := range s.shards[i].services {
			ss.keys = s.closureKeys(ss.desc.Concept)
			for _, k := range ss.keys {
				target := &s.shards[s.shardOfCap(sk.tenant, k)]
				ck := capKey{sk.tenant, k}
				set := target.index[ck]
				if set == nil {
					set = make(map[ServiceID]*storedService)
					target.index[ck] = set
				}
				set[sk.id] = ss
			}
		}
	}
	// A rebuild is not a mutation: epochs stay (the ontology version,
	// appended to every epoch snapshot, certifies closure changes). Keys
	// a moved ontology newly files get zero-epoch entries, and every list
	// is cleared because index contents changed under unchanged epochs.
	for i := range s.shards {
		sh := &s.shards[i]
		for ck := range sh.index {
			sh.entryLocked(ck)
		}
		sh.clearListsLocked()
	}
	s.indexVersion.Store(version)
	s.built.Store(true)
	s.indexRebuilds.Add(1)
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
}

// collect gathers the stored-service pointers a candidate lookup must
// consider: the capability's cached list on the indexed path (lock-free
// unless a mutation cleared it), every shard's tenant directory on the
// scan path. indexed reports which path ran.
// The indexed result may be a shared snapshot — callers must treat it
// as immutable and copy before filtering or sorting.
func (s *Store) collect(t TenantID, canon semantics.ConceptID) (stored []*storedService, indexed bool) {
	if s.indexing.Load() {
		s.ensureIndex()
		s.indexedLookups.Add(1)
		sh := &s.shards[s.shardOfCap(t, canon)]
		ck := capKey{t, canon}
		e := sh.entry(ck)
		if e == nil {
			return nil, true // key never filed or bumped: nothing to find
		}
		return sh.listOf(ck, e), true
	}
	s.scanLookups.Add(1)
	var out []*storedService
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for sk, ss := range sh.services {
			if sk.tenant != t {
				continue
			}
			out = append(out, ss)
		}
		sh.mu.RUnlock()
	}
	return out, false
}

// watch subscribes to the tenant's change events; see Registry.Watch.
func (s *Store) watch(t TenantID, buffer int) (<-chan Event, func()) {
	if buffer <= 0 {
		buffer = 16
	}
	ch := make(chan Event, buffer)
	s.watchMu.Lock()
	id := s.nextW
	s.nextW++
	s.watchers[id] = watcher{ch: ch, tenant: t}
	s.watchMu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			s.watchMu.Lock()
			delete(s.watchers, id)
			s.watchMu.Unlock()
			close(ch)
		})
	}
	return ch, cancel
}

// notify fans an event out to the event's tenant's watchers. It runs
// outside every shard lock; each watcher gets its own deep copy so a
// subscriber mutating the event (or holding it across further shard
// writes) never aliases registry-internal state or another watcher's
// view.
func (s *Store) notify(e Event) {
	s.watchMu.RLock()
	defer s.watchMu.RUnlock()
	for _, w := range s.watchers {
		if w.tenant != e.Tenant {
			continue
		}
		ev := Event{Kind: e.Kind, Tenant: e.Tenant, Shard: e.Shard, Service: e.Service.clone()}
		select {
		case w.ch <- ev:
		default: // drop rather than block
		}
	}
}

// watcherCount reports the live subscriptions (test hook).
func (s *Store) watcherCount() int {
	s.watchMu.RLock()
	defer s.watchMu.RUnlock()
	return len(s.watchers)
}

// candidates resolves the tenant's services able to provide the required
// capability; see Registry.Candidates for the contract. A lookup sees the
// same few capability concepts and offer names on every description, so
// it matches each distinct one once per call: concepts against the
// required capability, offer names against the properties of ps.
func (s *Store) candidates(t TenantID, required semantics.ConceptID, ps *qos.PropertySet) []Candidate {
	if s.ontology != nil {
		required = s.ontology.Canonical(required)
	}
	stored, indexed := s.collect(t, required)
	var out []Candidate
	if indexed {
		// Services filed under the capability match it (exact or
		// plug-in); only one lacking an offer drops out, so size for all
		// of them. The scan path's list is the whole tenant directory, so
		// there out grows with the matches instead.
		out = make([]Candidate, 0, len(stored))
	}
	levels := make(map[semantics.ConceptID]semantics.MatchLevel)
	names := make(map[semantics.ConceptID]uint64)
	vocab := offerVocab{o: s.ontology, ps: ps}
	for _, ss := range stored {
		level, ok := levels[ss.desc.Concept]
		if !ok {
			level = s.matchCapability(required, ss.desc.Concept)
			levels[ss.desc.Concept] = level
		}
		if level != semantics.MatchExact && level != semantics.MatchPlugin {
			continue
		}
		vec, ok := vocab.vectorFor(names, &ss.desc)
		if !ok {
			continue
		}
		out = append(out, Candidate{Service: ss.desc.clone(), Vector: vec, Match: level})
	}
	sortCandidates(out)
	return out
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
