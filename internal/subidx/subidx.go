// Package subidx implements the per-composition substitution index that
// takes QoS-driven adaptation off the failure hot path: for every bound
// service of a running composition it maintains a ranked, health-filtered
// replacement list (semantically equivalent candidates with precomputed
// utility/QoS deltas), published as an atomically swapped immutable
// snapshot so failover becomes a single lock-free lookup with zero
// registry or monitor calls at failure time.
//
// Freshness is incremental rather than transactional. A Tracker owns one
// registry watch subscription and one monitor health subscription per
// middleware instance and fans both out to every tracked index:
//
//   - a withdraw event clears the candidate's live bit immediately and
//     marks the index dirty (the next refresh prunes and re-ranks);
//   - a publish event restores the live bit of a known candidate, and
//     marks the index dirty when the new service matches one of the
//     composition's bound capabilities (the refresh inserts it);
//   - a success-rate crossing of monitor.MinSuccessRate flips the healthy bit
//     without any rebuild (the monitor invokes the tracker synchronously,
//     so health demotions are visible to the very next failover).
//
// The index mirrors the runtime's alternate rotation: the published
// per-activity list is, at all times, the same sequence the reactive scan
// would walk (selection-time order, rotated on every substitution commit,
// extended at the tail by registry candidates that appeared after
// selection). A failover that hits the index therefore picks exactly the
// service the reactive scan would have picked given the same registry and
// monitor state — the property the differential test in the adapt package
// asserts. When the index is cold (not built yet), drained (evicted by
// the tracker's capacity bound) or exhausted, the caller falls back to
// the reactive scan, so the index is a pure accelerator: it can be
// dropped at any moment without affecting recovery semantics.
package subidx

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qasom/internal/monitor"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/semantics"
	"qasom/internal/task"
)

// State is the lifecycle state of an index.
type State int32

// Index lifecycle states.
const (
	// StateCold marks a registered index whose first build has not run
	// yet; lookups miss and failover uses the reactive scan.
	StateCold State = iota
	// StateBuilt marks a live index serving lock-free lookups.
	StateBuilt
	// StateDrained marks an index evicted by the tracker's capacity
	// bound; it stays drained (and failover stays reactive) until the
	// composition executes again and re-tracks itself.
	StateDrained
)

// Outcome classifies one Lookup.
type Outcome int

// Lookup outcomes.
const (
	// Hit: a live, healthy, non-excluded replacement was found.
	Hit Outcome = iota
	// Exhausted: the index is built but no eligible replacement remains.
	Exhausted
	// Cold: the index has not been built yet.
	Cold
	// Drained: the index was evicted and holds no data.
	Drained
)

// String renders the outcome as the fallback-cause label of the adapt
// package's failover counters.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Exhausted:
		return "exhausted"
	case Cold:
		return "cold"
	case Drained:
		return "drained"
	default:
		return "unknown"
	}
}

// Snapshot is the selection state an index is built from, captured
// atomically under the runtime's lock by the Source. Maps and slices must
// be fresh copies (candidate structs may share immutable backing arrays
// with the runtime: descriptions and vectors are never mutated in place).
type Snapshot struct {
	// Version is the runtime's mutation counter at capture time; a
	// rebuild whose snapshot went stale (a substitution or behaviour
	// switch committed in between) is discarded rather than installed.
	Version uint64
	// Activities are the current behaviour's activities.
	Activities []*task.Activity
	// Assignment maps scheduled activities to their bound candidate.
	Assignment map[string]registry.Candidate
	// Alternates holds the ranked substitution lists, in the runtime's
	// current rotation order.
	Alternates map[string][]registry.Candidate
	// Weights and Properties steer replacement scoring.
	Weights    qos.Weights
	Properties *qos.PropertySet
	// Mask, when set, filters replacement candidates by inter-service
	// dependency admissibility against the snapshot's assignment, so the
	// index never publishes a replacement that would violate a dependency
	// rule under the selection it was built from.
	Mask DependencyMask
}

// DependencyMask is the narrow dependency-admissibility view the index
// consults at rebuild time. core.DependencySet satisfies it; declaring
// the interface here keeps subidx free of a core import.
type DependencyMask interface {
	// Touches reports whether any rule constrains the activity.
	Touches(activityID string) bool
	// Admissible reports whether binding cand to the activity keeps every
	// rule satisfied, with the other endpoints read through bound.
	Admissible(activityID string, cand registry.Candidate, bound func(string) (registry.Candidate, bool)) bool
}

// Source exposes the selection state of a running composition to the
// index. Implemented by adapt.Runtime.
type Source interface {
	// SelectionSnapshot captures the current selection state.
	SelectionSnapshot() Snapshot
	// SelectionVersion returns the mutation counter without locking the
	// runtime (it must be safe to call while the index lock is held).
	SelectionVersion() uint64
}

// StagedMatch is one pre-computed behavioural alternate: the alternative
// behaviour, the portion of it that still needs to run, and the
// homeomorphism search cost already spent on it.
type StagedMatch struct {
	Alternative *task.Task
	NewTask     *task.Task
	MatchSteps  int
}

// StagedBehaviours is the pre-staged outcome of the behavioural-adaptation
// match search for one progress frontier: consulting it at failure time
// replaces the subgraph-homeomorphism search (re-selection still runs
// fresh, residual constraints depend on the QoS consumed so far).
type StagedBehaviours struct {
	// Key identifies the progress frontier (behaviour plus completed
	// set) the matches were computed for; a consumer must ignore staged
	// results whose key no longer matches.
	Key string
	// Matches lists the alternatives that host the remaining work, in
	// repository order.
	Matches []StagedMatch
}

// Replacement is the observable view of one index entry, for tests,
// debugging and the fast-failover walkthrough.
type Replacement struct {
	// Service identifies the candidate.
	Service registry.ServiceID
	// Score is the candidate's normalized weighted utility over the
	// activity's replacement pool at the last refresh.
	Score float64
	// DeltaUtility is Score minus the bound service's score: the utility
	// cost (negative) or gain (positive) of failing over to this entry.
	DeltaUtility float64
	// DeltaQoS is the candidate's advertised vector minus the bound
	// service's, per property.
	DeltaQoS qos.Vector
	// Live and Healthy are the current event-maintained eligibility bits.
	Live, Healthy bool
	// Inserted marks entries that joined via registry refresh (published
	// after selection) rather than from the selection-time alternate set.
	Inserted bool
}

// entry is one replacement candidate. The candidate value and the
// precomputed deltas are immutable after construction; only the atomic
// eligibility bits change between rebuilds.
type entry struct {
	cand     registry.Candidate
	score    float64
	dUtil    float64
	dQoS     qos.Vector
	inserted bool
	live     atomic.Bool
	healthy  atomic.Bool
}

// actList is the per-activity replacement list. The published slice is
// immutable (commits and rebuilds swap the pointer); bound is the entry
// currently holding the binding, kept out of the published list exactly
// like the runtime keeps the bound service out of its alternates.
type actList struct {
	entries atomic.Pointer[[]*entry]
	bound   *entry // guarded by Index.mu
}

// Index is the substitution index of one composition. Lookup is
// lock-free and allocation-free; all mutation happens on the tracker
// goroutine or under the owning runtime's commit path.
type Index struct {
	t   *Tracker
	src Source

	state   atomic.Int32
	dirty   atomic.Bool
	built   atomic.Int64 // UnixNano of the last successful rebuild
	entries atomic.Int64 // total published entries, for the size gauge

	// lists is the atomically swapped activity → replacement-list map;
	// the map itself is immutable once published (actList pointers are
	// stable across commits, which swap only the inner slice pointer).
	lists atomic.Pointer[map[string]*actList]

	mu        sync.RWMutex
	byService map[registry.ServiceID][]*entry
	concepts  map[semantics.ConceptID]bool

	// stageKey/stage pre-compute behavioural alternates; set once at
	// wiring time, before the first build.
	stageKey func() string
	stage    func() *StagedBehaviours
	staged   atomic.Pointer[StagedBehaviours]
}

// State returns the index lifecycle state.
func (x *Index) State() State { return State(x.state.Load()) }

// Lookup returns the best live, healthy, non-excluded replacement for an
// activity. It performs no allocation and takes no lock: the list head is
// an atomic pointer and eligibility is two atomic bit loads per entry, so
// a hit costs zero registry or monitor calls — the whole point of the
// index. Cold/Drained outcomes tell the caller to run the reactive scan;
// Exhausted means the (fresh) index knows of no eligible replacement.
func (x *Index) Lookup(activityID string, exclude map[registry.ServiceID]bool) (registry.Candidate, Outcome) {
	switch State(x.state.Load()) {
	case StateCold:
		return registry.Candidate{}, Cold
	case StateDrained:
		return registry.Candidate{}, Drained
	}
	lists := x.lists.Load()
	if lists == nil {
		return registry.Candidate{}, Cold
	}
	l := (*lists)[activityID]
	if l == nil {
		return registry.Candidate{}, Exhausted
	}
	for _, e := range *l.entries.Load() {
		if !e.live.Load() || !e.healthy.Load() {
			continue
		}
		if exclude[e.cand.Service.ID] {
			continue
		}
		return e.cand, Hit
	}
	return registry.Candidate{}, Exhausted
}

// Commit mirrors a substitution commit into the index, in lockstep with
// the runtime's alternate rotation: the chosen entry leaves the published
// list, the displaced binding rejoins it at the tail, and the chosen
// entry becomes the new bound marker. The caller holds the runtime lock;
// Commit nests only the index lock under it (never the reverse). A
// commit the index cannot mirror exactly (entry missing after an eviction
// race) marks the index dirty so the next refresh rebuilds from the
// runtime, which is authoritative.
func (x *Index) Commit(activityID string, chosen registry.ServiceID, old registry.Candidate) {
	if State(x.state.Load()) != StateBuilt {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	lists := x.lists.Load()
	if lists == nil {
		return
	}
	l := (*lists)[activityID]
	if l == nil {
		x.dirty.Store(true)
		return
	}
	cur := *l.entries.Load()
	pos := -1
	for i, e := range cur {
		if e.cand.Service.ID == chosen {
			pos = i
			break
		}
	}
	if pos < 0 {
		x.dirty.Store(true)
		return
	}
	chosenE := cur[pos]
	next := make([]*entry, 0, len(cur))
	next = append(next, cur[:pos]...)
	next = append(next, cur[pos+1:]...)
	if old.Service.ID != "" {
		oldE := l.bound
		if oldE == nil || oldE.cand.Service.ID != old.Service.ID {
			// The runtime's view of the displaced binding diverged from
			// the bound marker (e.g. a reactive commit raced a rebuild):
			// re-create the entry pessimistically and schedule a refresh.
			oldE = &entry{cand: old, dQoS: x.zeroDelta()}
			oldE.live.Store(true)
			oldE.healthy.Store(true)
			x.byService[old.Service.ID] = append(x.byService[old.Service.ID], oldE)
			x.dirty.Store(true)
		}
		next = append(next, oldE)
	}
	l.bound = chosenE
	l.entries.Store(&next)
	x.entries.Add(int64(len(next) - len(cur)))
}

// zeroDelta returns a zero vector of the property arity (nil when the
// index has no built lists to infer it from).
func (x *Index) zeroDelta() qos.Vector {
	lists := x.lists.Load()
	if lists == nil {
		return nil
	}
	for _, l := range *lists {
		for _, e := range *l.entries.Load() {
			return make(qos.Vector, len(e.dQoS))
		}
	}
	return nil
}

// MarkDirty schedules a rebuild without dropping the published lists.
// Used when a substitution on a dependency-constrained activity shifted
// which replacements are admissible for its adjacent activities: the
// stale lists stay safe in the meantime (the adapt commit paths
// revalidate admissibility under the runtime lock), they are merely
// over- or under-filtered until the refresh lands.
func (x *Index) MarkDirty() {
	if State(x.state.Load()) != StateBuilt {
		return
	}
	x.dirty.Store(true)
	if x.t != nil {
		x.t.poke()
	}
}

// MarkCold drops the index back to the cold state (a behaviour switch
// invalidated every list wholesale) and asks the tracker to rebuild from
// the runtime's new selection.
func (x *Index) MarkCold() {
	if State(x.state.Load()) == StateDrained {
		return
	}
	x.state.Store(int32(StateCold))
	x.dirty.Store(true)
	if x.t != nil {
		x.t.poke()
	}
}

// BuildNow builds the index synchronously when it is cold, and re-tracks
// and rebuilds it when it was drained — the facade calls this at the top
// of Execute, so executions always start with a warm index even if the
// composition was composed a moment (or an eviction) ago. Already-built
// indexes return immediately.
func (x *Index) BuildNow() {
	if x.t == nil {
		return
	}
	x.t.buildNow(x)
}

// SetStager wires behavioural-alternate pre-staging: key identifies the
// current progress frontier cheaply, stage runs the homeomorphism search
// for it. Both run on the tracker goroutine. Must be set before the
// first build (the facade wires it right after tracking).
func (x *Index) SetStager(key func() string, stage func() *StagedBehaviours) {
	x.mu.Lock()
	x.stageKey = key
	x.stage = stage
	x.mu.Unlock()
}

// Staged returns the pre-staged behavioural alternates when they match
// the given progress-frontier key; nil otherwise (the caller runs the
// full search).
func (x *Index) Staged(key string) *StagedBehaviours {
	s := x.staged.Load()
	if s == nil || s.Key != key {
		return nil
	}
	return s
}

// Replacements returns the observable replacement list of an activity
// (current rotation order, eligibility bits as of now). Debug/test API;
// allocates freely.
func (x *Index) Replacements(activityID string) []Replacement {
	lists := x.lists.Load()
	if lists == nil {
		return nil
	}
	l := (*lists)[activityID]
	if l == nil {
		return nil
	}
	cur := *l.entries.Load()
	out := make([]Replacement, 0, len(cur))
	for _, e := range cur {
		out = append(out, Replacement{
			Service:      e.cand.Service.ID,
			Score:        e.score,
			DeltaUtility: e.dUtil,
			DeltaQoS:     e.dQoS.Clone(),
			Live:         e.live.Load(),
			Healthy:      e.healthy.Load(),
			Inserted:     e.inserted,
		})
	}
	return out
}

// Stats is an observable summary of one index.
type Stats struct {
	// State is the lifecycle state.
	State State
	// Entries counts published replacement entries across activities.
	Entries int
	// LastRefresh is the time of the last successful rebuild (zero when
	// never built).
	LastRefresh time.Time
	// Staged reports whether behavioural alternates are pre-staged.
	Staged bool
}

// Stats returns the index summary.
func (x *Index) Stats() Stats {
	s := Stats{
		State:   State(x.state.Load()),
		Entries: int(x.entries.Load()),
		Staged:  x.staged.Load() != nil,
	}
	if ns := x.built.Load(); ns != 0 {
		s.LastRefresh = time.Unix(0, ns)
	}
	return s
}

// drain evicts the index: all data is released and lookups report
// Drained until an execution re-tracks it.
func (x *Index) drain() {
	x.state.Store(int32(StateDrained))
	x.lists.Store(nil)
	x.entries.Store(0)
	x.staged.Store(nil)
	x.mu.Lock()
	x.byService = nil
	x.concepts = nil
	x.mu.Unlock()
}

// applyEvent folds one registry change into the eligibility bits:
// withdrawals kill the live bit synchronously with event delivery,
// publishes restore it, and anything touching the index (including a
// fresh service matching a bound capability) marks it dirty for the next
// re-rank. Runs on the tracker goroutine.
func (x *Index) applyEvent(ev registry.Event, onto *semantics.Ontology) {
	if State(x.state.Load()) != StateBuilt {
		return // cold indexes build from registry truth anyway
	}
	x.mu.RLock()
	entries := x.byService[ev.Service.ID]
	fresh := false
	if len(entries) == 0 && ev.Kind == registry.EventPublished {
		for required := range x.concepts {
			if capabilityMatches(onto, required, ev.Service.Concept) {
				fresh = true
				break
			}
		}
	}
	x.mu.RUnlock()
	switch ev.Kind {
	case registry.EventWithdrawn:
		// The live-bit flip IS the drop: lookups skip the entry from
		// this point on, and relative order among the survivors is
		// unchanged, so no re-rank is owed. The periodic stale resync
		// prunes the carcass and tops the list back up eventually.
		for _, e := range entries {
			e.live.Store(false)
		}
	case registry.EventPublished:
		changed := false
		for _, e := range entries {
			e.live.Store(true)
			if !offersEqual(e.cand.Service.Offers, ev.Service.Offers) {
				changed = true
			}
		}
		if fresh || changed {
			// A fresh match must be inserted, a republish with new QoS
			// re-ranked; a same-offers republish (the common flap) is
			// fully absorbed by the live bit.
			x.dirty.Store(true)
		}
	}
}

// offersEqual reports whether two QoS offer lists advertise the same
// values, order-insensitively (registries may reorder on republish).
func offersEqual(a, b []registry.QoSOffer) bool {
	if len(a) != len(b) {
		return false
	}
	for _, oa := range a {
		found := false
		for _, ob := range b {
			if oa.Property == ob.Property && oa.Value == ob.Value {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// setHealth flips the healthy bit of every entry of a service. Invoked
// synchronously from the monitor's Report path on a success-rate
// crossing, so a demotion is visible to the very next failover without
// any rebuild.
func (x *Index) setHealth(id registry.ServiceID, healthy bool) {
	x.mu.RLock()
	entries := x.byService[id]
	x.mu.RUnlock()
	for _, e := range entries {
		e.healthy.Store(healthy)
	}
}

// capabilityMatches mirrors the registry's candidate filter: exact or
// plugin-level ontology matches qualify, subsume-level do not.
func capabilityMatches(onto *semantics.Ontology, required, offered semantics.ConceptID) bool {
	if onto == nil {
		return required == offered
	}
	level := onto.Match(required, offered)
	return level == semantics.MatchExact || level == semantics.MatchPlugin
}

// rebuild (re)builds the index from the runtime snapshot plus registry
// and monitor truth. The runtime's rotation order is authoritative for
// ranking (it is what the reactive scan walks); registry candidates that
// appeared after selection are appended at the tail, best score first.
// Runs off the failure path: on the tracker goroutine or a BuildNow
// caller. An installed snapshot whose runtime version moved mid-build is
// discarded and the index stays dirty.
func (x *Index) rebuild(reg *registry.Registry, mon *monitor.Monitor) bool {
	if State(x.state.Load()) == StateDrained {
		return false
	}
	snap := x.src.SelectionSnapshot()
	lists := make(map[string]*actList, len(snap.Activities))
	byService := make(map[registry.ServiceID][]*entry)
	concepts := make(map[semantics.ConceptID]bool, len(snap.Activities))
	total := 0
	for _, act := range snap.Activities {
		bound, ok := snap.Assignment[act.ID]
		if !ok {
			continue // matched to already-completed work, nothing bound
		}
		concepts[act.Concept] = true
		alts := snap.Alternates[act.ID]
		var admissible func(registry.Candidate) bool
		if snap.Mask != nil && snap.Mask.Touches(act.ID) {
			boundFn := func(id string) (registry.Candidate, bool) {
				c, ok := snap.Assignment[id]
				return c, ok
			}
			admissible = func(c registry.Candidate) bool {
				return snap.Mask.Admissible(act.ID, c, boundFn)
			}
		}
		present := make(map[registry.ServiceID]bool, len(alts)+1)
		present[bound.Service.ID] = true
		for _, a := range alts {
			present[a.Service.ID] = true
		}
		var extras []registry.Candidate
		if reg != nil {
			for _, c := range reg.CandidatesForActivity(act, snap.Properties) {
				if !present[c.Service.ID] {
					extras = append(extras, c)
				}
			}
		}
		scores := scorePool(snap.Properties, snap.Weights, bound, alts, extras)
		boundScore := scores[bound.Service.ID]
		mk := func(c registry.Candidate, inserted bool) *entry {
			e := &entry{
				cand:     c,
				score:    scores[c.Service.ID],
				dUtil:    scores[c.Service.ID] - boundScore,
				dQoS:     deltaQoS(c.Vector, bound.Vector),
				inserted: inserted,
			}
			live := true
			if reg != nil {
				_, live = reg.Get(c.Service.ID)
			}
			e.live.Store(live)
			healthy := true
			if mon != nil {
				healthy = mon.SuccessRate(c.Service.ID) >= monitor.MinSuccessRate
			}
			e.healthy.Store(healthy)
			byService[c.Service.ID] = append(byService[c.Service.ID], e)
			return e
		}
		list := make([]*entry, 0, len(alts)+len(extras))
		for _, a := range alts {
			if admissible != nil && !admissible(a) {
				continue
			}
			list = append(list, mk(a, false))
		}
		sort.SliceStable(extras, func(i, j int) bool {
			si, sj := scores[extras[i].Service.ID], scores[extras[j].Service.ID]
			if si != sj {
				return si > sj
			}
			return extras[i].Service.ID < extras[j].Service.ID
		})
		for _, c := range extras {
			if len(list) >= maxReplacements {
				break
			}
			if admissible != nil && !admissible(c) {
				continue
			}
			list = append(list, mk(c, true))
		}
		l := &actList{bound: mk(bound, false)}
		l.entries.Store(&list)
		lists[act.ID] = l
		total += len(list)
	}

	x.mu.Lock()
	if x.src.SelectionVersion() != snap.Version {
		// A substitution or behaviour switch committed while we built:
		// installing this snapshot would desync the rotation order. Stay
		// dirty; the next refresh retries.
		x.dirty.Store(true)
		x.mu.Unlock()
		return false
	}
	x.byService = byService
	x.concepts = concepts
	x.lists.Store(&lists)
	x.entries.Store(int64(total))
	x.mu.Unlock()
	x.dirty.Store(false)
	x.state.Store(int32(StateBuilt))
	x.built.Store(time.Now().UnixNano())
	x.restage()
	return true
}

// restage refreshes the pre-staged behavioural alternates when the
// progress frontier moved. Runs on the tracker goroutine.
func (x *Index) restage() bool {
	x.mu.RLock()
	key, stage := x.stageKey, x.stage
	x.mu.RUnlock()
	if key == nil || stage == nil {
		return false
	}
	cur := key()
	if s := x.staged.Load(); s != nil && s.Key == cur {
		return false
	}
	x.staged.Store(stage())
	return true
}

// deltaQoS returns cand − bound per property (nil-safe).
func deltaQoS(cand, bound qos.Vector) qos.Vector {
	if cand == nil || bound == nil || len(cand) != len(bound) {
		return nil
	}
	d := make(qos.Vector, len(cand))
	for j := range cand {
		d[j] = cand[j] - bound[j]
	}
	return d
}

// scorePool computes the normalized weighted utility of every candidate
// of one activity's replacement pool (bound + alternates + extras):
// per-property min-max normalization over the pool, direction-adjusted,
// weight-averaged — the same shape as QASSA's candidate utility, scoped
// to the pool so deltas are comparable within an activity.
func scorePool(ps *qos.PropertySet, w qos.Weights, bound registry.Candidate,
	alts, extras []registry.Candidate) map[registry.ServiceID]float64 {
	pool := make([]registry.Candidate, 0, 1+len(alts)+len(extras))
	pool = append(pool, bound)
	pool = append(pool, alts...)
	pool = append(pool, extras...)
	n := 0
	if ps != nil {
		n = ps.Len()
	}
	out := make(map[registry.ServiceID]float64, len(pool))
	if n == 0 {
		for _, c := range pool {
			out[c.Service.ID] = 0
		}
		return out
	}
	min := make([]float64, n)
	max := make([]float64, n)
	for j := 0; j < n; j++ {
		first := true
		for _, c := range pool {
			if len(c.Vector) != n {
				continue
			}
			v := c.Vector[j]
			if first || v < min[j] {
				min[j] = v
			}
			if first || v > max[j] {
				max[j] = v
			}
			first = false
		}
	}
	var wsum float64
	weight := func(j int) float64 {
		if len(w) != n {
			return 1
		}
		return w[j]
	}
	for j := 0; j < n; j++ {
		wsum += weight(j)
	}
	if wsum == 0 {
		wsum = 1
	}
	for _, c := range pool {
		if len(c.Vector) != n {
			out[c.Service.ID] = 0
			continue
		}
		var s float64
		for j := 0; j < n; j++ {
			span := max[j] - min[j]
			u := 1.0 // a property the pool does not differentiate on is neutral
			if span > 0 {
				u = (c.Vector[j] - min[j]) / span
				if ps.At(j).Direction == qos.Minimized {
					u = 1 - u
				}
			}
			s += weight(j) * u
		}
		out[c.Service.ID] = s / wsum
	}
	return out
}
