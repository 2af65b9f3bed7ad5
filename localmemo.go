package qasom

import (
	"math"
	"slices"
	"strconv"

	"qasom/internal/core"
	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/task"
)

// localMemo is the local-phase memo under the plan cache. A plan miss
// resolves each activity through it by (canonical capability concept,
// Inputs/Outputs data signature, effective weight bits): everything
// else a local result depends on — the property set, K, seeding and
// seed — is fixed per Middleware. An entry holds that activity's share
// of a miss: the gathered candidate list and the finished ranked
// shortlist with its level count, labelled with the capability epoch
// and ontology version the request's plan-epoch snapshot read before
// the gather. A hit needs both to equal the current request's snapshot
// and skips candidate lookup and K-means.
//
// Both cache levels read one snapshot, so the plan cache's argument
// covers the memo too: the label is read before the gather, churn
// between the two can only make the label older than the content, and
// an older label never equals a later snapshot, so churn can leave an
// entry stale-labelled and unused but never serve a stale one. A
// recompute replaces an entry only when its label is newer, so a
// request that raced churn with an old snapshot cannot push back a
// fresher entry, and each key keeps one live entry.
//
// Entries live in a two-generation table whose reads take no lock. A
// generation holds at most localMemoGenSize keys and, weighing each
// entry by its candidate count, localMemoGenCandidates candidates: an
// entry keeps every candidate twice, gathered and ranked, so its bytes
// grow with its list, and weight keys can multiply the lists of one
// capability. Entries are shared read-only, like cached plans:
// selection reads candidate lists and shortlists and never writes them.
type localMemo struct {
	table        genTable[localEntry]
	hits, misses *obs.Counter
}

// localEntry is one activity's memoised local phase. Immutable.
type localEntry struct {
	cands          []registry.Candidate
	local          *core.LocalResult
	epoch, version uint64
}

// localMemoGenSize and localMemoGenCandidates bound one generation of
// the memo: at most twice as many keys and candidates stay resident.
// A candidate costs about 0.2 KiB in an entry (EXPERIMENTS.md), so the
// candidate bound holds the memo to about 7 MiB.
const (
	localMemoGenSize       = 256
	localMemoGenCandidates = 16384
)

// newLocalMemo builds the memo of a middleware whose plan cache is
// plans: the memo exists exactly when the plan cache does.
func newLocalMemo(plans *planCache, r *obs.Registry) *localMemo {
	if plans == nil {
		return nil
	}
	lm := &localMemo{
		hits: r.Counter("qasom_local_memo_hits_total",
			"Plan-miss activities served from the local-phase memo (no candidate lookup, no clustering)."),
		misses: r.Counter("qasom_local_memo_misses_total",
			"Plan-miss activities the local-phase memo could not serve (no entry, or a stale epoch)."),
	}
	lm.table.init(localMemoGenSize, newerLabel)
	lm.table.weigh = func(e *localEntry) int64 { return int64(len(e.cands)) }
	lm.table.budget = localMemoGenCandidates
	return lm
}

// newerLabel is the memo's replace rule: next overwrites cur only when
// it was gathered under a later ontology version, or a later epoch of
// the same version.
func newerLabel(cur, next *localEntry) bool {
	if next.version != cur.version {
		return next.version > cur.version
	}
	return next.epoch > cur.epoch
}

// memoGather is the registry seen through the local memo, as the
// core.CandidateSource of one plan miss's core.GatherCandidates: an
// activity whose entry carries the request's snapshot label is served
// its memoised list and its local result is kept for SelectReusing;
// any other activity is looked up in the registry and noted for store.
type memoGather struct {
	m       *Middleware
	acts    []*task.Activity
	w       qos.Weights
	epochs  []uint64 // task-order capability epochs
	version uint64
	known   map[string]*core.LocalResult
	misses  []memoMiss
	keyBuf  [128]byte
	// epochBuf holds a copy of the snapshot's epochs: the caller's
	// snapshot lives on its stack, and a reference from here would move
	// it to the heap on every compose, plan hits included.
	epochBuf [16]uint64
}

// memoMiss is an activity whose local phase the plan miss computes.
type memoMiss struct {
	activity, key string
	epoch         uint64
}

// newMemoGather starts a plan miss of te's task over the memo; snap is
// the request's plan-epoch snapshot of te.
func (m *Middleware) newMemoGather(te *taskEntry, w qos.Weights, snap []uint64) *memoGather {
	acts := te.task.Activities()
	g := &memoGather{m: m, acts: acts, w: w, known: make(map[string]*core.LocalResult, len(acts))}
	g.epochs = append(g.epochBuf[:0], snap[:len(acts)]...)
	if len(snap) > len(acts) {
		g.version = snap[len(acts)]
	}
	return g
}

// CandidatesForActivity serves a from the memo when its entry's label
// equals the snapshot, and from the registry otherwise.
func (g *memoGather) CandidatesForActivity(a *task.Activity, ps *qos.PropertySet) []registry.Candidate {
	epoch := g.epochs[slices.Index(g.acts, a)]
	key := g.m.localMemoKey(g.keyBuf[:0], a, g.w)
	if e := g.m.locals.table.lookup(key); e != nil && e.epoch == epoch && e.version == g.version {
		g.m.locals.hits.Inc()
		g.known[a.ID] = e.local
		return e.cands
	}
	g.m.locals.misses.Inc()
	g.misses = append(g.misses, memoMiss{activity: a.ID, key: key, epoch: epoch})
	return g.m.reg.CandidatesForActivity(a, ps)
}

// store memoises the local results the plan miss computed, and returns
// the flight-record event saying how much of it was reused.
func (g *memoGather) store(cands map[string][]registry.Candidate, locals map[string]*core.LocalResult) string {
	for _, miss := range g.misses {
		g.m.locals.table.store(miss.key, &localEntry{
			cands:   cands[miss.activity],
			local:   locals[miss.activity],
			epoch:   miss.epoch,
			version: g.version,
		})
	}
	return "local-reused=" + strconv.Itoa(len(g.known)) + "/" + strconv.Itoa(len(g.acts))
}

// localMemoKey renders an activity's memo key into b: its canonical
// capability concept, its Inputs and Outputs in declared order, and the
// bits of the effective weights. Every concept is tagged and
// length-prefixed, so different inputs never render alike.
func (m *Middleware) localMemoKey(b []byte, a *task.Activity, w qos.Weights) string {
	concept := a.Concept
	if m.ontology != nil {
		concept = m.ontology.Canonical(concept)
	}
	b = appendConcept(b, 'c', string(concept))
	for _, in := range a.Inputs {
		b = appendConcept(b, 'i', string(in))
	}
	for _, out := range a.Outputs {
		b = appendConcept(b, 'o', string(out))
	}
	for _, x := range w {
		b = append(b, 'w')
		b = strconv.AppendUint(b, math.Float64bits(x), 16)
	}
	return string(b)
}

func appendConcept(b []byte, tag byte, s string) []byte {
	b = append(b, tag)
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	return append(b, s...)
}
