package qasom

import (
	"hash/maphash"
	"sync/atomic"

	"qasom/internal/obs"
	"qasom/internal/registry"
	"qasom/internal/semantics"
	"qasom/internal/task"
)

// taskEntry is a resolved task with the values every request over it
// derives: its fingerprint rendered as hex (the flight record's task ID
// and the plan key's prefix) and the activity concepts, in task order,
// whose registry epochs certify a cached plan. Immutable once built and
// shared read-only, like the task it holds, except for the lazily set
// epoch probe.
type taskEntry struct {
	task     *task.Task
	id       string
	concepts []semantics.ConceptID
	// named marks a registered behaviour resolved by name: the entry is
	// valid only while the repository still returns this task under it.
	named bool
	// probe snapshots the concepts' epochs in the middleware's registry
	// (entries are per Middleware, so one registry); set on first use.
	probe atomic.Pointer[registry.EpochProbe]
}

func newTaskEntry(t *task.Task) *taskEntry {
	acts := t.Activities()
	concepts := make([]semantics.ConceptID, len(acts))
	for i, a := range acts {
		concepts[i] = a.Concept
	}
	return &taskEntry{task: t, id: obs.HexID(t.Fingerprint()), concepts: concepts}
}

// internGenSize bounds one generation of the task intern table; the
// table holds at most two generations. A rotation keeps the last full
// generation, so at least the internGenSize most recently inserted or
// promoted specs stay resident.
const internGenSize = 512

// taskIntern maps task spec strings (inline documents and behaviour
// names) to their resolved entries, so a repeated inline document is
// parsed once per Middleware. It keeps two generations: inserts go into
// the current one, and when that is full it becomes the old generation
// and the previous old one is dropped wholesale. A hit in the old
// generation is promoted into the current one. Keys are full spec
// strings, so a lookup compares content, never just a hash.
//
// Readers take no lock: each generation is a fixed bucket array of
// immutable chains whose heads are swapped by compare-and-swap, and the
// generation pair is swapped the same way.
type taskIntern struct {
	seed maphash.Seed
	gens atomic.Pointer[internGens]
}

type internGens struct{ cur, old *internGen }

type internGen struct {
	// n counts reserved slots; an insert reserves before it links, so a
	// generation never holds more than internGenSize chain nodes.
	n       atomic.Int32
	buckets [2 * internGenSize]atomic.Pointer[internNode]
}

type internNode struct {
	key   string
	entry *taskEntry
	next  *internNode
}

func newTaskIntern() *taskIntern {
	t := &taskIntern{seed: maphash.MakeSeed()}
	t.gens.Store(&internGens{cur: new(internGen), old: new(internGen)})
	return t
}

// lookup returns the entry interned under spec, or nil.
func (t *taskIntern) lookup(spec string) *taskEntry {
	h := maphash.String(t.seed, spec)
	g := t.gens.Load()
	if e := g.cur.find(h, spec); e != nil {
		return e
	}
	if e := g.old.find(h, spec); e != nil {
		t.insert(h, spec, e)
		return e
	}
	return nil
}

// store interns e under spec.
func (t *taskIntern) store(spec string, e *taskEntry) {
	t.insert(maphash.String(t.seed, spec), spec, e)
}

func (t *taskIntern) insert(h uint64, spec string, e *taskEntry) {
	for {
		g := t.gens.Load()
		if g.cur.n.Add(1) > internGenSize {
			t.gens.CompareAndSwap(g, &internGens{cur: new(internGen), old: g.cur})
			continue
		}
		g.cur.link(h, spec, e)
		return
	}
}

// len counts the interned nodes of both generations (tests only).
func (t *taskIntern) len() int {
	g := t.gens.Load()
	return g.cur.len() + g.old.len()
}

func (g *internGen) find(h uint64, spec string) *taskEntry {
	for n := g.buckets[h%uint64(len(g.buckets))].Load(); n != nil; n = n.next {
		if n.key == spec {
			return n.entry
		}
	}
	return nil
}

// link prepends spec to its bucket, shadowing any older node for the
// same spec (a behaviour entry replaced after re-registration, or a
// concurrent first parse of the same document).
func (g *internGen) link(h uint64, spec string, e *taskEntry) {
	b := &g.buckets[h%uint64(len(g.buckets))]
	for {
		head := b.Load()
		if b.CompareAndSwap(head, &internNode{key: spec, entry: e, next: head}) {
			return
		}
	}
}

func (g *internGen) len() int {
	total := 0
	for i := range g.buckets {
		for n := g.buckets[i].Load(); n != nil; n = n.next {
			total++
		}
	}
	return total
}
