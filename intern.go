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
// and the plan key's prefix) and its activities' concepts in task order,
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
// parsed once per Middleware. Keys are full spec strings, so a lookup
// compares content, never just a hash.
type taskIntern struct{ genTable[taskEntry] }

func newTaskIntern() *taskIntern {
	t := new(taskIntern)
	t.init(internGenSize, nil)
	return t
}

// lookup returns the entry interned under spec, or nil.
func (t *taskIntern) lookup(spec string) *taskEntry { return t.genTable.lookup(spec) }

// genTable is a bounded map from strings to shared values whose reads
// take no lock. It keeps two generations: inserts go into the current
// one, and when that is full it becomes the old generation and the
// previous old one is dropped wholesale. A hit in the old generation is
// promoted into the current one.
//
// Each generation is a fixed bucket array of immutable chains whose
// heads are swapped by compare-and-swap; a node's value is swapped the
// same way, so storing under a key already in the current generation
// replaces the value in place and takes no slot. The generation pair is
// swapped by compare-and-swap too.
//
// A table whose values differ widely in size can also bound what a
// generation holds by weight: a new node charges its value's weight to
// the current generation, and an in-place replacement charges what it
// adds over the value it replaces, so a node's charges never fall
// below its value's weight. The generation rotates once the charges
// would pass the budget; a value heavier than the whole budget still
// goes into a fresh generation alone.
type genTable[V any] struct {
	seed maphash.Seed
	size int32
	// replace decides whether a store (or a promotion) of next may
	// overwrite cur, the value already held for its key; nil always
	// overwrites.
	replace func(cur, next *V) bool
	// weigh, when set, gives a value's weight against budget.
	weigh  func(*V) int64
	budget int64
	gens   atomic.Pointer[genPair[V]]
}

type genPair[V any] struct{ cur, old *generation[V] }

type generation[V any] struct {
	// n counts reserved slots; an insert reserves before it links, so a
	// generation never holds more than size chain nodes.
	n atomic.Int32
	// weight sums the charges made to the generation.
	weight  atomic.Int64
	buckets []atomic.Pointer[genNode[V]]
}

type genNode[V any] struct {
	key  string
	val  atomic.Pointer[V]
	next *genNode[V]
}

// init readies an empty table of size nodes per generation, with no
// weight budget.
func (t *genTable[V]) init(size int32, replace func(cur, next *V) bool) {
	t.seed, t.size, t.replace = maphash.MakeSeed(), size, replace
	t.gens.Store(&genPair[V]{cur: newGeneration[V](size), old: newGeneration[V](size)})
}

func newGeneration[V any](size int32) *generation[V] {
	return &generation[V]{buckets: make([]atomic.Pointer[genNode[V]], 2*size)}
}

// lookup returns the value stored under key, or nil.
func (t *genTable[V]) lookup(key string) *V {
	h := maphash.String(t.seed, key)
	g := t.gens.Load()
	if v := g.cur.find(h, key); v != nil {
		return v
	}
	if v := g.old.find(h, key); v != nil {
		t.insert(h, key, v)
		return v
	}
	return nil
}

// store puts v under key, subject to the table's replace rule.
func (t *genTable[V]) store(key string, v *V) {
	t.insert(maphash.String(t.seed, key), key, v)
}

func (t *genTable[V]) insert(h uint64, key string, v *V) {
retry:
	for {
		g := t.gens.Load()
		if n := g.cur.node(h, key); n != nil {
			for {
				cur := n.val.Load()
				if t.replace != nil && !t.replace(cur, v) {
					return
				}
				if !t.charge(g.cur, t.weight(v)-t.weight(cur)) {
					t.rotate(g)
					continue retry
				}
				if n.val.CompareAndSwap(cur, v) {
					return
				}
			}
		}
		if !t.charge(g.cur, t.weight(v)) || g.cur.n.Add(1) > t.size {
			t.rotate(g)
			continue
		}
		g.cur.link(h, key, v)
		return
	}
}

func (t *genTable[V]) weight(v *V) int64 {
	if t.weigh == nil {
		return 0
	}
	return t.weigh(v)
}

// charge adds w to g's weight and reports whether g stays within the
// budget; the first charge to a generation always fits.
func (t *genTable[V]) charge(g *generation[V], w int64) bool {
	if w <= 0 {
		return true
	}
	total := g.weight.Add(w)
	return total <= t.budget || total == w
}

// rotate retires g's old generation and makes its current one old,
// unless another insert already did.
func (t *genTable[V]) rotate(g *genPair[V]) {
	t.gens.CompareAndSwap(g, &genPair[V]{cur: newGeneration[V](t.size), old: g.cur})
}

// len counts the nodes of both generations (tests only).
func (t *genTable[V]) len() int {
	g := t.gens.Load()
	return g.cur.len() + g.old.len()
}

func (g *generation[V]) find(h uint64, key string) *V {
	if n := g.node(h, key); n != nil {
		return n.val.Load()
	}
	return nil
}

func (g *generation[V]) node(h uint64, key string) *genNode[V] {
	for n := g.buckets[h%uint64(len(g.buckets))].Load(); n != nil; n = n.next {
		if n.key == key {
			return n
		}
	}
	return nil
}

// link prepends key to its bucket, shadowing any node a concurrent
// insert of the same key linked first.
func (g *generation[V]) link(h uint64, key string, v *V) {
	b := &g.buckets[h%uint64(len(g.buckets))]
	n := &genNode[V]{key: key}
	n.val.Store(v)
	for {
		head := b.Load()
		n.next = head
		if b.CompareAndSwap(head, n) {
			return
		}
	}
}

func (g *generation[V]) len() int {
	total := 0
	for i := range g.buckets {
		for n := g.buckets[i].Load(); n != nil; n = n.next {
			total++
		}
	}
	return total
}
