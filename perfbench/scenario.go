package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"qasom"
	"qasom/internal/bpel"
	"qasom/internal/core"
	"qasom/internal/qos"
	"qasom/internal/semantics"
	"qasom/internal/task"
	"qasom/internal/workload"
)

// spec fixes one workload: its population, its plan-key set and the
// shape of the request stream. Nothing here depends on the run seed.
type spec struct {
	name           string
	caps           int     // capabilities tasks draw their activities from
	svcMin, svcMax int     // services per capability (ℓ)
	idleCaps       int     // capabilities no task uses (write targets unless hotWrites)
	keys           int     // plan keys; those not sent by class name are inline BPEL documents
	classes        int     // plan keys sent as registered behaviour names (the odd keys, while they last)
	actMin, actMax int     // activities per task
	zipf           float64 // key skew (Zipf s); 0 draws keys uniformly
	writeEvery     int     // every writeEvery-th stream op is a provider write
	hotWrites      bool    // writes hit a capability of a Zipf-drawn key, not an idle one
	faultEvery     int     // every faultEvery-th op takes a bound service down (0: never)
	flaky          float64 // share of services that fail an invocation with p=0.3
	execute        bool    // a request is Compose then Execute
	warm           int     // keys composed during set-up (the first warm keys by rank)
	sampleEvery    int     // traced run: replay gather+select on one request in sampleEvery
	setups         int     // in-process set-ups whose median is setup_s
	window         time.Duration
	warmup         time.Duration // closed-loop time before measurement starts
}

var specs = []spec{
	{
		name: "warm_compose", caps: 32, svcMin: 18, svcMax: 22, idleCaps: 4,
		keys: 96, classes: 48, actMin: 3, actMax: 8,
		writeEvery: 50, warm: 96, sampleEvery: 32, setups: 8,
		window: time.Second, warmup: time.Second,
	},
	{
		name: "churn_select", caps: 96, svcMin: 50, svcMax: 100,
		keys: 400, classes: 48, actMin: 3, actMax: 8, zipf: 1.3,
		writeEvery: 20, hotWrites: true, warm: 128, sampleEvery: 4, setups: 6,
		// The warm-up lets writes bring the cache from its set-up state
		// to its churned steady state.
		window: 2 * time.Second, warmup: 3 * time.Second,
	},
	{
		name: "execute_adapt", caps: 192, svcMin: 18, svcMax: 22, idleCaps: 4,
		keys: 24, classes: 12, actMin: 3, actMax: 8,
		writeEvery: 50, faultEvery: 10, flaky: 0.05, execute: true,
		warm: 24, sampleEvery: 16, setups: 8,
		window: 2 * time.Second, warmup: time.Second,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// populationSeed fixes the population and key set of every workload, so
// runs with different seeds differ only in their request streams.
const populationSeed = 20091

// capability is one functional concept and the services that offer it,
// one per slot. A provider write replaces the service of one slot.
type capability struct {
	concept string
	slots   []qasom.Service
}

// planKey is one distinct Compose request of a workload, plus what the
// traced run needs to replay the layers inside Compose.
type planKey struct {
	req    qasom.Request
	doc    string // the BPEL document (registered for class keys)
	inline bool
	task   *task.Task
	core   *core.Request
	acts   []string // activity IDs in task order
	capOf  []int    // capability index per activity (parallel to acts)
	capIdx map[string]int
}

// scenario is a workload's fixed population and plan-key set.
type scenario struct {
	spec
	ps      *qos.PropertySet
	caps    []capability // capabilities tasks use
	idle    []capability // capabilities no task uses
	keys    []planKey
	classes [][2]string // class name, behaviour document
}

const (
	rootConcept = "PbService"
	taskConcept = "PbTask"
)

func capConcept(i int) string  { return fmt.Sprintf("PbCap%03d", i) }
func idleConcept(i int) string { return fmt.Sprintf("PbIdle%02d", i) }

// pluginEvery marks which slots offer a sub-concept of their capability,
// so candidate lookup resolves plug-in matches through the ontology.
const pluginEvery = 8

func slotConcept(concept string, slot int) string {
	if slot%pluginEvery == pluginEvery-1 {
		return concept + "Plus"
	}
	return concept
}

// newOntology is the shared pervasive ontology extended with the
// benchmark's capabilities.
func (sc *scenario) newOntology() *semantics.Ontology {
	o := semantics.PervasiveWithScenarios()
	o.MustAddConcept(rootConcept)
	o.MustAddConcept(taskConcept)
	for _, list := range [][]capability{sc.caps, sc.idle} {
		for _, c := range list {
			o.MustAddConcept(semantics.ConceptID(c.concept), rootConcept)
			o.MustAddConcept(semantics.ConceptID(c.concept+"Plus"), semantics.ConceptID(c.concept))
		}
	}
	return o
}

// newScenario builds the workload's population and key set from
// populationSeed alone.
func newScenario(sp spec) (*scenario, error) {
	sc := &scenario{spec: sp, ps: qos.StandardSet()}
	gen := workload.NewGenerator(populationSeed)
	rng := gen.Rand()
	laws := workload.DefaultLaws(sc.ps)
	service := func(concept string, slot int, id string) qasom.Service {
		s := qasom.Service{
			ID:         id,
			Capability: slotConcept(concept, slot),
			QoS:        qosMap(sc.ps, gen.Vector(sc.ps, laws)),
			Noise:      0.05,
		}
		if sp.flaky > 0 && rng.Float64() < sp.flaky {
			s.FailProb = 0.3
		}
		return s
	}
	mkCaps := func(n int, name func(int) string) []capability {
		out := make([]capability, n)
		for i := range out {
			c := capability{concept: name(i)}
			l := sp.svcMin + rng.Intn(sp.svcMax-sp.svcMin+1)
			for s := 0; s < l; s++ {
				c.slots = append(c.slots, service(c.concept, s, slotID(c.concept, s, 0)))
			}
			out[i] = c
		}
		return out
	}
	sc.caps = mkCaps(sp.caps, capConcept)
	sc.idle = mkCaps(sp.idleCaps, idleConcept)

	for k := 0; k < sp.keys; k++ {
		acts := sp.actMin + rng.Intn(sp.actMax-sp.actMin+1)
		inline := k%2 == 0 || k/2 >= sp.classes
		name := fmt.Sprintf("pb-%s-%03d", sp.name, k)
		t := gen.Task(name, acts, workload.ShapeMixed)
		t.Concept = taskConcept
		perm := rng.Perm(len(sc.caps))
		key := planKey{inline: inline, capIdx: make(map[string]int, acts)}
		for i, a := range t.Activities() {
			a.Concept = semantics.ConceptID(sc.caps[perm[i]].concept)
			key.acts = append(key.acts, a.ID)
			key.capOf = append(key.capOf, perm[i])
			key.capIdx[a.ID] = perm[i]
		}
		raw, err := bpel.Marshal(t)
		if err != nil {
			return nil, fmt.Errorf("marshal task %s: %w", name, err)
		}
		key.doc = string(raw)
		if key.task, err = bpel.ParseString(key.doc); err != nil {
			return nil, fmt.Errorf("parse task %s: %w", name, err)
		}
		cs := gen.Constraints(key.task, sc.ps, laws, workload.AtMeanPlusSigma, 1+rng.Intn(3))
		key.core = &core.Request{Task: key.task, Properties: sc.ps, Constraints: cs, Approach: qos.Pessimistic}
		for _, c := range cs {
			key.req.Constraints = append(key.req.Constraints, qasom.Constraint{Property: c.Property, Bound: c.Bound})
		}
		if inline {
			key.req.Task = key.doc
		} else {
			key.req.Task = name
			sc.classes = append(sc.classes, [2]string{name + "-class", key.doc})
		}
		sc.keys = append(sc.keys, key)
	}
	return sc, nil
}

func slotID(concept string, slot, gen int) string {
	if gen == 0 {
		return fmt.Sprintf("%s-s%03d", concept, slot)
	}
	return fmt.Sprintf("%s-s%03d-g%d", concept, slot, gen)
}

func qosMap(ps *qos.PropertySet, v qos.Vector) map[string]float64 {
	out := make(map[string]float64, ps.Len())
	for j := 0; j < ps.Len(); j++ {
		out[ps.At(j).Name] = v[j]
	}
	return out
}

// writable is the capability list provider writes draw from.
func (sc *scenario) writable() []capability {
	if sc.hotWrites {
		return sc.caps
	}
	return sc.idle
}

// replacement is the service a provider write publishes into a slot: a
// fresh ID and fresh QoS, derived from the run seed so the stream is
// reproducible.
func (sc *scenario) replacement(seed int64, capIdx, slot, gen int) qasom.Service {
	c := sc.writable()[capIdx]
	h := fnv.New64a()
	writeInts(h, seed, int64(capIdx), int64(slot), int64(gen))
	g := workload.NewGenerator(int64(h.Sum64() & math.MaxInt64))
	return qasom.Service{
		ID:         slotID(c.concept, slot, gen),
		Capability: slotConcept(c.concept, slot),
		QoS:        qosMap(sc.ps, g.Vector(sc.ps, workload.DefaultLaws(sc.ps))),
		Noise:      c.slots[slot].Noise,
		FailProb:   c.slots[slot].FailProb,
	}
}

// populationDigest and keysDigest identify the fixed inputs; the seed
// must not move them.
func (sc *scenario) populationDigest() uint64 {
	h := fnv.New64a()
	for _, list := range [][]capability{sc.caps, sc.idle} {
		for _, c := range list {
			for _, s := range c.slots {
				h.Write([]byte(s.ID + "|" + s.Capability))
				for j := 0; j < sc.ps.Len(); j++ {
					writeInts(h, int64(math.Float64bits(s.QoS[sc.ps.At(j).Name])))
				}
				writeInts(h, int64(math.Float64bits(s.FailProb)))
			}
		}
	}
	return h.Sum64()
}

func (sc *scenario) keysDigest() uint64 {
	h := fnv.New64a()
	for _, k := range sc.keys {
		h.Write([]byte(k.req.Task))
		h.Write([]byte(k.doc))
		for _, c := range k.req.Constraints {
			h.Write([]byte(c.Property))
			writeInts(h, int64(math.Float64bits(c.Bound)))
		}
	}
	return h.Sum64()
}

func writeInts(h hash.Hash64, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

// Stream op kinds.
const (
	opRequest byte = iota
	opWrite
	opFault
)

// op is one entry of a client's request stream.
type op struct {
	kind byte
	act  uint8  // fault: activity index of the key whose bound service goes down
	key  uint16 // request/fault: plan-key index
	cap  uint16 // write: index into scenario.writable()
	slot uint16 // write: slot of that capability (owned by this client)
}

// streamLen is the number of ops generated per client; a client cycles
// through its stream for as long as the run lasts.
const streamLen = 1 << 16

// streams generates every client's op stream from the run seed. Writes
// and faults sit at fixed positions (1-in-N); the seed drives which key
// is requested and which service a write or fault targets. A client
// only ever writes slots s with s%clients == client, so concurrent
// writers never race on one slot.
func (sc *scenario) streams(seed int64, clients int) [][]op {
	out := make([][]op, clients)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		var zipf *rand.Zipf
		if sc.zipf > 0 {
			zipf = rand.NewZipf(rng, sc.zipf, 1, uint64(len(sc.keys)-1))
		}
		drawKey := func() int {
			if zipf != nil {
				return int(zipf.Uint64())
			}
			return rng.Intn(len(sc.keys))
		}
		ops := make([]op, streamLen)
		for i := range ops {
			switch {
			case (i+1)%sc.writeEvery == 0:
				var ci int
				if sc.hotWrites {
					k := &sc.keys[drawKey()]
					ci = k.capOf[rng.Intn(len(k.capOf))]
				} else {
					ci = rng.Intn(len(sc.idle))
				}
				n := len(sc.writable()[ci].slots)
				owned := (n - c + clients - 1) / clients
				ops[i] = op{kind: opWrite, cap: uint16(ci), slot: uint16(c + clients*rng.Intn(owned))}
			case sc.faultEvery > 0 && (i+1)%sc.faultEvery == 0:
				k := drawKey()
				ops[i] = op{kind: opFault, key: uint16(k), act: uint8(rng.Intn(len(sc.keys[k].acts)))}
			default:
				ops[i] = op{kind: opRequest, key: uint16(drawKey())}
			}
		}
		out[c] = ops
	}
	return out
}

func streamDigest(streams [][]op) uint64 {
	h := fnv.New64a()
	for _, ops := range streams {
		for _, o := range ops {
			h.Write([]byte{o.kind, o.act, byte(o.key), byte(o.key >> 8), byte(o.cap), byte(o.cap >> 8), byte(o.slot), byte(o.slot >> 8)})
		}
	}
	return h.Sum64()
}
