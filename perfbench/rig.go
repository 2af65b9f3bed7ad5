package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"qasom"
	"qasom/internal/core"
	"qasom/internal/obs"
	"qasom/internal/registry"
	"qasom/internal/semantics"
)

// middlewareSeed is the selection seed of every middleware the benchmark
// builds, tested and reference alike: selections are a pure function of
// (request, candidates, seed), so equal seeds make them comparable.
const middlewareSeed = 1

// instance is one middleware on its own fresh registry store.
type instance struct {
	mw    *qasom.Middleware
	store *registry.Store
	reg   *registry.Registry
	hub   *obs.Hub
}

func (in *instance) close() { in.mw.Close() }

// initialPopulation lists every service of the scenario in publication
// order.
func (sc *scenario) initialPopulation() []qasom.Service {
	var out []qasom.Service
	for _, list := range [][]capability{sc.caps, sc.idle} {
		for _, c := range list {
			out = append(out, c.slots...)
		}
	}
	return out
}

// build is one set-up: a new middleware on a fresh store, the population
// published, the task classes registered and the first warm keys
// composed, and executed where a request executes. cacheSize is
// Options.SelectionCacheSize (-1 disables the plan cache, as in the
// reference middleware).
func (sc *scenario) build(pop []qasom.Service, cacheSize, warm int) (*instance, error) {
	hub := obs.NewHub()
	store := registry.NewStore(sc.newOntology(), registry.StoreOptions{Obs: hub.Metrics})
	mw, err := qasom.New(qasom.Options{
		Seed:               middlewareSeed,
		Store:              store,
		Obs:                hub,
		SelectionCacheSize: cacheSize,
	})
	if err != nil {
		return nil, fmt.Errorf("new middleware: %w", err)
	}
	in := &instance{mw: mw, store: store, reg: store.Tenant(""), hub: hub}
	for _, s := range pop {
		if err := mw.Publish(s); err != nil {
			in.close()
			return nil, fmt.Errorf("publish %s: %w", s.ID, err)
		}
	}
	for _, c := range sc.classes {
		if err := mw.RegisterTaskClass(c[0], c[1]); err != nil {
			in.close()
			return nil, fmt.Errorf("register %s: %w", c[0], err)
		}
	}
	for k := 0; k < warm && k < len(sc.keys); k++ {
		comp, err := mw.Compose(sc.keys[k].req)
		if err != nil {
			in.close()
			return nil, fmt.Errorf("warm compose %d: %w", k, err)
		}
		if sc.execute {
			if _, err := mw.Execute(context.Background(), comp); err != nil {
				in.close()
				return nil, fmt.Errorf("warm execute %d: %w", k, err)
			}
		}
	}
	return in, nil
}

// setupTimes are the seconds each set-up took: process CPU (all
// threads, GC included) and wall time.
type setupTimes struct{ cpu, wall []float64 }

// setup runs n set-ups and appends their times to t. With keep it
// returns the last instance; otherwise it closes every instance. Each
// set-up starts from a collected heap whose free memory went back to
// the operating system, so they all see the same allocator state.
func (sc *scenario) setup(n int, keep bool, t *setupTimes) (*instance, error) {
	var in *instance
	for i := 0; i < n; i++ {
		if in != nil {
			in.close()
			in = nil
		}
		debug.FreeOSMemory()
		cpu0, start := processCPU(), time.Now()
		next, err := sc.build(sc.initialPopulation(), 0, sc.warm)
		if err != nil {
			return nil, err
		}
		t.wall = append(t.wall, time.Since(start).Seconds())
		t.cpu = append(t.cpu, processCPU()-cpu0)
		in = next
	}
	if !keep && in != nil {
		in.close()
		in = nil
	}
	return in, nil
}

// decision is what the correctness gate compares: the bindings and the
// feasibility verdict of one composition.
type decision struct {
	bindings map[string]string
	feasible bool
}

func decisionOf(c *qasom.Composition) decision {
	return decision{bindings: c.Bindings(), feasible: c.Feasible()}
}

func (d decision) equal(o decision) bool {
	if d.feasible != o.feasible || len(d.bindings) != len(o.bindings) {
		return false
	}
	for act, id := range d.bindings {
		if o.bindings[act] != id {
			return false
		}
	}
	return true
}

func (d decision) String() string {
	acts := make([]string, 0, len(d.bindings))
	for act := range d.bindings {
		acts = append(acts, act)
	}
	sort.Strings(acts)
	s := fmt.Sprintf("feasible=%v", d.feasible)
	for _, act := range acts {
		s += " " + act + "=" + d.bindings[act]
	}
	return s
}

// referenceDecisions composes every key on an uncached middleware over
// the given population.
func (sc *scenario) referenceDecisions(pop []qasom.Service) ([]decision, error) {
	ref, err := sc.build(pop, -1, 0)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	defer ref.close()
	out := make([]decision, len(sc.keys))
	for k := range sc.keys {
		c, err := ref.mw.Compose(sc.keys[k].req)
		if err != nil {
			return nil, fmt.Errorf("reference compose %d: %w", k, err)
		}
		out[k] = decisionOf(c)
	}
	return out, nil
}

// replayResults runs, for every key, the benchmark's own candidate
// gathering and QASSA selection against the instance's registry. The
// results are the inputs the traced run hands to Result.Clone and
// adapt.NewRuntime, and they must agree with the reference decisions.
func (sc *scenario) replayResults(in *instance, sel *core.Selector, ref []decision) ([]*core.Result, error) {
	out := make([]*core.Result, len(sc.keys))
	for k := range sc.keys {
		key := &sc.keys[k]
		cands, err := core.GatherCandidates(context.Background(), key.task, in.reg, sc.ps)
		if err != nil {
			return nil, fmt.Errorf("replay gather %d: %w", k, err)
		}
		res, err := sel.SelectContext(context.Background(), key.core, cands)
		if err != nil {
			return nil, fmt.Errorf("replay select %d: %w", k, err)
		}
		if ref != nil {
			got := decision{bindings: make(map[string]string, len(res.Assignment)), feasible: res.Feasible}
			for act, c := range res.Assignment {
				got.bindings[act] = string(c.Service.ID)
			}
			if !got.equal(ref[k]) {
				return nil, fmt.Errorf("replayed selection of key %d differs from the facade: %v vs %v", k, got, ref[k])
			}
		}
		out[k] = res
	}
	return out, nil
}

// concepts lists the capability concepts of a key's activities in task
// order (the argument of Registry.CapabilityEpochs).
func (k *planKey) concepts() []semantics.ConceptID {
	out := make([]semantics.ConceptID, 0, len(k.acts))
	for _, a := range k.task.Activities() {
		out = append(out, a.Concept)
	}
	return out
}
