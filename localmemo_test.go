package qasom

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"qasom/internal/core"
	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/semantics"
	"qasom/internal/task"
)

// TestLocalMemoKey checks that every input the key renders separates
// keys, and that an alias shares its canonical concept's key.
func TestLocalMemoKey(t *testing.T) {
	mw, err := New(Options{Obs: obs.NewHub()})
	if err != nil {
		t.Fatal(err)
	}
	mw.Ontology().MustAddConcept("MemoKeyOrder", semantics.ConceptID("OrderItem"))
	if err := mw.Ontology().AddAlias("MemoKeyAlias", "MemoKeyOrder"); err != nil {
		t.Fatal(err)
	}
	uniform := qos.UniformWeights(mw.props)
	key := func(a task.Activity, w qos.Weights) string { return mw.localMemoKey(nil, &a, w) }
	base := task.Activity{ID: "a", Concept: "MemoKeyOrder"}
	distinct := map[string]string{
		"base":     key(base, uniform),
		"concept":  key(task.Activity{ID: "a", Concept: "OrderItem"}, uniform),
		"inputs":   key(task.Activity{ID: "a", Concept: "MemoKeyOrder", Inputs: []semantics.ConceptID{"ItemList"}}, uniform),
		"outputs":  key(task.Activity{ID: "a", Concept: "MemoKeyOrder", Outputs: []semantics.ConceptID{"ItemList"}}, uniform),
		"two ins":  key(task.Activity{ID: "a", Concept: "MemoKeyOrder", Inputs: []semantics.ConceptID{"Item", "List"}}, uniform),
		"weights":  key(base, qos.Weights{3, 1, 1, 1, 1}),
		"weights2": key(base, qos.Weights{1, 3, 1, 1, 1}),
	}
	seen := map[string]string{}
	for name, k := range distinct {
		if other, dup := seen[k]; dup {
			t.Errorf("%s and %s render the same key %q", name, other, k)
		}
		seen[k] = name
	}
	if got := key(task.Activity{ID: "other", Concept: "MemoKeyAlias"}, uniform); got != distinct["base"] {
		t.Errorf("alias key %q, want the canonical concept's %q", got, distinct["base"])
	}
}

// TestLocalMemoKeepsNewerLabel pins the replace rule: a store replaces
// an entry only when its label (ontology version, then epoch) is newer,
// in place, without taking another slot.
func TestLocalMemoKeepsNewerLabel(t *testing.T) {
	lm := newLocalMemo(newPlanCache(0, obs.NewHub().Metrics), obs.NewHub().Metrics)
	for _, step := range []struct {
		version, epoch uint64
		wantVersion    uint64
		wantEpoch      uint64
	}{
		{1, 5, 1, 5},
		{1, 3, 1, 5}, // older epoch: kept out
		{1, 5, 1, 5}, // same label: first one stays
		{1, 9, 1, 9},
		{2, 1, 2, 1}, // newer version wins over a higher epoch
		{1, 20, 2, 1},
	} {
		lm.table.store("k", &localEntry{version: step.version, epoch: step.epoch})
		got := lm.table.lookup("k")
		if got.version != step.wantVersion || got.epoch != step.wantEpoch {
			t.Fatalf("after storing (%d,%d): entry (%d,%d), want (%d,%d)",
				step.version, step.epoch, got.version, got.epoch, step.wantVersion, step.wantEpoch)
		}
	}
	if n := lm.table.len(); n != 1 {
		t.Errorf("one key holds %d nodes, want 1", n)
	}
}

// TestLocalMemoBoundsCandidates checks that the memo's weight budget,
// not only its key count, bounds what it holds: long candidate lists
// under few keys, one of them replaced in place by ever longer lists,
// stay within two generations' worth of candidates, the latest entries
// stay resident, and an entry longer than a whole generation's budget
// is still kept.
func TestLocalMemoBoundsCandidates(t *testing.T) {
	lm := newLocalMemo(newPlanCache(0, obs.NewHub().Metrics), obs.NewHub().Metrics)
	resident := func() (total int) {
		g := lm.table.gens.Load()
		for _, gen := range []*generation[localEntry]{g.cur, g.old} {
			for i := range gen.buckets {
				for n := gen.buckets[i].Load(); n != nil; n = n.next {
					total += len(n.val.Load().cands)
				}
			}
		}
		return total
	}
	// Fifty keys, far fewer than a generation's key slots, carrying five
	// generations' worth of candidates.
	const tenth = localMemoGenCandidates / 10
	list := make([]registry.Candidate, 10*tenth)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		lm.table.store(key, &localEntry{cands: list[:tenth], epoch: 1})
		lm.table.store("hot", &localEntry{cands: list[:(i%10+1)*tenth], epoch: uint64(i + 1)})
		for _, k := range []string{key, "hot"} {
			if lm.table.lookup(k) == nil {
				t.Fatalf("entry %s not resident right after its store", k)
			}
		}
		if got := resident(); got > 2*localMemoGenCandidates {
			t.Fatalf("after %d stores the memo holds %d candidates, bound %d", i+1, got, 2*localMemoGenCandidates)
		}
	}
	huge := &localEntry{cands: make([]registry.Candidate, 3*localMemoGenCandidates), epoch: 1}
	lm.table.store("huge", huge)
	if lm.table.lookup("huge") != huge {
		t.Error("an entry heavier than a whole generation was not kept")
	}
}

// TestDifferentialLocalMemoRaced races composes of requests that share
// capabilities against writes on those capabilities. Every composition
// it can pin to one epoch window (the snapshot before the compose equals
// the one after a fresh gather and selection without the memo) must
// equal that fresh selection. Run under -race by the CI quick gate.
func TestDifferentialLocalMemoRaced(t *testing.T) {
	hub := obs.NewHub()
	mw, err := New(Options{Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []struct{ prefix, capability string }{
		{"browse", "BrowseCatalog"}, {"order", "OrderItem"}, {"pay", "CardPayment"},
	} {
		for i := 0; i < 5; i++ {
			err := mw.Publish(Service{
				ID:         fmt.Sprintf("%s-%d", spec.prefix, i),
				Capability: spec.capability,
				QoS: map[string]float64{
					"responseTime": 40 + float64(5*i), "price": 5 - float64(i)/2,
					"availability": 0.95, "reliability": 0.9, "throughput": 40,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	const seq = `<process name="memo-seq" concept="Shopping">
	  <sequence>
	    <invoke activity="browse" concept="BrowseCatalog"/>
	    <invoke activity="order" concept="OrderItem"/>
	    <invoke activity="pay" concept="Payment"/>
	  </sequence>
	</process>`
	const flow = `<process name="memo-flow" concept="Shopping">
	  <flow>
	    <invoke activity="o" concept="OrderItem"/>
	    <invoke activity="p" concept="Payment"/>
	  </flow>
	</process>`
	type probe struct {
		req  Request
		te   *taskEntry
		core *core.Request
	}
	var probes []probe
	for _, c := range []struct {
		doc   string
		bound float64
	}{{seq, 500}, {seq, 300}, {flow, 200}} {
		te, err := mw.resolveTask(c.doc)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, probe{
			req: Request{Task: c.doc, Constraints: []Constraint{{Property: "responseTime", Bound: c.bound}}},
			te:  te,
			core: &core.Request{
				Task:        te.task,
				Properties:  mw.props,
				Constraints: []qos.Constraint{{Property: "responseTime", Bound: c.bound}},
				Approach:    qos.Pessimistic,
			},
		})
	}

	stop := make(chan struct{})
	var stopOnce sync.Once
	var churnWG sync.WaitGroup
	churn := func(capability, prefix string) {
		defer churnWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("%s-%d", prefix, i%3)
			err := mw.Publish(Service{
				ID: id, Capability: capability,
				QoS: map[string]float64{
					"responseTime": 30 + float64(i%10), "price": 4,
					"availability": 0.96, "reliability": 0.92, "throughput": 45,
				},
			})
			if err != nil {
				t.Error(err)
				return
			}
			if i%2 == 1 {
				mw.Withdraw(id)
			}
		}
	}
	churnWG.Add(2)
	go churn("OrderItem", "churn-order")
	go churn("CardPayment", "churn-pay")

	const composers = 4
	const iterations = 120
	var composeWG sync.WaitGroup
	var compared int64
	var statMu sync.Mutex
	errc := make(chan error, composers)
	for g := 0; g < composers; g++ {
		composeWG.Add(1)
		go func(g int) {
			defer composeWG.Done()
			localCompared := int64(0)
			for i := 0; i < iterations; i++ {
				if i == iterations/2 {
					// The second half runs without churn, so comparisons
					// are guaranteed, not just likely.
					stopOnce.Do(func() { close(stop) })
				}
				p := probes[(g+i)%len(probes)]
				snap := mw.planEpochs(nil, p.te)
				comp, err := mw.Compose(p.req)
				if err != nil {
					errc <- err
					return
				}
				candidates, err := core.GatherCandidates(context.Background(), p.te.task, mw.reg, mw.props)
				if err != nil {
					errc <- err
					return
				}
				fresh, err := mw.selector.SelectContext(context.Background(), p.core, candidates)
				if err != nil {
					errc <- err
					return
				}
				if !equalEpochs(snap, mw.planEpochs(nil, p.te)) {
					continue // churn inside the window: not pinned to one epoch
				}
				localCompared++
				var got *core.Result
				comp.runtime.View(func(res *core.Result) { got = res })
				if !reflect.DeepEqual(got.Assignment, fresh.Assignment) ||
					got.Utility != fresh.Utility ||
					got.Feasible != fresh.Feasible ||
					got.Violation != fresh.Violation ||
					!reflect.DeepEqual(got.Aggregated, fresh.Aggregated) ||
					!reflect.DeepEqual(got.Alternates(), fresh.Alternates()) {
					errc <- fmt.Errorf("request %v: composition diverged from a fresh selection at the same epoch: %v vs %v",
						p.req.Constraints, got.Assignment, fresh.Assignment)
					return
				}
			}
			statMu.Lock()
			compared += localCompared
			statMu.Unlock()
		}(g)
	}
	composeWG.Wait()
	stopOnce.Do(func() { close(stop) })
	churnWG.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	hits := counterValue(t, hub.Metrics, "qasom_local_memo_hits_total")
	if compared == 0 || hits == 0 {
		t.Fatalf("differential compared %d compositions with %g memo hits", compared, hits)
	}
	t.Logf("local memo differential: %d compared at pinned epochs, %g memo hits", compared, hits)
}
