// Multi-tenant facade tests: two Middleware instances sharing one
// registry store must be fully isolated — candidates, epochs and
// cached selection plans — even under raced churn in the other tenant.
package qasom

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qasom/internal/core"
	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/semantics"
)

func seedShoppingServices(t *testing.T, mw *Middleware, prefix string) {
	t.Helper()
	for _, spec := range []struct{ kind, capability string }{
		{"browse", "BrowseCatalog"}, {"order", "OrderItem"}, {"pay", "CardPayment"},
	} {
		for i := 0; i < 4; i++ {
			err := mw.Publish(Service{
				ID:         fmt.Sprintf("%s-%s-%d", prefix, spec.kind, i),
				Capability: spec.capability,
				QoS: map[string]float64{
					"responseTime": 40 + float64(5*i), "price": 5,
					"availability": 0.95, "reliability": 0.9, "throughput": 40,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDifferentialMultiTenantChurnRaced shares one store between
// tenants A and B and races B-side churn (on the very capabilities A's
// task uses) against A-side cache probes. Isolation means A's epoch
// snapshot NEVER moves, its cached plan stays valid throughout, every
// hit DeepEquals a fresh recomputation, and no B service ever appears in
// an A assignment. Run under -race by the CI quick gate.
func TestDifferentialMultiTenantChurnRaced(t *testing.T) {
	store := registry.NewStore(semantics.PervasiveWithScenarios(), registry.StoreOptions{})
	mwA, err := New(Options{Obs: obs.NewHub(), Store: store, TenantID: "tenant-a"})
	if err != nil {
		t.Fatal(err)
	}
	mwB, err := New(Options{Obs: obs.NewHub(), Store: store, TenantID: "tenant-b"})
	if err != nil {
		t.Fatal(err)
	}
	seedShoppingServices(t, mwA, "a")
	seedShoppingServices(t, mwB, "b")
	if n := store.Tenant("tenant-a").Len() + store.Tenant("tenant-b").Len(); n != 24 {
		t.Fatalf("tenants hold %d services, want 24 across both", n)
	}

	const doc = `<process name="tenant-shopping" concept="Shopping">
	  <sequence>
	    <invoke activity="browse" concept="BrowseCatalog"/>
	    <invoke activity="order" concept="OrderItem"/>
	    <invoke activity="pay" concept="Payment"/>
	  </sequence>
	</process>`
	req := Request{
		Task:        doc,
		Constraints: []Constraint{{Property: "responseTime", Bound: 500}},
	}
	tk, err := mwA.resolveTask(doc)
	if err != nil {
		t.Fatal(err)
	}
	coreReq := &core.Request{
		Task:        tk.task,
		Properties:  mwA.props,
		Constraints: []qos.Constraint{{Property: "responseTime", Bound: 500}},
		Approach:    qos.Pessimistic,
	}
	key := planCacheKey(tk, coreReq)

	// Populate A's cache once, then pin its epoch snapshot: nothing that
	// happens in tenant B may ever move it.
	if _, err := mwA.Compose(req); err != nil {
		t.Fatal(err)
	}
	pinned := mwA.planEpochs(nil, tk)

	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	churn := func(capability, prefix string) {
		defer churnWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("%s-%d", prefix, i%4)
			err := mwB.Publish(Service{
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
			mwB.Withdraw(id)
		}
	}
	churnWG.Add(2)
	go churn("OrderItem", "b-churn-ord")    // same capability A's task uses
	go churn("BrowseCatalog", "b-churn-br") // and the task's other concept

	const verifiers = 4
	const iterations = 100
	var verifyWG sync.WaitGroup
	var hits int64
	var statMu sync.Mutex
	errc := make(chan error, verifiers)
	for g := 0; g < verifiers; g++ {
		verifyWG.Add(1)
		go func() {
			defer verifyWG.Done()
			localHits := int64(0)
			for i := 0; i < iterations; i++ {
				snap := mwA.planEpochs(nil, tk)
				if !equalEpochs(snap, pinned) {
					errc <- fmt.Errorf("tenant-b churn moved tenant-a epochs: %v -> %v", pinned, snap)
					return
				}
				entry, _ := mwA.plans.lookup(key, snap)
				if entry == nil {
					errc <- fmt.Errorf("tenant-a cache entry invalidated by tenant-b churn")
					return
				}
				localHits++
				cached := entry.res
				for act, cand := range cached.Assignment {
					if strings.HasPrefix(string(cand.Service.ID), "b-") {
						errc <- fmt.Errorf("tenant-b service %q bound to tenant-a activity %q", cand.Service.ID, act)
						return
					}
				}
				// Every hit must be bit-identical to a fresh recomputation —
				// guaranteed comparable because A's epochs are pinned.
				candidates, err := core.GatherCandidates(t.Context(), tk.task, mwA.reg, mwA.props)
				if err != nil {
					errc <- err
					return
				}
				fresh, err := mwA.selector.SelectContext(t.Context(), coreReq, candidates)
				if err != nil {
					errc <- err
					return
				}
				if !reflect.DeepEqual(cached.Assignment, fresh.Assignment) ||
					cached.Utility != fresh.Utility ||
					cached.Feasible != fresh.Feasible ||
					!reflect.DeepEqual(cached.Aggregated, fresh.Aggregated) ||
					!reflect.DeepEqual(cached.Alternates(), fresh.Alternates()) {
					errc <- fmt.Errorf("tenant-a cached plan diverged from fresh recomputation")
					return
				}
			}
			statMu.Lock()
			hits += localHits
			statMu.Unlock()
		}()
	}
	verifyWG.Wait()
	close(stop)
	churnWG.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if hits == 0 {
		t.Fatal("differential never exercised a cache hit")
	}
	// Sanity check the other direction: B's own epochs DID move under its
	// churn (the isolation above is not a frozen-store artefact).
	bEpochs := mwB.reg.CapabilityEpochs(nil, semantics.ConceptID("OrderItem"))
	if bEpochs[0] == 0 {
		t.Error("tenant-b churn never moved its own epochs — test exercised nothing")
	}
	t.Logf("multi-tenant differential: %d pinned hits compared", hits)
}

// TestSharedStoreTenantViews pins the facade wiring: instances attached
// to one Store see their own services only, and the store's ontology is
// the shared semantic model.
func TestSharedStoreTenantViews(t *testing.T) {
	store := registry.NewStore(semantics.PervasiveWithScenarios(), registry.StoreOptions{})
	mwA, err := New(Options{Obs: obs.NewHub(), Store: store, TenantID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	mwB, err := New(Options{Obs: obs.NewHub(), Store: store, TenantID: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if mwA.Ontology() != store.Ontology() || mwB.Ontology() != store.Ontology() {
		t.Error("shared store's ontology not adopted by the tenants")
	}
	if err := mwA.Publish(Service{ID: "s1", Capability: "BookSale",
		QoS: map[string]float64{"responseTime": 40, "price": 5, "availability": 0.95, "reliability": 0.9, "throughput": 40}}); err != nil {
		t.Fatal(err)
	}
	if mwA.ServiceCount() != 1 || mwB.ServiceCount() != 0 {
		t.Errorf("ServiceCount: a=%d b=%d, want 1 and 0", mwA.ServiceCount(), mwB.ServiceCount())
	}
	if mwB.Withdraw("s1") {
		t.Error("tenant-b withdrew tenant-a's service")
	}
	if !mwA.Withdraw("s1") {
		t.Error("tenant-a could not withdraw its own service")
	}
}
