package qasom_test

import (
	"reflect"
	"strings"
	"testing"

	"qasom"
	"qasom/internal/obs"
	"qasom/internal/registry"
	"qasom/internal/semantics"
)

// memoTaskIO declares data signatures: only services that produce
// what an activity outputs are its candidates, so its order and pay
// activities see narrower lists than behaviourA's, under the same
// capabilities.
const memoTaskIO = `<process name="shopIO" concept="Shopping">
  <sequence>
    <invoke activity="browse" concept="BrowseCatalog"/>
    <invoke activity="order" concept="OrderItem" inputs="ItemList" outputs="OrderRecord"/>
    <invoke activity="pay" concept="Payment" inputs="OrderRecord" outputs="Receipt"/>
  </sequence>
</process>`

// memoTaskFlow shares the order and pay capabilities with behaviourA
// under another task shape.
const memoTaskFlow = `<process name="orderPay" concept="Shopping">
  <flow>
    <invoke activity="o" concept="OrderItem"/>
    <invoke activity="p" concept="Payment"/>
  </flow>
</process>`

// memoSide is one middleware of the differential, on its own store,
// with a second tenant on the same store.
type memoSide struct {
	mw, other *qasom.Middleware
	hub       *obs.Hub
}

func newMemoSide(t *testing.T, cacheSize int) memoSide {
	t.Helper()
	store := registry.NewStore(semantics.PervasiveWithScenarios(), registry.StoreOptions{})
	side := memoSide{hub: obs.NewHub()}
	var err error
	if side.mw, err = qasom.New(qasom.Options{Obs: side.hub, Store: store, SelectionCacheSize: cacheSize}); err != nil {
		t.Fatal(err)
	}
	if side.other, err = qasom.New(qasom.Options{Obs: obs.NewHub(), Store: store, TenantID: "other"}); err != nil {
		t.Fatal(err)
	}
	seedMall(t, side.mw)
	seedMall(t, side.other)
	for _, s := range []qasom.Service{
		{ID: "order-io-0", Capability: "OrderItem", Inputs: []string{"ItemList"}, Outputs: []string{"OrderRecord"}, QoS: stdQoS(70)},
		{ID: "order-io-1", Capability: "OrderItem", Inputs: []string{"ItemList"}, Outputs: []string{"OrderRecord"}, QoS: stdQoS(90)},
		{ID: "pay-io-0", Capability: "CardPayment", Inputs: []string{"OrderRecord"}, Outputs: []string{"Receipt"}, QoS: stdQoS(65)},
		{ID: "pay-io-1", Capability: "CardPayment", Inputs: []string{"OrderRecord"}, Outputs: []string{"Receipt"}, QoS: stdQoS(85)},
	} {
		if err := side.mw.Publish(s); err != nil {
			t.Fatal(err)
		}
	}
	return side
}

// TestDifferentialLocalMemo drives a middleware with the local-phase
// memo and one without it (SelectionCacheSize -1) through one churn
// sequence and requires equal compositions at every step. Several
// requests share capabilities and one task is sent under two
// constraint sets, so plan misses are served from the memo; the churn
// covers related publish and withdraw, a QoS update by re-publish, a
// plug-in sub-concept, an ontology version bump and a second tenant's
// writes on the shared store.
func TestDifferentialLocalMemo(t *testing.T) {
	memo, ref := newMemoSide(t, 0), newMemoSide(t, -1)
	requests := []qasom.Request{
		{Task: behaviourA, Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 300}}},
		{Task: behaviourA, Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 200}, {Property: "availability", Bound: 0.8}}},
		{Task: behaviourA, Weights: map[string]float64{"responseTime": 3, "price": 1, "availability": 0.5}},
		{Task: memoTaskFlow},
		{Task: memoTaskIO, Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 400}}},
		{Task: "shopA", Dependencies: []qasom.Dependency{{Kind: "excludes", From: "browse", To: "order", ToServices: []string{"order-0"}}}},
	}
	step := func(label string, churn func(s memoSide)) {
		t.Helper()
		churn(memo)
		churn(ref)
		for i, req := range requests {
			got, err := memo.mw.Compose(req)
			if err != nil {
				t.Fatalf("%s: request %d: memo side: %v", label, i, err)
			}
			want, err := ref.mw.Compose(req)
			if err != nil {
				t.Fatalf("%s: request %d: reference side: %v", label, i, err)
			}
			if !reflect.DeepEqual(viewOf(got), viewOf(want)) {
				t.Fatalf("%s: request %d: memo side diverged from reference:\n%+v\nvs\n%+v",
					label, i, viewOf(got), viewOf(want))
			}
		}
	}
	publish := func(svc qasom.Service) func(s memoSide) {
		return func(s memoSide) {
			if err := s.mw.Publish(svc); err != nil {
				t.Fatal(err)
			}
		}
	}
	idle := func(memoSide) {}

	step("warmup", idle)
	step("idle", idle)
	step("publish related", publish(qasom.Service{ID: "order-new", Capability: "OrderItem", QoS: stdQoS(5)}))
	step("publish related with data signature", publish(qasom.Service{ID: "order-io-new", Capability: "OrderItem",
		Inputs: []string{"ItemList"}, Outputs: []string{"OrderRecord"}, QoS: stdQoS(6)}))
	step("QoS update by re-publish", publish(qasom.Service{ID: "order-new", Capability: "OrderItem", QoS: stdQoS(500)}))
	step("plug-in sub-concept", publish(qasom.Service{ID: "pay-plug", Capability: "CardPayment", QoS: stdQoS(7)}))
	step("withdraw related", func(s memoSide) {
		if !s.mw.Withdraw("order-new") {
			t.Fatal("withdraw order-new failed")
		}
	})
	// A service published under a concept the ontology does not know
	// matches nothing until the concept is added below OrderItem: the
	// version bump alone changes the order activity's candidates.
	step("publish under an unknown concept", publish(qasom.Service{ID: "order-rush", Capability: "MemoRushOrder", QoS: stdQoS(3)}))
	step("ontology version bump", func(s memoSide) {
		s.mw.Ontology().MustAddConcept("MemoRushOrder", "OrderItem")
	})
	step("second tenant churn", func(s memoSide) {
		for i := 0; i < 3; i++ {
			if err := s.other.Publish(qasom.Service{ID: "other-order", Capability: "OrderItem", QoS: stdQoS(1 + float64(i))}); err != nil {
				t.Fatal(err)
			}
			if err := s.other.Publish(qasom.Service{ID: "other-pay", Capability: "CardPayment", QoS: stdQoS(2)}); err != nil {
				t.Fatal(err)
			}
		}
		s.other.Withdraw("other-pay")
	})
	step("withdraw under the new concept", func(s memoSide) {
		if !s.mw.Withdraw("order-rush") {
			t.Fatal("withdraw order-rush failed")
		}
	})

	hits, ok := metricValue(memo.hub, "qasom_local_memo_hits_total")
	if !ok || hits == 0 {
		t.Fatalf("local memo never hit (hits=%g, registered=%v)", hits, ok)
	}
	misses, _ := metricValue(memo.hub, "qasom_local_memo_misses_total")
	t.Logf("local memo: %g hits, %g misses", hits, misses)
	if _, ok := metricValue(ref.hub, "qasom_local_memo_hits_total"); ok {
		t.Error("SelectionCacheSize -1 must not build a local memo")
	}
}

// TestLocalMemoFlightRecord checks the miss-path telemetry: a plan miss
// whose activities were all memoised records local-reused=M/M, and its
// counters move by the task's activity count.
func TestLocalMemoFlightRecord(t *testing.T) {
	hub := obs.NewHub()
	mw, err := qasom.New(qasom.Options{Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	seedMall(t, mw)
	for _, bound := range []float64{300, 250} {
		if _, err := mw.Compose(qasom.Request{Task: behaviourA,
			Constraints: []qasom.Constraint{{Property: "responseTime", Bound: bound}}}); err != nil {
			t.Fatal(err)
		}
	}
	recs := hub.Flight.Snapshot(obs.FlightQuery{})
	var events [][]string
	for _, r := range recs {
		if r.Kind == "compose" {
			events = append(events, r.Events)
		}
	}
	if len(events) != 2 {
		t.Fatalf("%d compose records, want 2", len(events))
	}
	found := map[string]bool{}
	for _, ev := range events {
		found[strings.Join(ev, ",")] = true
	}
	if !found["local-reused=0/3"] || !found["local-reused=3/3"] {
		t.Errorf("compose events %v, want local-reused=0/3 and local-reused=3/3", events)
	}
	for name, want := range map[string]float64{
		"qasom_local_memo_hits_total":   3,
		"qasom_local_memo_misses_total": 3,
	} {
		if got, _ := metricValue(hub, name); got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}
