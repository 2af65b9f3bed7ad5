package subidx

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"qasom/internal/monitor"
	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/semantics"
)

func testOffers(rt float64) []registry.QoSOffer {
	return []registry.QoSOffer{
		{Property: semantics.ResponseTime, Value: rt},
		{Property: semantics.Price, Value: 5},
		{Property: semantics.Availability, Value: 0.95},
		{Property: semantics.Reliability, Value: 0.9},
		{Property: semantics.Throughput, Value: 40},
	}
}

func publishOrder(t *testing.T, reg *registry.Registry, id string, rt float64) {
	t.Helper()
	if err := reg.Publish(registry.Description{
		ID: registry.ServiceID(id), Concept: semantics.OrderItem, Offers: testOffers(rt),
	}); err != nil {
		t.Fatal(err)
	}
}

// fixture publishes n order services (order-i answers in 40+5i ms) and
// returns an unstarted table over them with its own metrics registry.
func fixture(t *testing.T, n int) (*Table, *registry.Registry, *monitor.Monitor, *obs.Registry) {
	t.Helper()
	reg := registry.New(semantics.PervasiveWithScenarios())
	for i := 0; i < n; i++ {
		publishOrder(t, reg, fmt.Sprintf("order-%d", i), 40+float64(5*i))
	}
	mon := monitor.New(qos.StandardSet(), monitor.Options{})
	metrics := obs.NewRegistry()
	tab := NewTable(reg, mon, metrics)
	t.Cleanup(tab.Close)
	return tab, reg, mon, metrics
}

// waitEligible polls until the table goroutine has applied an event. It
// gives up before the first periodic resync could repair a lost one.
func waitEligible(t *testing.T, tab *Table, id registry.ServiceID, want bool) {
	t.Helper()
	deadline := time.Now().Add(resyncInterval / 2)
	for tab.Eligible(id) != want {
		if time.Now().After(deadline) {
			t.Fatalf("Eligible(%s) never became %v", id, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// report feeds n observations of one outcome for a service.
func report(t *testing.T, mon *monitor.Monitor, id registry.ServiceID, success bool, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := mon.Report(monitor.Observation{
			Service: id, Vector: qos.StandardSet().NewVector(), Success: success,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func counter(r *obs.Registry, name string, labels ...string) uint64 {
	if len(labels) == 0 {
		return r.Counter(name, "").Value()
	}
	return r.CounterVec(name, "", "kind").With(labels...).Value()
}

// TestBuildAndLookupOrder checks that Start seeds the table from
// registry truth, and that Extras ranks services published after
// selection by pool score, then ID, within the replacement cap.
func TestBuildAndLookupOrder(t *testing.T) {
	tab, reg, _, _ := fixture(t, 6)
	if tab.Active() || tab.Eligible("order-0") {
		t.Fatal("an unstarted table must be inactive and know no service")
	}
	tab.Start()
	if !tab.Active() {
		t.Fatal("Start must activate the table")
	}
	for i := 0; i < 6; i++ {
		if id := registry.ServiceID(fmt.Sprintf("order-%d", i)); !tab.Eligible(id) {
			t.Errorf("%s should be eligible after the seed", id)
		}
	}
	if tab.Eligible("ghost") {
		t.Error("an unknown service must not be eligible")
	}

	publishOrder(t, reg, "tie-b", 50)
	publishOrder(t, reg, "tie-a", 50)
	cands := reg.Candidates(semantics.OrderItem, qos.StandardSet())
	byID := map[registry.ServiceID]registry.Candidate{}
	for _, c := range cands {
		byID[c.Service.ID] = c
	}
	bound := byID["order-0"]
	alts := []registry.Candidate{byID["order-1"], byID["order-2"]}
	got := Extras(qos.StandardSet(), nil, bound, alts, cands)
	want := []registry.ServiceID{"tie-a", "tie-b", "order-3", "order-4", "order-5"}
	if fmt.Sprint(ids(got)) != fmt.Sprint(want) {
		t.Fatalf("Extras = %v, want %v", ids(got), want)
	}
	// A rotation two short of the cap leaves room for two late services.
	long := make([]registry.Candidate, MaxReplacements-2)
	for i := range long {
		long[i] = alts[i%2]
	}
	if got := Extras(qos.StandardSet(), nil, bound, long, cands); fmt.Sprint(ids(got)) != fmt.Sprint(want[:2]) {
		t.Fatalf("capped Extras = %v, want %v", ids(got), want[:2])
	}
}

func ids(cs []registry.Candidate) []registry.ServiceID {
	out := make([]registry.ServiceID, len(cs))
	for i, c := range cs {
		out[i] = c.Service.ID
	}
	return out
}

// TestWithdrawAndRepublishMaintainLiveBits checks that withdraw and
// republish events flip a known service's live bit in place: no resync,
// no new map.
func TestWithdrawAndRepublishMaintainLiveBits(t *testing.T) {
	tab, reg, _, metrics := fixture(t, 4)
	tab.Start()
	m := tab.view.Load()
	reg.Withdraw("order-1")
	waitEligible(t, tab, "order-1", false)
	if !tab.Eligible("order-2") {
		t.Error("withdrawing order-1 must not touch order-2")
	}
	publishOrder(t, reg, "order-1", 45)
	waitEligible(t, tab, "order-1", true)
	if tab.view.Load() != m {
		t.Error("a withdraw/republish of a known service must not replace the table view")
	}
	if got := counter(metrics, "qasom_subidx_resyncs_total"); got != 1 {
		t.Errorf("resyncs = %d, want only the seed", got)
	}
	if got := counter(metrics, "qasom_subidx_events_total", "withdraw"); got != 1 {
		t.Errorf("withdraw events = %d, want 1", got)
	}
	// A resync drops the cells of withdrawn services.
	reg.Withdraw("order-3")
	tab.Quiesce()
	if v := tab.view.Load(); v.cell("order-3") != nil || v.size() != 3 {
		t.Errorf("after resync: order-3 cell kept or size %d, want 3", v.size())
	}
}

// TestPublishInsertsMatchingService checks that services published after
// Start get cells, kept across the delta's folds into base, and that a
// new cell's healthy bit comes from the monitor.
func TestPublishInsertsMatchingService(t *testing.T) {
	tab, reg, mon, _ := fixture(t, 3)
	tab.Start()
	for i := 0; i < 10; i++ {
		publishOrder(t, reg, fmt.Sprintf("late-%d", i), 30)
	}
	waitEligible(t, tab, "late-9", true)
	for i := 0; i < 10; i++ {
		if id := registry.ServiceID(fmt.Sprintf("late-%d", i)); !tab.Eligible(id) {
			t.Errorf("%s lost its cell", id)
		}
	}
	// A service already failing before it is published joins live but
	// unhealthy.
	report(t, mon, "late-bad", false, 6)
	publishOrder(t, reg, "late-bad", 30)
	deadline := time.Now().Add(resyncInterval / 2)
	c := tab.view.Load().cell("late-bad")
	for c == nil || !c.live.Load() {
		if time.Now().After(deadline) {
			t.Fatal("late-bad never got a live cell")
		}
		time.Sleep(time.Millisecond)
		c = tab.view.Load().cell("late-bad")
	}
	if c.healthy.Load() || tab.Eligible("late-bad") {
		t.Error("a service published while unhealthy must not be eligible")
	}
}

// TestHealthCrossingDemotesWithoutRebuild checks that a success-rate
// crossing flips the healthy bit synchronously — no Quiesce, no resync.
func TestHealthCrossingDemotesWithoutRebuild(t *testing.T) {
	tab, _, mon, metrics := fixture(t, 4)
	tab.Start()
	m := tab.view.Load()
	report(t, mon, "order-1", false, 5)
	if tab.Eligible("order-1") {
		t.Fatal("order-1 should be demoted by the crossing")
	}
	report(t, mon, "order-1", true, 15)
	if !tab.Eligible("order-1") {
		t.Fatal("order-1 should be promoted back by the recovery")
	}
	if tab.view.Load() != m || counter(metrics, "qasom_subidx_resyncs_total") != 1 {
		t.Error("health crossings must not rebuild or resync the table")
	}
	if got := counter(metrics, "qasom_subidx_events_total", "health"); got != 2 {
		t.Errorf("health events = %d, want 2", got)
	}
}

// TestLookupAllocsAndLockFreedom floors the read path: one atomic map
// load and two atomic bit loads, no allocation.
func TestLookupAllocsAndLockFreedom(t *testing.T) {
	tab, _, _, _ := fixture(t, 16)
	tab.Start()
	allocs := testing.AllocsPerRun(1000, func() {
		if !tab.Eligible("order-7") || tab.Eligible("ghost") {
			t.Fatal("unexpected eligibility")
		}
	})
	if allocs != 0 {
		t.Errorf("Eligible allocs = %g, want 0", allocs)
	}
}

// TestStartSubscribesLazilyAndCloseDeactivates checks that an unstarted
// table hears no registry event, and that Close deactivates it for good.
func TestStartSubscribesLazilyAndCloseDeactivates(t *testing.T) {
	tab, reg, _, metrics := fixture(t, 2)
	publishOrder(t, reg, "early", 50)
	reg.Withdraw("early")
	if got := counter(metrics, "qasom_subidx_events_total", "publish") +
		counter(metrics, "qasom_subidx_events_total", "withdraw"); got != 0 {
		t.Fatalf("an unstarted table folded %d events, want 0", got)
	}
	tab.Start()
	tab.Close()
	if tab.Active() {
		t.Fatal("a closed table must be inactive")
	}
	tab.Start()
	tab.Quiesce()
	if tab.Active() {
		t.Fatal("Start after Close must stay a no-op")
	}
}

// TestChurnWhileLookupsRace races registry churn and a monitor storm
// against table reads; after Quiesce every bit matches registry and
// monitor truth.
func TestChurnWhileLookupsRace(t *testing.T) {
	tab, reg, mon, _ := fixture(t, 8)
	tab.Start()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f(i)
			}
		}()
	}
	loop(func(i int) { // churn: withdraw/republish, plus fresh services
		id := registry.ServiceID(fmt.Sprintf("order-%d", 1+i%7))
		switch {
		case i%50 == 0:
			reg.Publish(registry.Description{ID: registry.ServiceID(fmt.Sprintf("fresh-%d", i)),
				Concept: semantics.OrderItem, Offers: testOffers(50)})
		case i%2 == 0:
			reg.Withdraw(id)
		default:
			reg.Publish(registry.Description{ID: id, Concept: semantics.OrderItem, Offers: testOffers(50)})
		}
	})
	loop(func(i int) { // monitor storm
		mon.Report(monitor.Observation{
			Service: registry.ServiceID(fmt.Sprintf("order-%d", i%8)),
			Vector:  qos.StandardSet().NewVector(),
			Success: i%3 != 0,
		})
	})
	loop(func(i int) { // readers
		tab.Eligible(registry.ServiceID(fmt.Sprintf("order-%d", i%8)))
	})
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	tab.Quiesce()
	for _, d := range append(reg.All(), registry.Description{ID: "order-1"}, registry.Description{ID: "gone"}) {
		_, live := reg.Get(d.ID)
		want := live && mon.SuccessRate(d.ID) >= monitor.MinSuccessRate
		if got := tab.Eligible(d.ID); got != want {
			t.Errorf("Eligible(%s) = %v, truth %v", d.ID, got, want)
		}
	}
}
