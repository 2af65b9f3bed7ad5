package subidx

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"qasom/internal/monitor"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/semantics"
	"qasom/internal/task"
)

// fakeSource is a hand-rolled Source over a fixed snapshot, standing in
// for adapt.Runtime.
type fakeSource struct {
	mu      sync.Mutex
	version uint64
	acts    []*task.Activity
	assign  map[string]registry.Candidate
	alts    map[string][]registry.Candidate
	ps      *qos.PropertySet
}

func (f *fakeSource) SelectionSnapshot() Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	assign := make(map[string]registry.Candidate, len(f.assign))
	for k, v := range f.assign {
		assign[k] = v
	}
	alts := make(map[string][]registry.Candidate, len(f.alts))
	for k, v := range f.alts {
		alts[k] = append([]registry.Candidate(nil), v...)
	}
	return Snapshot{
		Version:    f.version,
		Activities: f.acts,
		Assignment: assign,
		Alternates: alts,
		Properties: f.ps,
	}
}

func (f *fakeSource) SelectionVersion() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.version
}

// commit mirrors the runtime's rotation into the fake source.
func (f *fakeSource) commit(act string, chosen registry.Candidate) registry.Candidate {
	f.mu.Lock()
	defer f.mu.Unlock()
	old := f.assign[act]
	f.assign[act] = chosen
	list := f.alts[act]
	out := list[:0]
	for _, c := range list {
		if c.Service.ID != chosen.Service.ID {
			out = append(out, c)
		}
	}
	if old.Service.ID != "" {
		out = append(out, old)
	}
	f.alts[act] = out
	f.version++
	return old
}

func testOffers(rt float64) []registry.QoSOffer {
	return []registry.QoSOffer{
		{Property: semantics.ResponseTime, Value: rt},
		{Property: semantics.Price, Value: 5},
		{Property: semantics.Availability, Value: 0.95},
		{Property: semantics.Reliability, Value: 0.9},
		{Property: semantics.Throughput, Value: 40},
	}
}

// fixture publishes n order services and wires a tracker + source whose
// activity "order" is bound to order-0 with order-1..n-1 as alternates.
func fixture(t *testing.T, n int, opts Options) (*Tracker, *Index, *fakeSource, *registry.Registry, *monitor.Monitor) {
	t.Helper()
	onto := semantics.PervasiveWithScenarios()
	reg := registry.New(onto)
	ps := qos.StandardSet()
	var cands []registry.Candidate
	for i := 0; i < n; i++ {
		d := registry.Description{
			ID:      registry.ServiceID(fmt.Sprintf("order-%d", i)),
			Concept: semantics.OrderItem,
			Offers:  testOffers(40 + float64(5*i)),
		}
		if err := reg.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range reg.Candidates(semantics.OrderItem, ps) {
		cands = append(cands, c)
	}
	if len(cands) != n {
		t.Fatalf("candidates = %d, want %d", len(cands), n)
	}
	act := &task.Activity{ID: "order", Concept: semantics.OrderItem}
	src := &fakeSource{
		acts:   []*task.Activity{act},
		assign: map[string]registry.Candidate{"order": cands[0]},
		alts:   map[string][]registry.Candidate{"order": cands[1:]},
		ps:     ps,
	}
	mon := monitor.New(ps, monitor.Options{})
	tr := NewTracker(reg, mon, opts)
	t.Cleanup(tr.Close)
	x := tr.Track(src)
	return tr, x, src, reg, mon
}

func ids(reps []Replacement) []registry.ServiceID {
	out := make([]registry.ServiceID, len(reps))
	for i, r := range reps {
		out[i] = r.Service
	}
	return out
}

func TestBuildAndLookupOrder(t *testing.T) {
	_, x, _, _, _ := fixture(t, 4, Options{})
	if x.State() != StateCold {
		t.Fatalf("state before build = %v, want cold", x.State())
	}
	if _, out := x.Lookup("order", nil); out != Cold {
		t.Fatalf("cold lookup outcome = %v, want Cold", out)
	}
	x.BuildNow()
	if x.State() != StateBuilt {
		t.Fatalf("state = %v, want built", x.State())
	}
	cand, out := x.Lookup("order", nil)
	if out != Hit || cand.Service.ID != "order-1" {
		t.Fatalf("lookup = %s/%v, want order-1 hit", cand.Service.ID, out)
	}
	// Exclusion walks down the ranked list in alternate order.
	cand, out = x.Lookup("order", map[registry.ServiceID]bool{"order-1": true})
	if out != Hit || cand.Service.ID != "order-2" {
		t.Fatalf("lookup with exclusion = %s/%v, want order-2 hit", cand.Service.ID, out)
	}
	// Exhaustion when everything is excluded.
	all := map[registry.ServiceID]bool{"order-1": true, "order-2": true, "order-3": true}
	if _, out = x.Lookup("order", all); out != Exhausted {
		t.Fatalf("outcome = %v, want Exhausted", out)
	}
	if _, out = x.Lookup("ghost", nil); out != Exhausted {
		t.Fatalf("unknown activity outcome = %v, want Exhausted", out)
	}
	// Deltas: the bound service is the best responder, so every
	// replacement costs utility.
	for _, r := range x.Replacements("order") {
		if r.DeltaUtility >= 0 {
			t.Errorf("replacement %s delta utility = %g, want < 0", r.Service, r.DeltaUtility)
		}
		if r.DeltaQoS[0] <= 0 {
			t.Errorf("replacement %s rt delta = %g, want > 0", r.Service, r.DeltaQoS[0])
		}
	}
}

func TestWithdrawAndRepublishMaintainLiveBits(t *testing.T) {
	tr, x, _, reg, _ := fixture(t, 4, Options{})
	x.BuildNow()
	reg.Withdraw("order-1")
	tr.Quiesce()
	cand, out := x.Lookup("order", nil)
	if out != Hit || cand.Service.ID != "order-2" {
		t.Fatalf("after withdraw lookup = %s/%v, want order-2", cand.Service.ID, out)
	}
	// Republish revives the service; the refresh re-ranks, but the entry
	// keeps its selection-time slot (rotation order is authoritative).
	if err := reg.Publish(registry.Description{
		ID: "order-1", Concept: semantics.OrderItem, Offers: testOffers(45),
	}); err != nil {
		t.Fatal(err)
	}
	tr.Quiesce()
	cand, out = x.Lookup("order", nil)
	if out != Hit || cand.Service.ID != "order-1" {
		t.Fatalf("after republish lookup = %s/%v, want order-1", cand.Service.ID, out)
	}
}

func TestPublishInsertsMatchingService(t *testing.T) {
	tr, x, _, reg, _ := fixture(t, 3, Options{})
	x.BuildNow()
	before := len(x.Replacements("order"))
	// A brand-new OrderItem provider appears after selection: the
	// refresher inserts it at the tail.
	if err := reg.Publish(registry.Description{
		ID: "late-order", Concept: semantics.OrderItem, Offers: testOffers(30),
	}); err != nil {
		t.Fatal(err)
	}
	tr.Quiesce()
	reps := x.Replacements("order")
	if len(reps) != before+1 {
		t.Fatalf("replacements = %d, want %d", len(reps), before+1)
	}
	last := reps[len(reps)-1]
	if last.Service != "late-order" || !last.Inserted {
		t.Fatalf("tail = %+v, want inserted late-order", last)
	}
	// An unrelated publish changes nothing.
	if err := reg.Publish(registry.Description{
		ID: "printer", Concept: semantics.NotifyService, Offers: testOffers(10),
	}); err != nil {
		t.Fatal(err)
	}
	tr.Quiesce()
	if got := len(x.Replacements("order")); got != before+1 {
		t.Fatalf("after unrelated publish replacements = %d, want %d", got, before+1)
	}
}

func TestHealthCrossingDemotesWithoutRebuild(t *testing.T) {
	_, x, _, _, mon := fixture(t, 4, Options{})
	x.BuildNow()
	builtAt := x.Stats().LastRefresh
	// order-1 starts failing: the success-rate crossing flips the bit
	// synchronously — no Quiesce needed.
	for i := 0; i < 5; i++ {
		if err := mon.Report(monitor.Observation{
			Service: "order-1", Vector: qos.StandardSet().NewVector(), Success: false,
		}); err != nil {
			t.Fatal(err)
		}
	}
	cand, out := x.Lookup("order", nil)
	if out != Hit || cand.Service.ID != "order-2" {
		t.Fatalf("after demotion lookup = %s/%v, want order-2", cand.Service.ID, out)
	}
	if got := x.Stats().LastRefresh; !got.Equal(builtAt) {
		t.Error("health crossing should not trigger a rebuild")
	}
	// Recovery promotes it back.
	for i := 0; i < 15; i++ {
		mon.Report(monitor.Observation{
			Service: "order-1", Vector: qos.StandardSet().NewVector(), Success: true,
		})
	}
	cand, out = x.Lookup("order", nil)
	if out != Hit || cand.Service.ID != "order-1" {
		t.Fatalf("after promotion lookup = %s/%v, want order-1", cand.Service.ID, out)
	}
}

func TestCommitRotatesInLockstep(t *testing.T) {
	_, x, src, _, _ := fixture(t, 4, Options{})
	x.BuildNow()
	// Fail over order-0 → order-1, exactly as adapt commits it.
	chosen, out := x.Lookup("order", map[registry.ServiceID]bool{"order-0": true})
	if out != Hit {
		t.Fatalf("outcome = %v", out)
	}
	old := src.commit("order", chosen)
	x.Commit("order", chosen.Service.ID, old)
	want := []registry.ServiceID{"order-2", "order-3", "order-0"}
	got := ids(x.Replacements("order"))
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rotation = %v, want %v", got, want)
	}
	// Next failover excludes the new binding and picks the next in line.
	cand, out := x.Lookup("order", map[registry.ServiceID]bool{"order-1": true})
	if out != Hit || cand.Service.ID != "order-2" {
		t.Fatalf("second failover = %s/%v, want order-2", cand.Service.ID, out)
	}
	// The displaced binding is eligible again after rotation (a
	// retryable failure does not exclude it permanently).
	cand, out = x.Lookup("order", map[registry.ServiceID]bool{"order-1": true, "order-2": true, "order-3": true})
	if out != Hit || cand.Service.ID != "order-0" {
		t.Fatalf("rotated-out binding = %s/%v, want order-0", cand.Service.ID, out)
	}
}

func TestEvictionDrainsAndExecuteRevives(t *testing.T) {
	tr, x, src, _, _ := fixture(t, 3, Options{MaxTracked: 1})
	x.BuildNow()
	// Tracking a second composition evicts the first (capacity 1).
	other := &fakeSource{
		acts:   src.acts,
		assign: map[string]registry.Candidate{"order": src.assign["order"]},
		alts:   map[string][]registry.Candidate{"order": src.alts["order"]},
		ps:     src.ps,
	}
	y := tr.Track(other)
	if x.State() != StateDrained {
		t.Fatalf("evicted index state = %v, want drained", x.State())
	}
	if _, out := x.Lookup("order", nil); out != Drained {
		t.Fatalf("drained lookup outcome = %v, want Drained", out)
	}
	// Execute-time warmup revives the drained index (and in turn evicts
	// the other one).
	x.BuildNow()
	if x.State() != StateBuilt {
		t.Fatalf("revived state = %v, want built", x.State())
	}
	if _, out := x.Lookup("order", nil); out != Hit {
		t.Fatalf("revived lookup outcome = %v, want Hit", out)
	}
	if y.State() != StateDrained {
		t.Fatalf("other index state = %v, want drained after revival eviction", y.State())
	}
}

func TestStagedBehaviours(t *testing.T) {
	_, x, _, _, _ := fixture(t, 3, Options{})
	key := "b1|"
	staged := &StagedBehaviours{Key: key, Matches: []StagedMatch{{MatchSteps: 7}}}
	var stagings int
	x.SetStager(func() string { return key }, func() *StagedBehaviours {
		stagings++
		return staged
	})
	x.BuildNow()
	if got := x.Staged(key); got == nil || got.Matches[0].MatchSteps != 7 {
		t.Fatalf("staged = %+v, want the staged plan", got)
	}
	if x.Staged("b2|order") != nil {
		t.Error("a moved frontier must not serve stale staged plans")
	}
	if stagings != 1 {
		t.Errorf("stagings = %d, want 1", stagings)
	}
}

func TestRebuildDiscardsStaleSnapshot(t *testing.T) {
	_, x, src, _, _ := fixture(t, 4, Options{})
	x.BuildNow()
	// Simulate a commit racing a rebuild: bump the version after the
	// snapshot is taken by rebuilding from a stale copy.
	snap := src.SelectionSnapshot()
	src.mu.Lock()
	src.version++
	src.mu.Unlock()
	stale := &fakeSource{acts: snap.Activities, assign: snap.Assignment, alts: snap.Alternates, ps: snap.Properties}
	_ = stale // the version check lives in rebuild; exercise it directly:
	if x.rebuild(nil, nil) {
		// rebuild re-snapshots, so with a self-consistent source it
		// succeeds; force the race instead via a version-bumping source.
		t.Log("self-consistent rebuild succeeded (expected)")
	}
	if !x.dirty.Load() {
		// The successful rebuild cleared dirty; now force a mid-build bump.
		bump := &bumpingSource{fakeSource: src}
		x.src = bump
		if x.rebuild(nil, nil) {
			t.Fatal("rebuild with a mid-build version bump must be discarded")
		}
		if !x.dirty.Load() {
			t.Fatal("discarded rebuild must leave the index dirty")
		}
		x.src = src
	}
}

// bumpingSource bumps its version on every snapshot, so every rebuild
// observes a racing commit.
type bumpingSource struct {
	*fakeSource
}

func (b *bumpingSource) SelectionSnapshot() Snapshot {
	s := b.fakeSource.SelectionSnapshot()
	b.fakeSource.mu.Lock()
	b.fakeSource.version++
	b.fakeSource.mu.Unlock()
	return s
}

func TestLookupAllocsAndLockFreedom(t *testing.T) {
	_, x, _, _, _ := fixture(t, 16, Options{})
	x.BuildNow()
	exclude := map[registry.ServiceID]bool{"order-1": true, "order-2": true}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, out := x.Lookup("order", exclude); out != Hit {
			t.Fatal("lookup must hit")
		}
	})
	if allocs != 0 {
		t.Errorf("Lookup allocs = %g, want 0", allocs)
	}
}

func TestChurnWhileLookupsRace(t *testing.T) {
	tr, x, src, reg, mon := fixture(t, 8, Options{RefreshInterval: 5 * time.Millisecond})
	x.BuildNow()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // churn publisher/withdrawer
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := registry.ServiceID(fmt.Sprintf("order-%d", 1+i%7))
			if i%2 == 0 {
				reg.Withdraw(id)
			} else {
				reg.Publish(registry.Description{ID: id, Concept: semantics.OrderItem, Offers: testOffers(50)})
			}
		}
	}()
	go func() { // monitor storm
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mon.Report(monitor.Observation{
				Service: registry.ServiceID(fmt.Sprintf("order-%d", i%8)),
				Vector:  src.ps.NewVector(),
				Success: i%3 != 0,
			})
		}
	}()
	go func() { // failover commits
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			src.mu.Lock()
			bound := src.assign["order"].Service.ID
			src.mu.Unlock()
			cand, out := x.Lookup("order", map[registry.ServiceID]bool{bound: true})
			if out == Hit {
				old := src.commit("order", cand)
				x.Commit("order", cand.Service.ID, old)
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	tr.Quiesce()
	// After the dust settles the index mirrors the source's rotation
	// order exactly.
	snap := src.SelectionSnapshot()
	want := make([]registry.ServiceID, 0, len(snap.Alternates["order"]))
	for _, c := range snap.Alternates["order"] {
		want = append(want, c.Service.ID)
	}
	got := ids(x.Replacements("order"))
	// Inserted tail entries (republished services) may extend the list;
	// the selection-order prefix must match.
	if len(got) < len(want) {
		t.Fatalf("index has %d entries, source has %d alternates", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation order diverged at %d: index %v, source %v", i, got, want)
		}
	}
}
