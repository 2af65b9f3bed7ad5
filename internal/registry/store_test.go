// Tests for the multi-tenant store: the candidate differential against
// a reference scan, pinned to recorded candidates and epoch values, tenant
// isolation, watch-event hygiene and drop accounting, and the raced
// epoch-monotonicity differential the CI quick gate runs under -race.
package registry

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/semantics"
)

// TestDifferentialIndexedCandidates drives one deterministic
// publish/withdraw/re-publish sequence into a store and demands that
// every lookup, mid-sequence and at the end, returns what
// referenceCandidates finds by scanning All(): a re-publish under a new
// capability must leave no stale filing behind. The end state is also
// pinned to literals: per-key bump counts are a function of the
// operation sequence alone, never of how the store lays out its locks,
// so a change to the write path must reproduce them exactly.
func TestDifferentialIndexedCandidates(t *testing.T) {
	onto := semantics.PervasiveWithScenarios()
	ps := qos.StandardSet()
	concepts := []semantics.ConceptID{
		semantics.BookSale, semantics.CDSale, semantics.NotifyService, semantics.CardPayment,
	}
	r := NewStore(onto, StoreOptions{}).Tenant(DefaultTenant)
	lookup := func(c semantics.ConceptID) []Candidate {
		t.Helper()
		got := r.Candidates(c, ps)
		if err := sameCandidates(got, referenceCandidates(onto, r.All(), c, ps)); err != nil {
			t.Fatalf("Candidates(%s): %v", c, err)
		}
		return got
	}

	// Deterministic churn: publishes, interleaved lookups (so filings
	// are read between mutations), withdrawals and capability moves.
	rnd := uint64(12345)
	next := func(n int) int {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		return int(rnd>>33) % n
	}
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("svc-%03d", next(120))
		switch next(10) {
		case 0, 1: // withdraw (may be a no-op)
			r.Withdraw(ServiceID(id))
		case 2: // mid-sequence lookup reads the incrementally kept filings
			lookup(concepts[next(len(concepts))])
		default:
			d := Description{
				ID:      ServiceID(id),
				Concept: concepts[next(len(concepts))],
				Offers:  stdOffers(40+float64(next(60)), 5, 0.95, 0.9, 40),
			}
			if err := r.Publish(d); err != nil {
				t.Fatal(err)
			}
		}
	}

	lookups := []semantics.ConceptID{
		semantics.BookSale, semantics.CDSale, semantics.MediaSale,
		semantics.ShoppingService, semantics.NotifyService,
		semantics.CardPayment, "NoSuchConcept",
	}
	// Recorded from the sequence above; MediaSale and ShoppingService
	// are ancestors, so their lists are unions of their descendants'.
	book := []string{"svc-003", "svc-009", "svc-010", "svc-022", "svc-033", "svc-035",
		"svc-039", "svc-040", "svc-041", "svc-068", "svc-070", "svc-072", "svc-080",
		"svc-082", "svc-096", "svc-099", "svc-104", "svc-108"}
	cd := []string{"svc-000", "svc-001", "svc-014", "svc-021", "svc-025", "svc-030",
		"svc-042", "svc-045", "svc-046", "svc-048", "svc-053", "svc-055", "svc-056",
		"svc-058", "svc-074", "svc-077", "svc-078", "svc-081", "svc-102", "svc-103",
		"svc-106", "svc-112", "svc-114"}
	shopping := []string{"svc-000", "svc-001", "svc-003", "svc-009", "svc-010", "svc-014",
		"svc-021", "svc-022", "svc-025", "svc-030", "svc-033", "svc-035", "svc-039",
		"svc-040", "svc-041", "svc-042", "svc-045", "svc-046", "svc-048", "svc-053",
		"svc-055", "svc-056", "svc-058", "svc-068", "svc-070", "svc-072", "svc-074",
		"svc-077", "svc-078", "svc-080", "svc-081", "svc-082", "svc-096", "svc-099",
		"svc-102", "svc-103", "svc-104", "svc-106", "svc-108", "svc-112", "svc-114"}
	notify := []string{"svc-004", "svc-023", "svc-034", "svc-049", "svc-067", "svc-073",
		"svc-075", "svc-079", "svc-088", "svc-090", "svc-092", "svc-095", "svc-107",
		"svc-110"}
	card := []string{"svc-002", "svc-005", "svc-006", "svc-008", "svc-011", "svc-013",
		"svc-027", "svc-032", "svc-051", "svc-054", "svc-063", "svc-064", "svc-071",
		"svc-076", "svc-084", "svc-085", "svc-086", "svc-087", "svc-093", "svc-097",
		"svc-105", "svc-113", "svc-117", "svc-118"}
	wantIDs := map[semantics.ConceptID][]string{
		semantics.BookSale: book, semantics.CDSale: cd, semantics.MediaSale: cd,
		semantics.ShoppingService: shopping, semantics.NotifyService: notify,
		semantics.CardPayment: card, "NoSuchConcept": {},
	}
	// One epoch per lookup concept, then the ontology version.
	wantEpochs := []uint64{86, 85, 85, 171, 76, 86, 0, 184}
	const wantLen = 79

	if r.Len() != wantLen {
		t.Errorf("Len = %d, want %d", r.Len(), wantLen)
	}
	for _, c := range lookups {
		got := candidateIDs(lookup(c))
		if fmt.Sprint(got) != fmt.Sprint(wantIDs[c]) {
			t.Errorf("Candidates(%s) = %v, want %v", c, got, wantIDs[c])
		}
	}
	if got := r.CapabilityEpochs(nil, lookups...); fmt.Sprint(got) != fmt.Sprint(wantEpochs) {
		t.Errorf("CapabilityEpochs = %v, want %v", got, wantEpochs)
	}
}

func TestTenantIsolation(t *testing.T) {
	store := NewStore(semantics.PervasiveWithScenarios(), StoreOptions{})
	a, b := store.Tenant("env-a"), store.Tenant("env-b")
	ps := qos.StandardSet()

	// The same service ID in two tenants is two independent services.
	if err := a.Publish(bookService("s1", 40)); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(bookService("s1", 90)); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("Len: a=%d b=%d", a.Len(), b.Len())
	}
	da, _ := a.Get("s1")
	db, _ := b.Get("s1")
	if da.Offers[0].Value != 40 || db.Offers[0].Value != 90 {
		t.Fatalf("tenants share a description: a=%v b=%v", da.Offers[0].Value, db.Offers[0].Value)
	}

	// Lookups never cross the tenant boundary.
	if got := b.Candidates(semantics.BookSale, ps); len(got) != 1 || got[0].Service.Offers[0].Value != 90 {
		t.Fatalf("tenant-b lookup leaked: %+v", got)
	}

	// Churn in one tenant must not move the other's capability epochs.
	beforeA := a.CapabilityEpochs(nil, semantics.BookSale, semantics.ShoppingService)
	for i := 0; i < 5; i++ {
		if err := b.Publish(bookService(fmt.Sprintf("churn-%d", i), 50)); err != nil {
			t.Fatal(err)
		}
		b.Withdraw(ServiceID(fmt.Sprintf("churn-%d", i)))
	}
	if afterA := a.CapabilityEpochs(nil, semantics.BookSale, semantics.ShoppingService); fmt.Sprint(afterA) != fmt.Sprint(beforeA) {
		t.Errorf("tenant-b churn moved tenant-a epochs: %v -> %v", beforeA, afterA)
	}

	// Withdraw is tenant-scoped.
	if !a.Withdraw("s1") || b.Len() != 1 {
		t.Error("withdraw crossed the tenant boundary")
	}
	if _, ok := b.Get("s1"); !ok {
		t.Error("tenant-b lost its service to a tenant-a withdraw")
	}
}

// TestDifferentialEpochMonotonicityRaced churns two tenants from
// multiple goroutines while samplers assert that every capability-epoch
// position is non-decreasing across snapshots (lock-free reads must
// never observe a counter going backwards) and that an idle tenant's
// epochs never move at all. Run under -race by the CI quick gate.
func TestDifferentialEpochMonotonicityRaced(t *testing.T) {
	store := NewStore(semantics.PervasiveWithScenarios(), StoreOptions{})
	concepts := []semantics.ConceptID{
		semantics.CDSale, semantics.MediaSale, semantics.ShoppingService,
		semantics.BookSale, semantics.CardPayment,
	}
	churnConcepts := []semantics.ConceptID{semantics.CDSale, semantics.BookSale, semantics.CardPayment}
	tenants := []TenantID{"env-a", "env-b"}

	stop := make(chan struct{})
	var churnWG, sampleWG sync.WaitGroup
	for _, tenant := range tenants {
		for g := 0; g < 2; g++ {
			churnWG.Add(1)
			go func(r *Registry, g int) {
				defer churnWG.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					id := fmt.Sprintf("g%d-s%d", g, i%16)
					d := Description{
						ID:      ServiceID(id),
						Concept: churnConcepts[(g+i)%len(churnConcepts)],
						Offers:  stdOffers(40+float64(i%20), 5, 0.95, 0.9, 40),
					}
					if err := r.Publish(d); err != nil {
						t.Error(err)
						return
					}
					if i%3 == 0 {
						r.Withdraw(ServiceID(id))
					}
				}
			}(store.Tenant(tenant), g)
		}
	}

	var sampled atomic.Int64
	for _, tenant := range tenants {
		sampleWG.Add(1)
		go func(r *Registry) {
			defer sampleWG.Done()
			prev := r.CapabilityEpochs(nil, concepts...)
			buf := make([]uint64, 0, len(concepts)+1)
			for n := 0; n < 2000; n++ {
				buf = r.CapabilityEpochs(buf, concepts...)
				for i := range buf {
					if buf[i] < prev[i] {
						t.Errorf("epoch position %d went backwards: %d -> %d", i, prev[i], buf[i])
						return
					}
				}
				prev = append(prev[:0], buf...)
				sampled.Add(1)
			}
		}(store.Tenant(tenant))
	}
	// The idle tenant shares the store (and its entry maps) with the
	// churners but must observe frozen epochs.
	idle := store.Tenant("env-idle")
	idleBefore := idle.CapabilityEpochs(nil, concepts...)
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		for n := 0; n < 2000; n++ {
			got := idle.CapabilityEpochs(nil, concepts...)
			if fmt.Sprint(got) != fmt.Sprint(idleBefore) {
				t.Errorf("idle tenant's epochs moved under foreign churn: %v -> %v", idleBefore, got)
				return
			}
		}
	}()
	sampleWG.Wait()
	close(stop)
	churnWG.Wait()
	if sampled.Load() == 0 {
		t.Fatal("samplers never ran")
	}
}

// TestShardTelemetry checks the store's write telemetry: the mutation
// counter and contended-lock-wait histogram register, the mutation
// count equals the operations applied, and a lookup that waits for the
// write lock (to rebuild a list a publish cleared, or to refile the
// store after an ontology change) counts as one contended wait.
func TestShardTelemetry(t *testing.T) {
	o := obs.NewRegistry()
	onto := semantics.PervasiveWithScenarios()
	store := NewStore(onto, StoreOptions{Obs: o})
	r := store.Tenant(DefaultTenant)
	const ops = 20
	for i := 0; i < ops; i++ {
		if err := r.Publish(bookService(fmt.Sprintf("s%d", i), 40)); err != nil {
			t.Fatal(err)
		}
	}
	var mutations float64
	var lockWaits uint64
	sawLockWait := false
	read := func() {
		mutations, lockWaits = 0, 0
		for _, m := range o.Snapshot() {
			switch m.Name {
			case "qasom_registry_mutations_total":
				for _, s := range m.Series {
					mutations += s.Value
				}
			case "qasom_registry_lock_wait_seconds":
				sawLockWait = true
				for _, s := range m.Series {
					lockWaits += s.Histogram.Count
				}
			}
		}
	}
	read()
	if mutations != ops {
		t.Errorf("mutation counter = %g, want %d", mutations, ops)
	}
	if !sawLockWait {
		t.Fatal("lock-wait histogram not registered")
	}
	if lockWaits != 0 {
		t.Errorf("uncontended publishes counted %d lock waits", lockWaits)
	}

	// blockedLookup holds the write lock while a lookup starts and lets
	// it go once the lookup waits for it.
	ps := qos.StandardSet()
	blockedLookup := func(step string) {
		t.Helper()
		store.mu.Lock()
		done := make(chan int)
		go func() { done <- len(r.Candidates(semantics.BookSale, ps)) }()
		for deadline := time.Now().Add(10 * time.Second); !lockWaiter(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				store.mu.Unlock()
				t.Fatalf("%s: the lookup never waited for the write lock", step)
			}
		}
		store.mu.Unlock()
		if n := <-done; n != ops {
			t.Fatalf("%s: lookup returned %d candidates, want %d", step, n, ops)
		}
	}
	blockedLookup("list rebuild")
	onto.MustAddConcept("TelemetryConcept", semantics.BookSale)
	blockedLookup("refile")
	read()
	if lockWaits != 2 {
		t.Errorf("lock-wait histogram counted %d waits, want 2 (list rebuild, refile)", lockWaits)
	}
}

// lockWaiter reports whether some goroutine is inside the store, waiting
// in RWMutex.Lock.
func lockWaiter() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "registry.(*Store).") && strings.Contains(g, "sync.(*RWMutex).Lock(") {
			return true
		}
	}
	return false
}

// TestRacedSnapshotReads hammers the lock-free read path (Candidates +
// CapabilityEpochs) against publish/withdraw churn on the same
// capability and asserts readers never observe a torn publish: whenever
// two epoch snapshots bracketing a candidate lookup are equal, the
// candidate set is a function of that epoch alone — a second lookup
// bracketed by the same epoch value must return the identical list.
// This is exactly the stability contract the plan cache builds on. Run
// under -race it also proves the RCU publication discipline.
func TestRacedSnapshotReads(t *testing.T) {
	s := NewStore(semantics.PervasiveWithScenarios(), StoreOptions{})
	r := s.Tenant(DefaultTenant)
	ps := qos.StandardSet()
	for i := 0; i < 4; i++ {
		if err := r.Publish(bookService(fmt.Sprintf("base-%d", i), 20+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the index so readers start on the indexed path.
	if got := candidateIDs(r.Candidates(semantics.BookSale, ps)); len(got) != 4 {
		t.Fatalf("warm lookup returned %v", got)
	}

	stop := make(chan struct{})
	var churners, readers sync.WaitGroup
	for c := 0; c < 2; c++ {
		churners.Add(1)
		go func(c int) {
			defer churners.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("churn-%d-%d", c, i%3)
				_ = r.Publish(bookService(id, 30+float64(i%7)))
				r.Withdraw(ServiceID(id))
			}
		}(c)
	}

	var torn atomic.Int32
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 400; i++ {
				e1 := r.CapabilityEpochs(nil, semantics.BookSale)
				ids1 := candidateIDs(r.Candidates(semantics.BookSale, ps))
				e2 := r.CapabilityEpochs(nil, semantics.BookSale)
				// Any individual read must be a consistent set: the four
				// base services exactly once, churners at most once.
				seen := make(map[string]int, len(ids1))
				for _, id := range ids1 {
					seen[id]++
					if seen[id] > 1 {
						torn.Add(1)
						t.Errorf("duplicate candidate %q in %v", id, ids1)
						return
					}
				}
				for b := 0; b < 4; b++ {
					if seen[fmt.Sprintf("base-%d", b)] != 1 {
						torn.Add(1)
						t.Errorf("base service missing from %v", ids1)
						return
					}
				}
				if len(e1) != len(e2) || e1[0] != e2[0] {
					continue // churn landed mid-probe: no stability claim
				}
				// Equal epochs bracketing the lookup: a re-read under the
				// same epoch must be bit-identical.
				ids2 := candidateIDs(r.Candidates(semantics.BookSale, ps))
				e3 := r.CapabilityEpochs(nil, semantics.BookSale)
				if e3[0] != e1[0] {
					continue
				}
				if len(ids1) != len(ids2) {
					torn.Add(1)
					t.Errorf("torn read: same epoch %d but %v != %v", e1[0], ids1, ids2)
					return
				}
				for j := range ids1 {
					if ids1[j] != ids2[j] {
						torn.Add(1)
						t.Errorf("torn read: same epoch %d but %v != %v", e1[0], ids1, ids2)
						return
					}
				}
			}
		}()
	}
	// Churn runs for the readers' whole duration, then drains.
	readers.Wait()
	close(stop)
	churners.Wait()
	if torn.Load() != 0 {
		t.Fatalf("%d torn reads observed", torn.Load())
	}
}

// TestRacedFreshKeyVisibility checks that a key whose Publish completed
// before the read began is never invisible (epoch 0, no candidates),
// even while concurrent publishes keep minting brand-new keys and
// rebuilding cached lists under the write lock.
func TestRacedFreshKeyVisibility(t *testing.T) {
	s := NewStore(nil, StoreOptions{})
	r := s.Tenant(DefaultTenant)
	ps := qos.StandardSet()

	stop := make(chan struct{})
	published := make(chan semantics.ConceptID, 64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(published)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Every publish mints a fresh capability key, so new entries
			// appear continuously while the reader rebuilds lists.
			c := semantics.ConceptID(fmt.Sprintf("cap-%d", i))
			d := Description{
				ID:      ServiceID(fmt.Sprintf("svc-%d", i)),
				Concept: c,
				Offers:  stdOffers(40, 5, 0.95, 0.9, 40),
			}
			if err := r.Publish(d); err != nil {
				t.Error(err)
				return
			}
			select {
			case published <- c:
			default: // reader busy: skip, don't stall the merge churn
			}
		}
	}()

	checked := 0
	for c := range published {
		if checked >= 3000 {
			select {
			case <-stop:
			default:
				close(stop)
			}
			continue // drain until the publisher closes the channel
		}
		// Publish(c) happened-before this read: both probes must see it.
		if e := r.CapabilityEpochs(nil, c); e[0] == 0 {
			t.Fatalf("published key %s invisible to CapabilityEpochs", c)
		}
		if got := r.Candidates(c, ps); len(got) == 0 {
			t.Fatalf("published key %s has no candidates", c)
		}
		checked++
	}
	wg.Wait()
	if checked == 0 {
		t.Fatal("reader never ran")
	}
}

// TestRebuildInvalidatesStalePublications checks that a whole-store
// rebuild, which moves no epoch, still drops the cached candidate list:
// after the ontology moves, the lookup sees both services.
func TestRebuildInvalidatesStalePublications(t *testing.T) {
	o := semantics.New("rebuild-race")
	o.MustAddConcept("shop")
	o.MustAddConcept("kiosk") // not yet under "shop"
	s := NewStore(o, StoreOptions{})
	r := s.Tenant(DefaultTenant)
	ps := qos.StandardSet()
	for id, c := range map[string]semantics.ConceptID{"svc-shop": "shop", "svc-kiosk": "kiosk"} {
		d := Description{ID: ServiceID(id), Concept: c, Offers: stdOffers(40, 5, 0.95, 0.9, 40)}
		if err := r.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the index and cache the list for "shop".
	if got := candidateIDs(r.Candidates("shop", ps)); len(got) != 1 || got[0] != "svc-shop" {
		t.Fatalf("warm lookup = %v, want [svc-shop]", got)
	}
	// Moving the ontology (kiosk ⊑ shop) forces a whole-store rebuild on
	// the next lookup: "shop" now also covers svc-kiosk, epochs unmoved.
	o.MustAddConcept("kiosk", "shop")
	if got := candidateIDs(r.Candidates("shop", ps)); len(got) != 2 {
		t.Fatalf("post-rebuild lookup = %v, want both services", got)
	}
}

// TestRacedAliasRetarget races publishes and lookups against an alias
// that keeps moving between two capabilities, so a lookup's whole-store
// refile can land between a publish's closure computation and its
// filing. At every quiescent point each lookup must return what
// referenceCandidates finds by scanning All() under the current
// ontology: a publish filed under a stale closure is missing from its
// new capability's list, whose epoch never moved for it.
func TestRacedAliasRetarget(t *testing.T) {
	const alias = semantics.ConceptID("RetargetSale")
	targets := []semantics.ConceptID{semantics.MediaSale, semantics.BookSale}
	onto := semantics.PervasiveWithScenarios()
	onto.MustAddAlias(alias, targets[0])
	r := NewStore(onto, StoreOptions{}).Tenant(DefaultTenant)
	ps := qos.StandardSet()
	lookups := []semantics.ConceptID{semantics.BookSale, semantics.MediaSale, semantics.CDSale, semantics.ShoppingService}
	published := []semantics.ConceptID{alias, alias, alias, semantics.CDSale}

	deadline := time.Now().Add(2 * time.Second)
	for round := 0; round < 400 && time.Now().Before(deadline); round++ {
		stop := make(chan struct{})
		var reader, writers sync.WaitGroup
		reader.Add(1)
		go func() {
			defer reader.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Candidates(lookups[i%len(lookups)], ps)
			}
		}()
		for g := 0; g < 2; g++ {
			writers.Add(1)
			go func(g int) {
				defer writers.Done()
				for i := 0; i < 8; i++ {
					d := Description{
						ID:      ServiceID(fmt.Sprintf("g%d-s%d", g, (round+i)%12)),
						Concept: published[(g+i)%len(published)],
						Offers:  stdOffers(40+float64(i), 5, 0.95, 0.9, 40),
					}
					if err := r.Publish(d); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		writers.Add(1)
		go func() {
			defer writers.Done()
			if err := onto.AddAlias(alias, targets[(round+1)%len(targets)]); err != nil {
				t.Error(err)
			}
		}()
		writers.Wait()
		close(stop)
		reader.Wait()

		all := r.All()
		for _, c := range lookups {
			if err := sameCandidates(r.Candidates(c, ps), referenceCandidates(onto, all, c, ps)); err != nil {
				t.Fatalf("round %d, Candidates(%s): %v", round, c, err)
			}
		}
	}
}

// TestRacedEpochOrder pins the writer's ordering invariant: a key's
// cached list is nilled before its epoch moves. One writer only
// publishes new services under one key, so epoch E implies at least E
// candidates; a reader that reads the epoch and then looks up must never
// see fewer. With the bump before the nil, a reader between the two
// loads the pre-publish list under the new epoch. That gap is a few
// instructions wide, so the test oversubscribes the CPUs with spinning
// readers: the OS then deschedules the writer at arbitrary points, and
// a swapped order fails here within about a second.
func TestRacedEpochOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const c = semantics.ConceptID("grow")
	ps := qos.StandardSet()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !t.Failed() {
		r := NewStore(nil, StoreOptions{}).Tenant(DefaultTenant)
		stop := make(chan struct{})
		var readers sync.WaitGroup
		for g := 0; g < 6; g++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				var last uint64
				for {
					select {
					case <-stop:
						return
					default:
					}
					// Spin until the writer bumps, then look up at once.
					e := r.CapabilityEpochs(nil, c)[0]
					if e == last {
						continue
					}
					last = e
					if n := len(r.Candidates(c, ps)); uint64(n) < e {
						t.Errorf("epoch %d but %d candidates: a pre-publish list was served", e, n)
						return
					}
				}
			}()
		}
		for i := 0; i < 100; i++ {
			d := Description{
				ID:      ServiceID(fmt.Sprintf("svc-%d", i)),
				Concept: c,
				Offers:  stdOffers(40, 5, 0.95, 0.9, 40),
			}
			if err := r.Publish(d); err != nil {
				t.Error(err)
				break
			}
		}
		close(stop)
		readers.Wait()
	}
}
