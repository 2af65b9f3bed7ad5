package obs

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestNewFlightRecorderCapacity(t *testing.T) {
	if got := len(NewFlightRecorder(0).ring); got != DefaultFlightCapacity {
		t.Fatalf("NewFlightRecorder(0) ring = %d, want DefaultFlightCapacity %d",
			got, DefaultFlightCapacity)
	}
	if got := len(NewFlightRecorder(5).ring); got != 5 {
		t.Fatalf("NewFlightRecorder(5) ring = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewFlightRecorder(-1) did not panic")
		}
	}()
	NewFlightRecorder(-1)
}

func TestFlightRecorderRingAndTotal(t *testing.T) {
	f := NewFlightRecorder(3)
	for i := 0; i < 5; i++ {
		f.Record(&RequestRecord{Kind: "compose", Task: fmt.Sprintf("t%d", i)})
	}
	if f.Total() != 5 {
		t.Fatalf("Total = %d, want 5", f.Total())
	}
	recs := f.Snapshot(FlightQuery{})
	if len(recs) != 3 {
		t.Fatalf("retained %d records, want 3", len(recs))
	}
	// Oldest-first of the surviving window.
	for i, want := range []string{"t2", "t3", "t4"} {
		if recs[i].Task != want {
			t.Fatalf("record %d task = %q, want %q", i, recs[i].Task, want)
		}
	}
}

func TestFlightRecorderFilters(t *testing.T) {
	f := NewFlightRecorder(8)
	f.Record(&RequestRecord{Kind: "compose", Tenant: "default", Duration: 5 * time.Millisecond})
	f.Record(&RequestRecord{Kind: "compose", Tenant: "clinic", Duration: 9 * time.Millisecond,
		Degraded: true, DegradedCauses: map[string]string{"pay": "coordinator lost"}})
	f.Record(&RequestRecord{Kind: "compose", Tenant: "clinic", Duration: 2 * time.Millisecond})
	f.Record(&RequestRecord{Kind: "execute", Tenant: "default", Duration: 7 * time.Millisecond})

	if got := f.Snapshot(FlightQuery{TenantSet: true, Tenant: "clinic"}); len(got) != 2 {
		t.Fatalf("tenant filter kept %d records, want 2", len(got))
	}
	// An empty tenant filter is a real filter, not "all".
	if got := f.Snapshot(FlightQuery{TenantSet: true, Tenant: ""}); len(got) != 0 {
		t.Fatalf("empty-tenant filter kept %d records, want 0", len(got))
	}
	deg := f.Snapshot(FlightQuery{Degraded: true})
	if len(deg) != 1 || deg[0].DegradedCauses["pay"] != "coordinator lost" {
		t.Fatalf("degraded filter: %+v", deg)
	}
	slow := f.Snapshot(FlightQuery{Slowest: 2})
	if len(slow) != 2 || slow[0].Duration != 9*time.Millisecond || slow[1].Duration != 7*time.Millisecond {
		t.Fatalf("slowest-2: %+v", slow)
	}
}

// TestFlightRecorderClone checks snapshots never alias ring state:
// mutating a snapshot's maps/slices must not leak into the ring.
func TestFlightRecorderClone(t *testing.T) {
	f := NewFlightRecorder(4)
	f.Record(&RequestRecord{
		Kind:           "compose",
		DegradedCauses: map[string]string{"a": "x"},
		Bindings:       []BindingRecord{{Activity: "a", Service: "s1", Utility: 0.5}},
		Events:         []string{"substitutions=1"},
	})

	snap := f.Snapshot(FlightQuery{})
	snap[0].DegradedCauses["a"] = "poked"
	snap[0].Bindings[0].Service = "poked"
	snap[0].Events[0] = "poked"
	again := f.Snapshot(FlightQuery{})
	if again[0].DegradedCauses["a"] != "x" || again[0].Bindings[0].Service != "s1" || again[0].Events[0] != "substitutions=1" {
		t.Fatalf("snapshot aliased ring state: %+v", again[0])
	}
}

// TestFlightRecorderConcurrent exercises Record/Snapshot/Total from
// many goroutines; run under -race it proves the locking discipline.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f.Record(&RequestRecord{
					Kind:     "compose",
					Tenant:   "default",
					Duration: time.Duration(i) * time.Microsecond,
					Bindings: []BindingRecord{{Activity: "a", Service: "s", Utility: 1}},
				})
			}
		}(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = f.Snapshot(FlightQuery{Slowest: 4})
				_ = f.Total()
			}
		}()
	}
	wg.Wait()
	// Record is drop-don't-block: contended records are counted, not
	// taken, so recorded + dropped must account for every call.
	if got := f.Total() + f.Dropped(); got != 8*200 {
		t.Fatalf("Total+Dropped = %d (%d recorded, %d dropped), want %d",
			got, f.Total(), f.Dropped(), 8*200)
	}
	if f.Total() == 0 {
		t.Fatal("every record was dropped — slot fast path never won")
	}
}

// TestFlightRecorderWritersDontDropEachOther pins the per-slot ring
// guarantee: the ticket counter routes concurrent writers to distinct
// slots, so writer-vs-writer contention cannot drop records — only a
// snapshot holding a slot mid-copy, or a writer lapped by a full ring,
// can. Exactly capacity records means no ticket ever revisits a slot.
func TestFlightRecorderWritersDontDropEachOther(t *testing.T) {
	f := NewFlightRecorder(64)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				f.Record(&RequestRecord{Kind: "compose", Task: fmt.Sprintf("g%d-%d", g, i)})
			}
		}(g)
	}
	wg.Wait()
	if f.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0: concurrent writers dropped each other", f.Dropped())
	}
	if f.Total() != 64 {
		t.Fatalf("Total = %d, want 64", f.Total())
	}
	if got := f.Snapshot(FlightQuery{}); len(got) != 64 {
		t.Fatalf("Snapshot kept %d records, want 64", len(got))
	}
}

// TestFlightRecorderDropsWhenContended pins the drop-don't-block
// contract directly: a held slot lock makes the Record routed to that
// slot drop and count, without touching records bound elsewhere.
func TestFlightRecorderDropsWhenContended(t *testing.T) {
	f := NewFlightRecorder(4)
	f.Record(&RequestRecord{Kind: "compose"}) // ticket 1 → slot 0
	f.ring[1].mu.Lock()                       // ticket 2 lands on slot 1
	f.Record(&RequestRecord{Kind: "compose"})
	f.ring[1].mu.Unlock()
	if f.Total() != 1 || f.Dropped() != 1 {
		t.Fatalf("Total=%d Dropped=%d, want 1 and 1", f.Total(), f.Dropped())
	}
	// Uncontended again: records land.
	f.Record(&RequestRecord{Kind: "compose"})
	if f.Total() != 2 {
		t.Fatalf("Total=%d after uncontended record, want 2", f.Total())
	}
}

// TestDebugRequestsGolden pins the /debug/requests JSON shape (with the
// tenant filter and slowest-N ordering) to a golden file.
func TestDebugRequestsGolden(t *testing.T) {
	hub := &Hub{Metrics: NewRegistry(), Flight: NewFlightRecorder(8)}
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	hub.Flight.Record(&RequestRecord{
		Kind: "compose", TraceID: "00000000000000a1", Tenant: "default",
		Task: "00000000000000f1", Start: base, Duration: 48 * time.Microsecond,
		Phases:   PhaseTimings{Resolve: 3 * time.Microsecond},
		CacheHit: true, Feasible: true, Utility: 0.91,
		Bindings: []BindingRecord{
			{Activity: "browse", Service: "browse-0", Utility: 0.95},
			{Activity: "pay", Service: "pay-2", Utility: 0.88},
		},
	})
	hub.Flight.Record(&RequestRecord{
		Kind: "compose", TraceID: "00000000000000a2", Tenant: "default",
		Task: "00000000000000f1", Start: base.Add(time.Second), Duration: 1900 * time.Microsecond,
		Phases:    PhaseTimings{Resolve: 4 * time.Microsecond, Lookup: 210 * time.Microsecond, Local: 900 * time.Microsecond, Global: 600 * time.Microsecond},
		CacheMiss: "epoch", Degraded: true,
		DegradedCauses: map[string]string{"pay": "coordinator unreachable: connection refused"},
		Fallbacks:      1, Retries: 2, Feasible: true, Utility: 0.87,
		Bindings: []BindingRecord{
			{Activity: "browse", Service: "browse-0", Utility: 0.95},
			{Activity: "pay", Service: "pay-1", Utility: 0.81},
		},
	})
	hub.Flight.Record(&RequestRecord{
		Kind: "compose", TraceID: "00000000000000a3", Tenant: "clinic",
		Task: "00000000000000f2", Start: base.Add(2 * time.Second), Duration: 5 * time.Millisecond,
		CacheMiss: "cold", Feasible: false, Err: "no candidate for activity \"scan\"",
	})
	hub.Flight.Record(&RequestRecord{
		Kind: "execute", TraceID: "00000000000000a2", Tenant: "default",
		Task: "00000000000000f1", Start: base.Add(3 * time.Second), Duration: 800 * time.Microsecond,
		Feasible: true, Events: []string{"invocations=3", "failures=1", "substitutions=1"},
	})

	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()
	got, ct := get(t, srv.URL+"/debug/requests?tenant=default&slowest=2")
	if ct != "application/json" {
		t.Fatalf("/debug/requests content-type = %q", ct)
	}

	path := filepath.Join("testdata", "requests.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("/debug/requests drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
