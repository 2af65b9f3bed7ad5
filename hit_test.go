// Warm plan-cache hit tests: what a hit allocates, and that the
// telemetry it reports (root span, flight record, latency exemplar) is
// complete and shares the hit's three clock readings.
package qasom_test

import (
	"sort"
	"testing"

	"qasom"
	"qasom/internal/obs"
)

// composeHitAllocs is the allocation count of one warm hit through
// Compose, with a hub attached: the root span and its context value,
// the trace ID string, the latency exemplar, the plan key, the core
// request and its constraint slice, the Composition and its adaptation
// runtime. The hit's phases live only in its flight record, which the
// ring keeps without copying (it shares the plan entry's bindings).
const composeHitAllocs = 9

func TestComposeHitAllocs(t *testing.T) {
	mw, err := qasom.New(qasom.Options{Obs: obs.NewHub()})
	if err != nil {
		t.Fatal(err)
	}
	seedMall(t, mw)
	req := qasom.Request{Task: behaviourA,
		Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 300}}}
	if _, err := mw.Compose(req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		c, err := mw.Compose(req)
		if err != nil {
			t.Fatal(err)
		}
		if !c.SelectionStats().CacheHit {
			t.Fatal("warm compose should be a plan-cache hit")
		}
	})
	if allocs > composeHitAllocs {
		t.Errorf("warm hit allocates %.1f objects, ceiling %d", allocs, composeHitAllocs)
	}
}

func TestComposeHitTelemetry(t *testing.T) {
	hub := obs.NewHub()
	mw, err := qasom.New(qasom.Options{Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	seedMall(t, mw)
	req := qasom.Request{Task: behaviourA,
		Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 300}}}
	if _, err := mw.Compose(req); err != nil {
		t.Fatal(err)
	}
	comp, err := mw.Compose(req)
	if err != nil {
		t.Fatal(err)
	}
	if !comp.SelectionStats().CacheHit {
		t.Fatal("second compose should be a plan-cache hit")
	}

	spans := hub.Tracer.Snapshot()
	root := spans[len(spans)-1]
	if root.Name != "compose" || root.TraceID == "" {
		t.Fatalf("last root span = %q (trace %q), want a traced compose", root.Name, root.TraceID)
	}
	if len(root.Children) != 0 || root.Dropped != 0 {
		t.Fatalf("hit root children = %+v, want none: the flight record holds the phases", root.Children)
	}

	recs := hub.Flight.Snapshot(obs.FlightQuery{})
	rec := recs[len(recs)-1]
	if rec.Kind != "compose" || !rec.CacheHit || rec.CacheMiss != "" {
		t.Fatalf("hit flight record kind %q hit %v miss %q", rec.Kind, rec.CacheHit, rec.CacheMiss)
	}
	if rec.TraceID != root.TraceID {
		t.Errorf("flight record trace %s, root span trace %s", rec.TraceID, root.TraceID)
	}
	if !rec.Start.Equal(root.Start) || rec.Duration != root.Duration {
		t.Errorf("flight record [%v +%v], root span [%v +%v]", rec.Start, rec.Duration, root.Start, root.Duration)
	}
	if rec.Phases.Resolve <= 0 || rec.Phases.Resolve > rec.Duration {
		t.Errorf("Phases.Resolve %v outside (0, %v]", rec.Phases.Resolve, rec.Duration)
	}
	if rec.Phases.Lookup != 0 || rec.Phases.Local != 0 || rec.Phases.Global != 0 {
		t.Errorf("a hit ran no selection phase, record has %+v", rec.Phases)
	}
	bindings := comp.Bindings()
	if len(rec.Bindings) != len(bindings) {
		t.Fatalf("flight record has %d bindings, composition %d", len(rec.Bindings), len(bindings))
	}
	acts := make([]string, 0, len(rec.Bindings))
	for _, b := range rec.Bindings {
		if bindings[b.Activity] != b.Service {
			t.Errorf("flight record binds %s to %s, composition to %s", b.Activity, b.Service, bindings[b.Activity])
		}
		acts = append(acts, b.Activity)
	}
	if !sort.StringsAreSorted(acts) {
		t.Errorf("flight record bindings not in activity order: %v", acts)
	}

	ex, ok := hub.Metrics.Histogram("qasom_compose_seconds", "", nil).Exemplar()
	if !ok {
		t.Fatal("qasom_compose_seconds has no exemplar")
	}
	if ex.TraceID != root.TraceID {
		t.Errorf("exemplar trace %s, root span trace %s", ex.TraceID, root.TraceID)
	}
	if ex.Value != rec.Duration.Seconds() || !ex.Time.Equal(root.Start.Add(root.Duration)) {
		t.Errorf("exemplar %v at %v, want %v at the root span's end %v",
			ex.Value, ex.Time, rec.Duration.Seconds(), root.Start.Add(root.Duration))
	}
}
