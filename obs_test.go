package qasom_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"qasom"
	"qasom/internal/obs"
)

// scrapeValue extracts the value of a label-less metric from a
// Prometheus text exposition; ok is false when the series is absent.
func scrapeValue(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

// TestTelemetryUnderConcurrency drives compositions and executions from
// many goroutines while scraping /metrics and reading span snapshots —
// the race detector checks for torn state, the assertions for monotonic
// counters and a coherent span hierarchy.
func TestTelemetryUnderConcurrency(t *testing.T) {
	hub := obs.NewHub()
	mw, err := qasom.New(qasom.Options{Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	seedMall(t, mw)

	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	const (
		workers   = 4
		perWorker = 5
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				comp, err := mw.ComposeContext(context.Background(), qasom.Request{Task: behaviourA})
				if err != nil {
					errCh <- err
					return
				}
				if _, err := mw.Execute(context.Background(), comp); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}

	// Scrape and read spans concurrently with the pipeline work,
	// asserting counter monotonicity across scrapes.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	prev := -1.0
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatalf("scrape: %v", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("scrape read: %v", err)
		}
		if v, ok := scrapeValue(string(body), "qasom_compose_total"); ok {
			if v < prev {
				t.Fatalf("qasom_compose_total went backwards: %g -> %g", prev, v)
			}
			prev = v
		}
		hub.Tracer.Snapshot() // concurrent span reads must be race-free
	}
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Final scrape: every pipeline stage reported.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	total := float64(workers * perWorker)
	for _, name := range []string{"qasom_compose_total", "qasom_execute_total"} {
		v, ok := scrapeValue(string(body), name)
		if !ok {
			t.Fatalf("metric %s missing from scrape", name)
		}
		if v != total {
			t.Errorf("%s = %g, want %g", name, v, total)
		}
	}
	for _, want := range []string{
		`qasom_compose_phase_seconds_count{phase="lookup"}`,
		`qasom_compose_phase_seconds_count{phase="local"}`,
		`qasom_compose_phase_seconds_count{phase="global"}`,
		"qasom_exec_invocations_total",
		"qasom_monitor_observations_total",
		"qasom_ontology_match_cache_hits",
		"qasom_ontology_memo_evictions",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("scrape missing %s", want)
		}
	}
	// The ontology keeps one memo, for Match; no other reasoning series.
	if strings.Contains(string(body), "qasom_ontology_distance") {
		t.Error("scrape exposes a qasom_ontology_distance series")
	}

	// Span hierarchy: compose roots with the QASSA phases as children.
	spans := hub.Tracer.Snapshot()
	if len(spans) == 0 {
		t.Fatal("tracer recorded no root spans")
	}
	var sawCompose, sawLocalChild bool
	for _, s := range spans {
		if s.Name != "compose" {
			continue
		}
		sawCompose = true
		for _, c := range s.Children {
			if c.Name == "qassa.local" {
				sawLocalChild = true
			}
		}
	}
	if !sawCompose {
		t.Error("no compose root span recorded")
	}
	if !sawLocalChild {
		t.Error("compose spans have no qassa.local child")
	}
}

// seedMall publishes the shopping environment into an existing
// middleware instance (newMall creates its own with default options).
func seedMall(t *testing.T, mw *qasom.Middleware) {
	t.Helper()
	specs := []struct {
		prefix, capability string
	}{
		{"browse", "BrowseCatalog"},
		{"order", "OrderItem"},
		{"pay", "CardPayment"},
		{"fulfil", "Shopping"},
		{"mpay", "MobilePayment"},
	}
	for _, s := range specs {
		for i := 0; i < 4; i++ {
			err := mw.Publish(qasom.Service{
				ID:         s.prefix + "-" + strconv.Itoa(i),
				Capability: s.capability,
				QoS:        stdQoS(40 + float64(5*i)),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := mw.RegisterTaskClass("shopping", behaviourA, behaviourB); err != nil {
		t.Fatal(err)
	}
}

// TestObservabilityAccessorDefaultHub checks that instances without an
// explicit hub share the process-wide default.
func TestObservabilityAccessorDefaultHub(t *testing.T) {
	mw, err := qasom.New()
	if err != nil {
		t.Fatal(err)
	}
	if mw.Observability() != obs.Default() {
		t.Error("nil Options.Obs should mean the process-wide default hub")
	}
	own := obs.NewHub()
	mw2, err := qasom.New(qasom.Options{Obs: own})
	if err != nil {
		t.Fatal(err)
	}
	if mw2.Observability() != own {
		t.Error("explicit hub not returned by Observability")
	}
}
