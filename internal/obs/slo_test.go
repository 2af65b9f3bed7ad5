package obs

import (
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sloClock is a manual clock for driving the per-second bucket ring.
type sloClock struct{ now time.Time }

func (c *sloClock) Now() time.Time          { return c.now }
func (c *sloClock) advance(d time.Duration) { c.now = c.now.Add(d) }

func approxEq(got, want float64) bool {
	d := got - want
	return d < 1e-9 && d > -1e-9
}

func newTestSLO(t *testing.T, cfg SLOConfig, r *Registry) (*SLOEngine, *sloClock) {
	t.Helper()
	clk := &sloClock{now: time.Unix(1_000_000, 0)}
	cfg.Clock = clk.Now
	return NewSLOEngine(cfg, r), clk
}

func TestSLOConfigDefaults(t *testing.T) {
	e, _ := newTestSLO(t, SLOConfig{}, nil)
	cfg := e.Config()
	if cfg.Name != "serving" || cfg.Availability != 0.999 || cfg.FastBurnThreshold != 14 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if len(cfg.Windows) != 3 || cfg.Windows[0] != time.Minute {
		t.Fatalf("default windows: %v", cfg.Windows)
	}
}

func TestSLOBurnRateWindows(t *testing.T) {
	// 10% error budget so rates are round numbers.
	e, clk := newTestSLO(t, SLOConfig{
		Availability: 0.9,
		Windows:      []time.Duration{10 * time.Second, 100 * time.Second},
	}, nil)

	// Second 0: 5 bad of 10 → 50% bad → burn 5 in both windows.
	for i := 0; i < 10; i++ {
		var err error
		if i < 5 {
			err = errors.New("boom")
		}
		e.Observe(time.Millisecond, err)
	}
	if got := e.BurnRate(10 * time.Second); !approxEq(got, 5) {
		t.Fatalf("short-window burn = %g, want 5", got)
	}
	if got := e.BurnRate(100 * time.Second); !approxEq(got, 5) {
		t.Fatalf("long-window burn = %g, want 5", got)
	}

	// 30s later: 10 good requests. The short window has rolled past the
	// bad second (burn 0); the long window still remembers it (5 bad of
	// 20 total → 25% bad → burn 2.5).
	clk.advance(30 * time.Second)
	for i := 0; i < 10; i++ {
		e.Observe(time.Millisecond, nil)
	}
	if got := e.BurnRate(10 * time.Second); got != 0 {
		t.Fatalf("short-window burn after roll = %g, want 0", got)
	}
	if got := e.BurnRate(100 * time.Second); !approxEq(got, 2.5) {
		t.Fatalf("long-window burn after roll = %g, want 2.5", got)
	}

	// A gap longer than the whole ring resets every window.
	clk.advance(200 * time.Second)
	if got := e.BurnRate(100 * time.Second); got != 0 {
		t.Fatalf("burn after full-ring gap = %g, want 0", got)
	}
}

func TestSLOLatencyObjective(t *testing.T) {
	e, _ := newTestSLO(t, SLOConfig{
		Availability:     0.9,
		LatencyObjective: 100 * time.Millisecond,
		Windows:          []time.Duration{10 * time.Second},
	}, nil)
	e.Observe(50*time.Millisecond, nil)  // good
	e.Observe(500*time.Millisecond, nil) // slow = bad, despite nil error
	if got := e.Attainment(); got != 0.5 {
		t.Fatalf("attainment = %g, want 0.5", got)
	}
}

func TestSLOAttainmentLifetime(t *testing.T) {
	e, clk := newTestSLO(t, SLOConfig{
		Availability: 0.9,
		Windows:      []time.Duration{time.Second},
	}, nil)
	if got := e.Attainment(); got != 1 {
		t.Fatalf("empty attainment = %g, want 1", got)
	}
	for i := 0; i < 8; i++ {
		e.Observe(time.Millisecond, nil)
	}
	e.Observe(time.Millisecond, errors.New("x"))
	e.Observe(time.Millisecond, errors.New("y"))
	// Attainment is lifetime, not windowed: rolling far forward must not
	// erase it.
	clk.advance(time.Hour)
	if got := e.Attainment(); got != 0.8 {
		t.Fatalf("attainment = %g, want 0.8", got)
	}
	var nilEngine *SLOEngine
	if nilEngine.Attainment() != 1 || nilEngine.FastBurn() || nilEngine.BurnRate(time.Minute) != 0 {
		t.Fatal("nil engine must report a perfect, non-burning SLO")
	}
	nilEngine.Observe(time.Second, nil) // must not panic
}

func TestSLOFastBurnTripsHealthz(t *testing.T) {
	hub := NewHub()
	e, _ := newTestSLO(t, SLOConfig{
		Name:              "serving",
		Availability:      0.99,
		Windows:           []time.Duration{10 * time.Second},
		FastBurnThreshold: 10,
	}, hub.Metrics)
	hub.SLO = e

	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	// Healthy stream: burn 0, /healthz 200.
	for i := 0; i < 20; i++ {
		e.Observe(time.Millisecond, nil)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy /healthz status = %d", resp.StatusCode)
	}

	// 20 bad of 40 → 50% bad / 1% budget = burn 50 ≥ threshold 10.
	for i := 0; i < 20; i++ {
		e.Observe(time.Millisecond, errors.New("down"))
	}
	if !e.FastBurn() {
		t.Fatalf("FastBurn not tripped at burn %g", e.BurnRate(10*time.Second))
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 256)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("burning /healthz status = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body[:n]), "degraded") {
		t.Fatalf("503 body %q does not explain the degradation", body[:n])
	}

	// The burn gauges made it into the registry.
	var sawBurn bool
	for _, fam := range hub.Metrics.Snapshot() {
		if fam.Name == "qasom_slo_burn_rate" {
			sawBurn = true
		}
	}
	if !sawBurn {
		t.Fatal("qasom_slo_burn_rate not registered")
	}
}

// sloRef is the brute-force reference for the bucket ring: it keeps
// every observation's unix second and recounts the raw log per read.
type sloRef struct {
	secs []int64
	bad  []bool
}

func (r *sloRef) burn(now int64, w time.Duration, ringSecs int, budget float64) float64 {
	n := int64(min(windowSeconds(w), ringSecs))
	var total, bad uint64
	for i, sec := range r.secs {
		if sec > now-n && sec <= now {
			total++
			if r.bad[i] {
				bad++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / budget
}

// scrapedBurn reads qasom_slo_burn_rate{slo,window} from the Prometheus
// exposition, the way a scraper sees it.
func scrapedBurn(t *testing.T, r *Registry, slo string, w time.Duration) float64 {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	prefix := `qasom_slo_burn_rate{slo="` + slo + `",window="` + w.String() + `"} `
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("no %s series in exposition", prefix)
	return 0
}

// TestSLODifferentialAgainstLog drives random observation streams (with
// sub-second steps, multi-second pauses and gaps longer than the whole
// ring) and checks every window's BurnRate and scraped gauge against a
// recount of the raw observation log.
func TestSLODifferentialAgainstLog(t *testing.T) {
	windows := []time.Duration{1500 * time.Millisecond, 7 * time.Second, 30 * time.Second}
	const ringSecs = 30
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := NewRegistry()
		e, clk := newTestSLO(t, SLOConfig{Name: "diff", Availability: 0.9, Windows: windows}, reg)
		var ref sloRef
		check := func(step int) {
			now := clk.now.Unix()
			for _, w := range windows {
				want := ref.burn(now, w, ringSecs, 1-e.Config().Availability)
				if got := e.BurnRate(w); got != want {
					t.Fatalf("seed %d step %d window %v: BurnRate = %g, log says %g", seed, step, w, got, want)
				}
				if got := scrapedBurn(t, reg, "diff", w); got != want {
					t.Fatalf("seed %d step %d window %v: scraped burn = %g, log says %g", seed, step, w, got, want)
				}
			}
		}
		for step := 0; step < 400; step++ {
			switch p := rng.Intn(100); {
			case p < 70:
				clk.advance(time.Duration(rng.Intn(300)) * time.Millisecond)
			case p < 95:
				clk.advance(time.Duration(1+rng.Intn(12)) * time.Second)
			default:
				clk.advance(time.Duration(ringSecs+rng.Intn(3*ringSecs)) * time.Second)
			}
			for i := rng.Intn(5); i > 0; i-- {
				bad := rng.Intn(4) == 0
				var err error
				if bad {
					err = errors.New("bad")
				}
				e.Observe(time.Millisecond, err)
				ref.secs = append(ref.secs, clk.now.Unix())
				ref.bad = append(ref.bad, bad)
			}
			if step%7 == 0 {
				check(step)
			}
		}
		check(-1)
		// With the traffic stopped, every window empties and the scraped
		// gauges read 0 instead of holding their last value.
		clk.advance(ringSecs * time.Second)
		for _, w := range windows {
			if got := scrapedBurn(t, reg, "diff", w); got != 0 {
				t.Fatalf("seed %d window %v: scraped burn %g after the window emptied, want 0", seed, w, got)
			}
		}
	}
}

// BenchmarkSLOObserve measures the per-request cost of the SLO engine
// under the default 1m/5m/1h windows with metrics attached, from every
// benchmark goroutine at once (-cpu 1,2 shows the contended cost).
func BenchmarkSLOObserve(b *testing.B) {
	e := NewSLOEngine(SLOConfig{}, NewRegistry())
	boom := errors.New("boom")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			var err error
			if i%100 == 0 {
				err = boom
			}
			e.Observe(time.Millisecond, err)
			i++
		}
	})
}
