package obs

import (
	"fmt"
	"sync"
	"time"
)

// SLOConfig describes one service-level objective over a request
// stream: an availability target, an optional per-request latency
// objective, and the rolling windows burn rates are computed over.
type SLOConfig struct {
	// Name labels the objective in metrics ("serving" when empty).
	Name string
	// Availability is the target success fraction in (0,1), e.g. 0.999;
	// 0 means 0.999. The error budget is 1 − Availability.
	Availability float64
	// LatencyObjective, when > 0, makes a request bad when it exceeds
	// this duration even if it succeeded (the "p99 < 250µs" style
	// objective: attainment is the fraction of requests within the
	// objective, so holding it at the availability target bounds the
	// tail quantile).
	LatencyObjective time.Duration
	// Windows are the rolling windows, shortest first; nil means
	// {1m, 5m, 1h}. The shortest window drives FastBurn. Granularity is
	// one second; windows shorter than a second are rounded up.
	Windows []time.Duration
	// FastBurnThreshold is the burn rate over the shortest window at
	// which FastBurn trips (and /healthz degrades to 503); 0 means 14 —
	// the classic "2% of a 30-day budget in an hour" fast-burn alarm
	// rate, scaled to whatever windows are configured.
	FastBurnThreshold float64
	// Clock overrides time.Now (test seam).
	Clock func() time.Time
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Name == "" {
		c.Name = "serving"
	}
	if c.Availability <= 0 || c.Availability >= 1 {
		c.Availability = 0.999
	}
	if len(c.Windows) == 0 {
		c.Windows = []time.Duration{time.Minute, 5 * time.Minute, time.Hour}
	}
	if c.FastBurnThreshold <= 0 {
		c.FastBurnThreshold = 14
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// sloBucket counts the requests of one wall-clock second. sec stamps
// the second the slot holds, so a slot left over from an earlier lap of
// the ring reads as empty without anything having to zero it.
type sloBucket struct {
	sec        int64
	total, bad uint64
}

// SLOEngine tracks one SLO over a ring of per-second buckets sized to
// the longest window. Observe only bumps the current second's bucket;
// burn rates are computed when read (BurnRate, FastBurn, Status and the
// qasom_slo_burn_rate gauges at scrape time):
//
//	burn = (bad requests / total requests in window) / (1 − target)
//
// A burn rate of 1 consumes the error budget exactly at the rate the
// objective allows; the fast-burn alarm trips when the shortest window
// burns at FastBurnThreshold× that rate. All methods are nil-safe and
// safe for concurrent use.
type SLOEngine struct {
	cfg    SLOConfig
	budget float64

	mu      sync.Mutex
	buckets []sloBucket // slot sec % len(buckets) holds second sec
	total   uint64
	bad     uint64

	reqs *Counter
	bads *Counter
}

// NewSLOEngine creates an engine for cfg, registering its gauges and
// counters in r (nil r skips metrics):
//
//	qasom_slo_burn_rate{slo,window}  multi-window burn rates, computed per scrape
//	qasom_slo_requests_total{slo}    requests observed
//	qasom_slo_bad_total{slo}         requests outside the objective
func NewSLOEngine(cfg SLOConfig, r *Registry) *SLOEngine {
	cfg = cfg.withDefaults()
	longest := cfg.Windows[0]
	for _, w := range cfg.Windows {
		if w > longest {
			longest = w
		}
	}
	e := &SLOEngine{
		cfg:     cfg,
		budget:  1 - cfg.Availability,
		buckets: make([]sloBucket, max(windowSeconds(longest), 1)),
	}
	if r != nil {
		burn := r.GaugeVec("qasom_slo_burn_rate",
			"Error-budget burn rate per rolling window (1 = burning exactly at the objective's rate).",
			"slo", "window")
		for _, w := range cfg.Windows {
			burn.With(cfg.Name, w.String()).SetFunc(func() float64 { return e.BurnRate(w) })
		}
		e.reqs = r.CounterVec("qasom_slo_requests_total",
			"Requests observed by the SLO engine.", "slo").With(cfg.Name)
		e.bads = r.CounterVec("qasom_slo_bad_total",
			"Requests outside the SLO (failed, or over the latency objective).", "slo").With(cfg.Name)
	}
	return e
}

// Config returns the engine's effective (defaulted) configuration.
func (e *SLOEngine) Config() SLOConfig { return e.cfg }

// windowSeconds is w in whole seconds, rounded up.
func windowSeconds(w time.Duration) int {
	return int((w + time.Second - 1) / time.Second)
}

// slot returns the ring bucket for unix second sec. Caller holds e.mu.
func (e *SLOEngine) slot(sec int64) *sloBucket {
	n := int64(len(e.buckets))
	return &e.buckets[(sec%n+n)%n]
}

// Observe records one request outcome: err non-nil, or a duration over
// the latency objective, consumes error budget.
func (e *SLOEngine) Observe(d time.Duration, err error) {
	if e == nil {
		return
	}
	isBad := err != nil || (e.cfg.LatencyObjective > 0 && d > e.cfg.LatencyObjective)
	now := e.cfg.Clock().Unix()
	e.mu.Lock()
	b := e.slot(now)
	if b.sec != now {
		*b = sloBucket{sec: now}
	}
	b.total++
	e.total++
	if isBad {
		b.bad++
		e.bad++
	}
	e.mu.Unlock()
	e.reqs.Inc()
	if isBad {
		e.bads.Inc()
	}
}

// BurnRate returns the burn rate over the trailing window (0 when the
// window holds no requests).
func (e *SLOEngine) BurnRate(w time.Duration) float64 {
	if e == nil {
		return 0
	}
	now := e.cfg.Clock().Unix()
	n := min(windowSeconds(w), len(e.buckets))
	var total, bad uint64
	e.mu.Lock()
	for sec := now - int64(n) + 1; sec <= now; sec++ {
		if b := e.slot(sec); b.sec == sec {
			total += b.total
			bad += b.bad
		}
	}
	e.mu.Unlock()
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / e.budget
}

// FastBurn reports whether the shortest window is burning budget at or
// beyond the fast-burn threshold — the signal /healthz degrades on.
func (e *SLOEngine) FastBurn() bool {
	if e == nil {
		return false
	}
	return e.BurnRate(e.cfg.Windows[0]) >= e.cfg.FastBurnThreshold
}

// Attainment returns the fraction of every request ever observed that
// met the objective (1 when nothing was observed) — the number BENCH
// runs report as "SLO attainment".
func (e *SLOEngine) Attainment() float64 {
	if e == nil {
		return 1
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.total == 0 {
		return 1
	}
	return 1 - float64(e.bad)/float64(e.total)
}

// Status summarises the engine for /healthz bodies.
func (e *SLOEngine) Status() string {
	if e == nil {
		return "ok"
	}
	short := e.cfg.Windows[0]
	return fmt.Sprintf("slo=%s target=%g burn[%s]=%.2f fast_burn=%v",
		e.cfg.Name, e.cfg.Availability, short, e.BurnRate(short), e.FastBurn())
}
