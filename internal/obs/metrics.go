// Package obs is the middleware's unified telemetry layer (stdlib
// only): a concurrency-safe metrics registry (counters, gauges,
// fixed-bucket latency histograms with quantile snapshots), lightweight
// span tracing carried through context.Context, and an HTTP debug
// server exposing /metrics (Prometheus text exposition), /healthz,
// /debug/spans and net/http/pprof.
//
// The survey of composition middleware identifies runtime monitoring
// and management as a core middleware layer; obs is that layer for this
// repo: every stage of the composition pipeline (candidate lookup,
// QASSA local/global phases, execution, QoS monitoring, adaptation)
// reports into one Hub, so a slow Compose can be correlated with its
// phases and the adaptation loop's decisions are observable without
// editing code.
//
// All instrumentation is nil-safe: metric handles and spans may be nil
// (no Hub configured, or no Hub in the context) and every operation on
// them is a cheap no-op, so instrumented hot paths cost almost nothing
// when telemetry is off.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// atomicFloat is a float64 with atomic Add/Set/Load (CAS on the bits).
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Set(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing counter. The zero value is
// ready to use; a nil Counter is a no-op.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.n.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.n.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a value that can go up and down, either stored (Set/Add) or
// computed by a function on every read (SetFunc). A nil Gauge is a
// no-op.
type Gauge struct {
	v  atomicFloat
	fn atomic.Pointer[func() float64]
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.Set(v)
}

// SetFunc makes the gauge read fn on every Value (and so on every
// scrape) instead of its stored value; a later SetFunc replaces fn, and
// a nil fn reverts to the stored value.
func (g *Gauge) SetFunc(fn func() float64) {
	if g == nil {
		return
	}
	g.fn.Store(&fn)
}

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value: fn's result for a function-backed
// gauge, the stored value otherwise.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if fn := g.fn.Load(); fn != nil && *fn != nil {
		return (*fn)()
	}
	return g.v.Load()
}

// DefBuckets are the default latency buckets in seconds, spanning the
// microsecond clustering runs to multi-second end-to-end executions the
// pipeline produces.
var DefBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5,
}

// Histogram is a fixed-bucket histogram. Observations are lock-free;
// snapshots may be marginally torn between the bucket counts and the
// sum (each field is individually atomic), which is the standard
// Prometheus client trade-off. A nil Histogram is a no-op.
type Histogram struct {
	bounds []float64 // sorted upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64
	sum    atomicFloat
	count  atomic.Uint64
	ex     atomic.Pointer[Exemplar]
}

// Exemplar ties a recent observation of a histogram to the trace that
// produced it, so a scraped latency distribution links back to one
// concrete request in /debug/spans and /debug/requests.
type Exemplar struct {
	// TraceID is the hex trace ID of the request (SpanContext.TraceIDString).
	TraceID string
	// Value is the observed value.
	Value float64
	// Time is when the observation was taken.
	Time time.Time
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveExemplar records one value and tags the histogram with the
// trace that produced it (last writer wins; an empty traceID degrades
// to a plain Observe).
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil || traceID == "" {
		h.Observe(v)
		return
	}
	h.ObserveExemplarAt(v, traceID, time.Now())
}

// ObserveExemplarAt is ObserveExemplar with the observation time
// supplied by the caller (a clock reading the request already took).
func (h *Histogram) ObserveExemplarAt(v float64, traceID string, t time.Time) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID != "" {
		h.ex.Store(&Exemplar{TraceID: traceID, Value: v, Time: t})
	}
}

// Exemplar returns the most recent trace-tagged observation, if any.
func (h *Histogram) Exemplar() (Exemplar, bool) {
	if h == nil {
		return Exemplar{}, false
	}
	if e := h.ex.Load(); e != nil {
		return *e, true
	}
	return Exemplar{}, false
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra final
	// entry for the +Inf bucket. Counts are per-bucket, not cumulative.
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
	// Exemplar is the most recent trace-tagged observation (nil when
	// the histogram never saw one).
	Exemplar *Exemplar
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.Load(),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if e := h.ex.Load(); e != nil {
		cp := *e
		s.Exemplar = &cp
	}
	return s
}

// Quantile estimates the q-quantile (q in [0,1]) from the buckets with
// linear interpolation inside the containing bucket; observations in
// the +Inf bucket report the highest finite bound. Returns 0 when the
// histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) { // +Inf bucket
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(prev)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}

// metric kinds for the registry's families.
const (
	kindCounter = iota
	kindGauge
	kindHistogram
)

func kindName(k int) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// family is one named metric with a fixed label-name set and one child
// per label-value combination.
type family struct {
	name   string
	help   string
	kind   int
	labels []string
	bounds []float64 // histogram families only

	mu       sync.RWMutex
	children map[string]any // joined label values -> *Counter/*Gauge/*Histogram
}

// labelSep joins label values into a child key; it cannot occur in
// valid UTF-8 label values' first byte position ambiguity because it is
// a dedicated separator byte.
const labelSep = "\xff"

func (f *family) child(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q expects %d label value(s), got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	switch f.kind {
	case kindCounter:
		c = &Counter{}
	case kindGauge:
		c = &Gauge{}
	default:
		c = newHistogram(f.bounds)
	}
	f.children[key] = c
	return c
}

// Registry is a concurrency-safe metric registry. Metric constructors
// are get-or-create: calling Counter twice with the same name returns
// the same handle, so instrumented packages can fetch handles on their
// hot paths without coordination. A nil Registry returns nil handles
// (which are themselves no-ops).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup gets or creates a family, panicking on kind or label-arity
// conflicts (programmer error: two call sites disagree on a name).
func (r *Registry) lookup(name, help string, kind int, labels []string, bounds []float64) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		f, ok = r.families[name]
		if !ok {
			f = &family{
				name:     name,
				help:     help,
				kind:     kind,
				labels:   append([]string(nil), labels...),
				bounds:   bounds,
				children: make(map[string]any),
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s with %d label(s), was %s with %d",
			name, kindName(kind), len(labels), kindName(f.kind), len(f.labels)))
	}
	return f
}

// Counter returns the (label-less) counter with the given name.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, nil, nil).child(nil).(*Counter)
}

// Gauge returns the (label-less) gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, nil, nil).child(nil).(*Gauge)
}

// Histogram returns the (label-less) histogram with the given name;
// nil bounds mean DefBuckets. Bounds are fixed at first registration.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, nil, bounds).child(nil).(*Histogram)
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// CounterVec returns the counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.lookup(name, help, kindCounter, labelNames, nil)}
}

// With returns the child counter for the given label values.
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(labelValues).(*Counter)
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ f *family }

// GaugeVec returns the gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.lookup(name, help, kindGauge, labelNames, nil)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(labelValues).(*Gauge)
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// HistogramVec returns the histogram family with the given label names;
// nil bounds mean DefBuckets.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.lookup(name, help, kindHistogram, labelNames, bounds)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(labelValues).(*Histogram)
}

// Func registers a label-less gauge whose value is fn, evaluated on
// every scrape (live state such as registry size or cache counters owned
// elsewhere). Re-registering the same name replaces the callback:
// several middleware instances may share one registry and the freshest
// instance's view wins.
func (r *Registry) Func(name, help string, fn func() float64) {
	r.Gauge(name, help).SetFunc(fn)
}

// SeriesSnapshot is one (label values, value) pair of a metric.
type SeriesSnapshot struct {
	// Labels maps label names to values; nil for label-less metrics.
	Labels map[string]string
	// Value holds counter/gauge values (counters as float).
	Value float64
	// Histogram is set for histogram series.
	Histogram *HistogramSnapshot
}

// MetricSnapshot is a point-in-time copy of one metric family.
type MetricSnapshot struct {
	Name   string
	Help   string
	Kind   string // "counter", "gauge" or "histogram"
	Series []SeriesSnapshot
}

// Snapshot copies every registered metric, sorted by name (series
// sorted by label values). It is safe to call concurrently with
// observations.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	fams := r.sortedFamilies()
	out := make([]MetricSnapshot, 0, len(fams))
	for _, f := range fams {
		ms := MetricSnapshot{Name: f.name, Help: f.help, Kind: kindName(f.kind)}
		keys, children := f.series()
		for i, k := range keys {
			var ss SeriesSnapshot
			if len(f.labels) > 0 {
				vals := strings.Split(k, labelSep)
				ss.Labels = make(map[string]string, len(f.labels))
				for j, name := range f.labels {
					ss.Labels[name] = vals[j]
				}
			}
			switch c := children[i].(type) {
			case *Counter:
				ss.Value = float64(c.Value())
			case *Gauge:
				ss.Value = c.Value()
			case *Histogram:
				h := c.Snapshot()
				ss.Histogram = &h
			}
			ms.Series = append(ms.Series, ss)
		}
		out = append(out, ms)
	}
	return out
}

// sortedFamilies returns the registered families sorted by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// series returns the family's children sorted by joined label values,
// copied out of f.mu so values are read (and gauge functions run)
// without holding the family lock.
func (f *family) series() (keys []string, children []any) {
	f.mu.RLock()
	keys = make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children = make([]any, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.RUnlock()
	return keys, children
}
