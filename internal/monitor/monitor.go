// Package monitor implements the global and proactive QoS monitoring of
// Chapter V §1.1: per-service observation windows with EWMA estimation
// and linear-trend prediction, and a composition-level assessor that
// aggregates run-time QoS over the task tree and flags current and
// predicted violations of the user's global constraints — the trigger of
// QoS-driven adaptation.
package monitor

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/task"
)

// Observation is one measured invocation of a service.
type Observation struct {
	// Service is the observed service.
	Service registry.ServiceID
	// Vector is the measured QoS (aligned to the monitor's property set).
	Vector qos.Vector
	// Time stamps the observation.
	Time time.Time
	// Success reports whether the invocation succeeded.
	Success bool
}

// MinSuccessRate is the health threshold of QoS-driven adaptation: a
// service whose observed success rate falls below it is no substitute.
// The adaptation manager's failover walk filters alternates by it.
const MinSuccessRate = 0.5

// Options tune the monitor.
type Options struct {
	// WindowSize is the per-service observation ring size; 0 means 20.
	WindowSize int
	// Alpha is the EWMA smoothing factor in (0,1]; 0 means 0.3.
	Alpha float64
	// Obs, when set, makes the monitor export telemetry into the hub's
	// registry: observation/failure counters, per-service EWMA gauges
	// and the violation counters the composition assessor increments.
	Obs *obs.Hub
}

func (o Options) withDefaults() Options {
	if o.WindowSize <= 0 {
		o.WindowSize = 20
	}
	if o.Alpha <= 0 || o.Alpha > 1 {
		o.Alpha = 0.3
	}
	return o
}

type window struct {
	obs      []Observation // ring, oldest first after rotation
	next     int
	filled   bool
	ewma     qos.Vector
	total    int
	failures int
}

// monitorMetrics bundles the monitor's registry handles; the zero
// value is a full set of nil no-op handles.
type monitorMetrics struct {
	observations *obs.Counter
	failures     *obs.Counter
	ewma         *obs.GaugeVec
	violations   *obs.CounterVec
}

func monitorMetricsFor(hub *obs.Hub) monitorMetrics {
	if hub == nil {
		return monitorMetrics{}
	}
	r := hub.Metrics
	return monitorMetrics{
		observations: r.Counter("qasom_monitor_observations_total",
			"QoS observations reported to the monitor."),
		failures: r.Counter("qasom_monitor_failures_total",
			"Observations reporting a failed invocation."),
		ewma: r.GaugeVec("qasom_monitor_ewma",
			"EWMA run-time QoS estimate per service and property.",
			"service", "property"),
		violations: r.CounterVec("qasom_monitor_violations_total",
			"Constraint violations flagged by composition assessment, by kind (current|predicted).",
			"kind"),
	}
}

// Monitor collects run-time QoS observations per service. Safe for
// concurrent use.
type Monitor struct {
	mu      sync.RWMutex
	ps      *qos.PropertySet
	opts    Options
	met     monitorMetrics
	windows map[registry.ServiceID]*window
}

// New creates a monitor for the given property set.
func New(ps *qos.PropertySet, opts Options) *Monitor {
	return &Monitor{
		ps:      ps,
		opts:    opts.withDefaults(),
		met:     monitorMetricsFor(opts.Obs),
		windows: make(map[registry.ServiceID]*window),
	}
}

// Report records one observation. Vectors of the wrong arity are
// rejected.
func (m *Monitor) Report(obs Observation) error {
	if len(obs.Vector) != m.ps.Len() {
		return fmt.Errorf("monitor: observation arity %d, want %d", len(obs.Vector), m.ps.Len())
	}
	m.mu.Lock()
	w := m.windows[obs.Service]
	if w == nil {
		w = &window{obs: make([]Observation, m.opts.WindowSize)}
		m.windows[obs.Service] = w
	}
	w.obs[w.next] = obs
	w.next = (w.next + 1) % len(w.obs)
	if w.next == 0 {
		w.filled = true
	}
	w.total++
	if !obs.Success {
		w.failures++
	}
	if w.ewma == nil {
		w.ewma = obs.Vector.Clone()
	} else {
		a := m.opts.Alpha
		for j := range w.ewma {
			w.ewma[j] = a*obs.Vector[j] + (1-a)*w.ewma[j]
		}
	}
	m.met.observations.Inc()
	if !obs.Success {
		m.met.failures.Inc()
	}
	if m.met.ewma != nil {
		for j, name := range m.ps.Names() {
			m.met.ewma.With(string(obs.Service), name).Set(w.ewma[j])
		}
	}
	m.mu.Unlock()
	return nil
}

// successRate is SuccessRate for one window (1 when unobserved).
func (w *window) successRate() float64 {
	if w == nil || w.total == 0 {
		return 1
	}
	return 1 - float64(w.failures)/float64(w.total)
}

// Len returns the number of observations held for a service (capped at
// the window size).
func (m *Monitor) Len(id registry.ServiceID) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	w := m.windows[id]
	if w == nil {
		return 0
	}
	if w.filled {
		return len(w.obs)
	}
	return w.next
}

// Estimate returns the EWMA run-time QoS estimate for a service; false
// when the service has never been observed.
func (m *Monitor) Estimate(id registry.ServiceID) (qos.Vector, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	w := m.windows[id]
	if w == nil || w.ewma == nil {
		return nil, false
	}
	return w.ewma.Clone(), true
}

// SuccessRate returns the observed success ratio of a service (1 when
// unobserved: optimistic prior).
func (m *Monitor) SuccessRate(id registry.ServiceID) float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.windows[id].successRate()
}

// ordered returns the window's observations oldest-first.
func (w *window) ordered() []Observation {
	if !w.filled {
		out := make([]Observation, w.next)
		copy(out, w.obs[:w.next])
		return out
	}
	out := make([]Observation, 0, len(w.obs))
	out = append(out, w.obs[w.next:]...)
	out = append(out, w.obs[:w.next]...)
	return out
}

// Percentile returns the q-quantile (q in [0,1]) of property j over the
// service's observation window, using nearest-rank interpolation; false
// when the service has no observations. Tail percentiles (P95/P99) catch
// degradation modes a mean hides.
func (m *Monitor) Percentile(id registry.ServiceID, j int, q float64) (float64, bool) {
	if j < 0 || j >= m.ps.Len() {
		return 0, false
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	m.mu.RLock()
	w := m.windows[id]
	var obs []Observation
	if w != nil {
		obs = w.ordered()
	}
	m.mu.RUnlock()
	if len(obs) == 0 {
		return 0, false
	}
	values := make([]float64, len(obs))
	for i, o := range obs {
		values[i] = o.Vector[j]
	}
	sort.Float64s(values)
	idx := int(math.Ceil(q*float64(len(values)))) - 1
	if idx < 0 {
		idx = 0
	}
	return values[idx], true
}

// Predict extrapolates each property `steps` observations ahead with a
// least-squares linear trend over the window — the proactive part of the
// monitoring: a degrading service is flagged before it actually violates
// the constraints. It returns false when fewer than three observations
// exist.
func (m *Monitor) Predict(id registry.ServiceID, steps int) (qos.Vector, bool) {
	if steps < 1 {
		steps = 1
	}
	m.mu.RLock()
	w := m.windows[id]
	var obs []Observation
	if w != nil {
		obs = w.ordered()
	}
	m.mu.RUnlock()
	if len(obs) < 3 {
		return nil, false
	}
	n := float64(len(obs))
	out := m.ps.NewVector()
	for j := 0; j < m.ps.Len(); j++ {
		// Least squares over x = 0..n-1.
		var sumX, sumY, sumXY, sumXX float64
		for i, o := range obs {
			x := float64(i)
			y := o.Vector[j]
			sumX += x
			sumY += y
			sumXY += x * y
			sumXX += x * x
		}
		den := n*sumXX - sumX*sumX
		var slope, intercept float64
		if den != 0 {
			slope = (n*sumXY - sumX*sumY) / den
			intercept = (sumY - slope*sumX) / n
		} else {
			intercept = sumY / n
		}
		x := n - 1 + float64(steps)
		v := intercept + slope*x
		// Keep probabilities physical.
		if m.ps.At(j).Kind == qos.KindProbability {
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
		}
		if v < 0 && m.ps.At(j).Kind != qos.KindProbability {
			v = 0
		}
		out[j] = v
	}
	return out, true
}

// Assessment is the outcome of a composition-level check.
type Assessment struct {
	// Current is the aggregated QoS using run-time estimates (advertised
	// values where a service is unobserved).
	Current qos.Vector
	// Predicted is the aggregated QoS using trend predictions where
	// available.
	Predicted qos.Vector
	// Violated lists properties whose constraints the current aggregate
	// breaks.
	Violated []string
	// PredictedViolated lists properties whose constraints the predicted
	// aggregate breaks (the proactive trigger).
	PredictedViolated []string
}

// Healthy reports whether nothing is (or is about to be) violated.
func (a *Assessment) Healthy() bool {
	return len(a.Violated) == 0 && len(a.PredictedViolated) == 0
}

// CompositionMonitor assesses a running composition against the request's
// global constraints, on current estimates and proactively on predicted
// trends. It is immutable: one is built per assessment, from a snapshot
// of the composition's bindings.
type CompositionMonitor struct {
	task        *task.Task
	ps          *qos.PropertySet
	constraints qos.Constraints
	approach    qos.Approach
	// advertised holds the selection-time vectors, the fallback for
	// services without run-time observations yet.
	advertised map[string]qos.Vector
	// binding maps activity IDs to the bound service.
	binding map[string]registry.ServiceID
}

// NewCompositionMonitor builds an assessor for one running composition.
// It keeps the advertised and binding maps, and the vectors in them,
// without copying and never writes them: the caller must not modify them
// afterwards.
func NewCompositionMonitor(t *task.Task, ps *qos.PropertySet, constraints qos.Constraints,
	approach qos.Approach, advertised map[string]qos.Vector, binding map[string]registry.ServiceID) *CompositionMonitor {
	return &CompositionMonitor{
		task: t, ps: ps, constraints: constraints, approach: approach,
		advertised: advertised, binding: binding,
	}
}

// Assess aggregates current and predicted QoS over the task tree and
// checks the constraints. steps is the prediction horizon.
func (cm *CompositionMonitor) Assess(m *Monitor, steps int) Assessment {
	current := make(map[string]qos.Vector, len(cm.binding))
	predicted := make(map[string]qos.Vector, len(cm.binding))
	for act, svc := range cm.binding {
		adv := cm.advertised[act]
		if est, ok := m.Estimate(svc); ok {
			current[act] = est
		} else if adv != nil {
			current[act] = adv
		}
		if pred, ok := m.Predict(svc, steps); ok {
			predicted[act] = pred
		} else if cur, ok := current[act]; ok {
			predicted[act] = cur
		}
	}
	a := Assessment{
		Current:   cm.task.AggregateQoS(cm.ps, current, cm.approach),
		Predicted: cm.task.AggregateQoS(cm.ps, predicted, cm.approach),
	}
	a.Violated = cm.constraints.Violated(cm.ps, a.Current)
	a.PredictedViolated = cm.constraints.Violated(cm.ps, a.Predicted)
	if m.met.violations != nil {
		if n := len(a.Violated); n > 0 {
			m.met.violations.With("current").Add(uint64(n))
		}
		if n := len(a.PredictedViolated); n > 0 {
			m.met.violations.With("predicted").Add(uint64(n))
		}
	}
	return a
}
