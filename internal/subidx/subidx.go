// Package subidx keeps the failover eligibility table of one middleware:
// for every service of the registry, a live bit (still published) and a
// healthy bit (observed success rate at or above monitor.MinSuccessRate).
// Failover reads the two bits instead of probing the registry and the
// monitor, so a substitution walks the composition's own alternate
// rotation under its runtime lock and never leaves it for a probe.
//
// The table is event-maintained, O(1) per event. One registry watch, one
// monitor health subscription and one goroutine serve the whole
// middleware:
//
//   - a withdraw event clears the service's live bit;
//   - a publish event sets it, adding a cell for a service the table has
//     not seen yet (its healthy bit read from the monitor);
//   - a success-rate crossing of monitor.MinSuccessRate flips the healthy
//     bit synchronously on the reporting goroutine, so a demotion is
//     visible to the very next failover.
//
// Registry event delivery is best-effort, so a periodic resync rereads
// every bit from registry and monitor truth; Quiesce runs one on demand.
//
// A table that has not been started, or has been closed, is inactive:
// failover then runs the same locked walk over the rotation with
// registry and monitor probes in place of the two bits. The table is a
// pure accelerator and never changes a decision — the walk against its
// bits picks what the walk against the probes would pick, given the same
// registry and monitor state.
package subidx

import (
	"sort"
	"sync"
	"sync/atomic"

	"qasom/internal/monitor"
	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/registry"
)

// cell holds the eligibility bits of one service.
type cell struct {
	live, healthy atomic.Bool
}

// cells maps services to their cells.
type cells = map[registry.ServiceID]*cell

// view is one published state of the table: base, and a small delta of
// the services added since base was built. Neither map is written once
// published; only their cells' bits change. The table goroutine is the
// only writer. A new service copies the delta, not base, and the delta
// folds into a fresh base once it grows to √|base| — so adding a service
// costs O(√n) amortized. A resync that finds the set of published
// services changed publishes a rebuilt base and an empty delta.
type view struct {
	base, delta cells
}

// cell returns the service's cell, nil when the table has none.
func (v *view) cell(id registry.ServiceID) *cell {
	if c := v.base[id]; c != nil {
		return c
	}
	return v.delta[id]
}

// size counts the cells of the view.
func (v *view) size() int { return len(v.base) + len(v.delta) }

// Table is the eligibility table of one middleware. Reads are lock-free
// and allocation-free; Start, Quiesce and Close may be called from any
// goroutine.
type Table struct {
	reg *registry.Registry
	mon *monitor.Monitor
	met tableMetrics

	view   atomic.Pointer[view]
	active atomic.Bool

	syncc  chan chan struct{} // Quiesce requests
	done   chan struct{}      // closed by Close
	loopWG sync.WaitGroup

	// mu serializes Start and Close, which own the fields below it.
	mu           sync.Mutex
	closed       bool
	cancelWatch  func()
	cancelHealth func()
}

// NewTable returns an inactive table over the registry and monitor (the
// monitor may be nil: every service then counts as healthy). Metrics,
// when set, receives the table's counters and gauge. Nothing is
// subscribed until Start.
func NewTable(reg *registry.Registry, mon *monitor.Monitor, metrics *obs.Registry) *Table {
	t := &Table{
		reg:   reg,
		mon:   mon,
		met:   newTableMetrics(metrics),
		syncc: make(chan chan struct{}),
		done:  make(chan struct{}),
	}
	t.view.Store(&view{})
	if metrics != nil {
		metrics.Func("qasom_subidx_services",
			"Services with an entry in the failover eligibility table.",
			func() float64 { return float64(t.view.Load().size()) })
	}
	return t
}

// Active reports whether failover may read the table: it has been
// started and not closed.
func (t *Table) Active() bool { return t.active.Load() }

// Eligible reports whether a service is a valid substitute right now: it
// is published and healthy. A service the table has no cell for is not
// published (as of the events applied so far). No lock, no allocation.
func (t *Table) Eligible(id registry.ServiceID) bool {
	c := t.view.Load().cell(id)
	return c != nil && c.live.Load() && c.healthy.Load()
}

// MaxReplacements caps one activity's rotation plus late services: an
// exhausted rotation of n alternates considers at most MaxReplacements−n
// services published after selection.
const MaxReplacements = 64

// Extras returns the services of cands that are neither the bound service
// nor in the rotation alts — services published after selection — best
// pool score first, ties broken by ID, at most MaxReplacements−len(alts).
// The score is the normalized weighted utility over the pool of bound,
// alternates and extras, the same shape as QASSA's candidate utility.
func Extras(ps *qos.PropertySet, w qos.Weights, bound registry.Candidate, alts, cands []registry.Candidate) []registry.Candidate {
	room := MaxReplacements - len(alts)
	if room <= 0 {
		return nil
	}
	present := make(map[registry.ServiceID]bool, len(alts)+1)
	present[bound.Service.ID] = true
	for _, a := range alts {
		present[a.Service.ID] = true
	}
	var extras []registry.Candidate
	for _, c := range cands {
		if !present[c.Service.ID] {
			extras = append(extras, c)
		}
	}
	if len(extras) == 0 {
		return nil
	}
	scores := scorePool(ps, w, bound, alts, extras)
	sort.SliceStable(extras, func(i, j int) bool {
		si, sj := scores[extras[i].Service.ID], scores[extras[j].Service.ID]
		if si != sj {
			return si > sj
		}
		return extras[i].Service.ID < extras[j].Service.ID
	})
	if len(extras) > room {
		extras = extras[:room]
	}
	return extras
}

// scorePool computes the normalized weighted utility of every candidate
// of one activity's replacement pool (bound + alternates + extras):
// per-property min-max normalization over the pool, direction-adjusted,
// weight-averaged.
func scorePool(ps *qos.PropertySet, w qos.Weights, bound registry.Candidate,
	alts, extras []registry.Candidate) map[registry.ServiceID]float64 {
	pool := make([]registry.Candidate, 0, 1+len(alts)+len(extras))
	pool = append(pool, bound)
	pool = append(pool, alts...)
	pool = append(pool, extras...)
	n := 0
	if ps != nil {
		n = ps.Len()
	}
	out := make(map[registry.ServiceID]float64, len(pool))
	if n == 0 {
		for _, c := range pool {
			out[c.Service.ID] = 0
		}
		return out
	}
	min := make([]float64, n)
	max := make([]float64, n)
	for j := 0; j < n; j++ {
		first := true
		for _, c := range pool {
			if len(c.Vector) != n {
				continue
			}
			v := c.Vector[j]
			if first || v < min[j] {
				min[j] = v
			}
			if first || v > max[j] {
				max[j] = v
			}
			first = false
		}
	}
	var wsum float64
	weight := func(j int) float64 {
		if len(w) != n {
			return 1
		}
		return w[j]
	}
	for j := 0; j < n; j++ {
		wsum += weight(j)
	}
	if wsum == 0 {
		wsum = 1
	}
	for _, c := range pool {
		if len(c.Vector) != n {
			out[c.Service.ID] = 0
			continue
		}
		var s float64
		for j := 0; j < n; j++ {
			span := max[j] - min[j]
			u := 1.0 // a property the pool does not differentiate on is neutral
			if span > 0 {
				u = (c.Vector[j] - min[j]) / span
				if ps.At(j).Direction == qos.Minimized {
					u = 1 - u
				}
			}
			s += weight(j) * u
		}
		out[c.Service.ID] = s / wsum
	}
	return out
}
