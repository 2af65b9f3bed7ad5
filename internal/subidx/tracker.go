package subidx

import (
	"time"

	"qasom/internal/monitor"
	"qasom/internal/obs"
	"qasom/internal/registry"
)

const (
	// resyncInterval paces the periodic resync, the safety net against
	// dropped watch events and reordered health callbacks.
	resyncInterval = 2500 * time.Millisecond
	// watchBuffer sizes the registry event subscription: deep enough to
	// absorb a publish/withdraw burst between two loop wakes. Delivery
	// is best-effort, so an overflow drops events (counted in
	// qasom_registry_watch_dropped_total) and the resync repairs the
	// table.
	watchBuffer = 256
)

// tableMetrics bundles the table's counters; the zero value is a no-op.
type tableMetrics struct {
	publish, withdraw, health *obs.Counter
	resyncs                   *obs.Counter
}

func newTableMetrics(r *obs.Registry) tableMetrics {
	if r == nil {
		return tableMetrics{}
	}
	events := r.CounterVec("qasom_subidx_events_total",
		"Registry/monitor change events folded into the failover eligibility table, by kind.",
		"kind")
	return tableMetrics{
		publish:  events.With("publish"),
		withdraw: events.With("withdraw"),
		health:   events.With("health"),
		resyncs: r.Counter("qasom_subidx_resyncs_total",
			"Full rereads of the failover eligibility table from registry and monitor truth."),
	}
}

// Start activates the table: it subscribes to the registry and the
// monitor, seeds every cell from their current truth and starts the
// maintenance goroutine. The facade calls it at every Execute, so a
// middleware that only composes never subscribes and its Publish and
// Withdraw pay nothing for the table. Idempotent; a no-op after Close.
func (t *Table) Start() {
	if t.active.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.active.Load() || t.closed || t.reg == nil {
		return
	}
	events, cancel := t.reg.Watch(watchBuffer)
	t.cancelWatch = cancel
	if t.mon != nil {
		t.cancelHealth = t.mon.SubscribeHealth(monitor.MinSuccessRate, t.onHealth)
	}
	t.resync()
	t.loopWG.Add(1)
	go t.loop(events)
	t.active.Store(true)
}

// Quiesce applies every buffered watch event and resyncs the table from
// registry and monitor truth, synchronously. Test and experiment hook:
// after it returns, a failover walk over the table picks what the
// reactive scan would. A no-op on an inactive table.
func (t *Table) Quiesce() {
	if !t.active.Load() {
		return
	}
	ack := make(chan struct{})
	select {
	case t.syncc <- ack:
		<-ack
	case <-t.done:
	}
}

// Close deactivates the table for good: failover reverts to the reactive
// scan at once, then the subscriptions are cancelled and the maintenance
// goroutine stops. Safe to call more than once, and before Start.
func (t *Table) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	t.active.Store(false)
	if t.cancelHealth != nil {
		t.cancelHealth()
	}
	if t.cancelWatch != nil {
		t.cancelWatch()
	}
	close(t.done)
	t.loopWG.Wait()
}

// loop is the maintenance goroutine: it folds watch events into the
// table as they arrive and resyncs it periodically and on Quiesce.
func (t *Table) loop(events <-chan registry.Event) {
	defer t.loopWG.Done()
	ticker := time.NewTicker(resyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.done:
			return
		case ev, ok := <-events:
			if !ok || !t.drain(events, ev) {
				events = nil
			}
		case <-ticker.C:
			t.resync()
		case ack := <-t.syncc:
			if events != nil && !t.drain(events) {
				events = nil
			}
			t.resync()
			close(ack)
		}
	}
}

// drain folds the given events, then every event already buffered, into
// the table: a withdraw clears the live bit, a publish sets it. Cells for
// services the table has not seen go into one copy of the view's delta,
// so a burst of new services costs one copy. It reports false once the
// watch channel has closed.
func (t *Table) drain(events <-chan registry.Event, first ...registry.Event) bool {
	v := t.view.Load()
	var delta cells // writable copy of v.delta, made at the first new service
	apply := func(ev registry.Event) {
		c := v.cell(ev.Service.ID)
		if c == nil {
			c = delta[ev.Service.ID]
		}
		switch ev.Kind {
		case registry.EventWithdrawn:
			t.met.withdraw.Inc()
			if c != nil {
				c.live.Store(false)
			}
		case registry.EventPublished:
			t.met.publish.Inc()
			if c == nil {
				if delta == nil {
					delta = copyCells(v.delta, 1)
				}
				c = new(cell)
				c.healthy.Store(t.healthy(ev.Service.ID))
				delta[ev.Service.ID] = c
			}
			c.live.Store(true)
		}
	}
	defer func() {
		if delta == nil {
			return
		}
		if len(delta)*len(delta) < len(v.base) {
			t.view.Store(&view{base: v.base, delta: delta})
			return
		}
		base := copyCells(v.base, len(delta))
		for id, c := range delta {
			base[id] = c
		}
		t.view.Store(&view{base: base})
	}()
	for _, ev := range first {
		apply(ev)
	}
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return false
			}
			apply(ev)
		default:
			return true
		}
	}
}

// onHealth applies a monitor success-rate crossing. It runs synchronously
// on the reporting goroutine, so a demotion beats the next failover.
func (t *Table) onHealth(id registry.ServiceID, healthy bool) {
	t.met.health.Inc()
	if c := t.view.Load().cell(id); c != nil {
		c.healthy.Store(healthy)
	}
}

// healthy reads one service's health from the monitor.
func (t *Table) healthy(id registry.ServiceID) bool {
	return t.mon == nil || t.mon.SuccessRate(id) >= monitor.MinSuccessRate
}

// resync rereads every bit from registry and monitor truth. Bits are
// rewritten in place; the view is replaced only when the set of
// published services changed, which also drops withdrawn services'
// cells and folds the delta into base.
func (t *Table) resync() {
	t.met.resyncs.Inc()
	descs := t.reg.All()
	v := t.view.Load()
	rebuild := v.size() != len(descs)
	for i := 0; i < len(descs) && !rebuild; i++ {
		rebuild = v.cell(descs[i].ID) == nil
	}
	var next cells
	if rebuild {
		next = make(cells, len(descs))
	}
	for _, d := range descs {
		c := v.cell(d.ID)
		if c == nil {
			c = new(cell)
		}
		c.healthy.Store(t.healthy(d.ID))
		c.live.Store(true)
		if rebuild {
			next[d.ID] = c
		}
	}
	if rebuild {
		t.view.Store(&view{base: next})
	}
}

// copyCells returns a writable copy of a published map, sized for extra
// more entries.
func copyCells(m cells, extra int) cells {
	out := make(cells, len(m)+extra)
	for k, v := range m {
		out[k] = v
	}
	return out
}
