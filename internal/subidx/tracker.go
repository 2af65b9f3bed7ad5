package subidx

import (
	"sync"
	"time"

	"qasom/internal/monitor"
	"qasom/internal/obs"
	"qasom/internal/registry"
	"qasom/internal/semantics"
)

// Options tune a Tracker. Entries are health-filtered by
// monitor.MinSuccessRate, the threshold the reactive scan uses too.
type Options struct {
	// RefreshInterval paces the background refresher: dirty indexes are
	// re-ranked and one stale index is resynced per tick. 0 means 250ms.
	RefreshInterval time.Duration
	// MaxTracked bounds the number of tracked compositions; beyond it
	// the oldest index is drained. 0 means 64.
	MaxTracked int
	// Metrics, when set, exports the tracker's gauges and counters.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.RefreshInterval <= 0 {
		o.RefreshInterval = 250 * time.Millisecond
	}
	if o.MaxTracked <= 0 {
		o.MaxTracked = 64
	}
	return o
}

const (
	// buildDelay debounces initial builds: a composition must survive
	// this long before the background builder invests in it (an Execute
	// builds immediately regardless), so compose-heavy serving loops do
	// not pay for indexes of compositions they throw away.
	buildDelay = 50 * time.Millisecond
	// maxReplacements caps one activity's replacement list.
	maxReplacements = 64
	// watchBuffer sizes the registry event subscription: deep enough to
	// absorb a publish/withdraw burst between two loop wakes. Delivery
	// is best-effort, so an overflow drops events and the rolling resync
	// (staleResyncAge) repairs the index.
	watchBuffer = 256
)

// staleResyncAge is how old a built index may grow before the rolling
// resync rebuilds it even without a dirty mark — the safety net against
// dropped watch events (the registry's delivery is best-effort).
const staleResyncAge = 10

// trackerMetrics bundles the tracker's handles; zero value is no-op.
type trackerMetrics struct {
	builds    *obs.Counter
	refreshes *obs.Counter
	evictions *obs.Counter
	stagings  *obs.Counter
	events    *obs.CounterVec
}

// Tracker owns the substitution indexes of one middleware instance: a
// single registry watch subscription, a single monitor health
// subscription and a single background goroutine serve every tracked
// composition, so per-composition cost is one small registration. The
// goroutine debounces initial builds, folds watch events into eligibility
// bits, and periodically re-ranks dirty indexes and re-stages behavioural
// alternates. Safe for concurrent use.
type Tracker struct {
	reg  *registry.Registry
	mon  *monitor.Monitor
	opts Options
	met  trackerMetrics

	mu     sync.Mutex
	order  []*Index // tracked indexes, least recently (re)tracked first
	closed bool

	// pending is the registry watch channel, subscribed lazily on the
	// first Track (a middleware that only composes never executes, so it
	// tracks nothing — and must not make every Publish/Withdraw pay a
	// per-watcher event copy for an empty index set). The loop adopts it
	// on its next wake/tick/quiesce; rebuilds read registry truth
	// directly, so nothing is missed in between.
	pending      <-chan registry.Event
	cancelWatch  func()
	cancelHealth func()
	wake         chan struct{}
	syncc        chan chan struct{}
	done         chan struct{}
	closeOnce    sync.Once
	loopWG       sync.WaitGroup
}

// NewTracker subscribes to the registry and monitor and starts the
// maintenance goroutine. Close releases both subscriptions and stops the
// goroutine.
func NewTracker(reg *registry.Registry, mon *monitor.Monitor, opts Options) *Tracker {
	t := &Tracker{
		reg:   reg,
		mon:   mon,
		opts:  opts.withDefaults(),
		wake:  make(chan struct{}, 1),
		syncc: make(chan chan struct{}),
		done:  make(chan struct{}),
	}
	if r := t.opts.Metrics; r != nil {
		t.met = trackerMetrics{
			builds: r.Counter("qasom_subidx_builds_total",
				"Substitution-index builds (first build of a tracked composition)."),
			refreshes: r.Counter("qasom_subidx_refreshes_total",
				"Substitution-index incremental refreshes (re-rank after churn, rolling resync, restage)."),
			evictions: r.Counter("qasom_subidx_evictions_total",
				"Substitution indexes drained by the tracked-composition capacity bound."),
			stagings: r.Counter("qasom_subidx_stagings_total",
				"Behavioural-alternate stagings computed by the background refresher."),
			events: r.CounterVec("qasom_subidx_events_total",
				"Registry/monitor change events folded into substitution indexes, by kind.",
				"kind"),
		}
		r.Func("qasom_subidx_tracked",
			"Compositions currently tracked by the substitution-index tracker.",
			func() float64 { return float64(t.Tracked()) })
		r.Func("qasom_subidx_entries",
			"Replacement entries published across all built substitution indexes.",
			func() float64 {
				var n int64
				for _, x := range t.snapshot() {
					if x.State() == StateBuilt {
						n += x.entries.Load()
					}
				}
				return float64(n)
			})
		r.Func("qasom_subidx_staleness_seconds",
			"Age of the least recently refreshed built substitution index.",
			func() float64 {
				var oldest int64
				for _, x := range t.snapshot() {
					if x.State() != StateBuilt {
						continue
					}
					if ns := x.built.Load(); ns != 0 && (oldest == 0 || ns < oldest) {
						oldest = ns
					}
				}
				if oldest == 0 {
					return 0
				}
				return time.Since(time.Unix(0, oldest)).Seconds()
			})
	}
	if mon != nil {
		t.cancelHealth = mon.SubscribeHealth(monitor.MinSuccessRate, t.onHealth)
	}
	t.loopWG.Add(1)
	go t.loop()
	return t
}

// Track registers a composition at selection-commit time. The call is
// cheap (one small allocation and a list append); the actual build runs
// on the tracker goroutine after buildDelay, or synchronously at the
// composition's first Execute via Index.BuildNow. Beyond MaxTracked the
// oldest index is drained — its composition falls back to reactive
// failover until it executes again.
func (t *Tracker) Track(src Source) *Index {
	x := &Index{t: t, src: src}
	t.track(x)
	return x
}

func (t *Tracker) track(x *Index) {
	var evicted *Index
	t.mu.Lock()
	t.order = append(t.order, x)
	if t.pending == nil && t.cancelWatch == nil && t.reg != nil && !t.closed {
		t.pending, t.cancelWatch = t.reg.Watch(watchBuffer)
	}
	if len(t.order) > t.opts.MaxTracked {
		evicted = t.order[0]
		t.order = t.order[1:]
	}
	t.mu.Unlock()
	if evicted != nil {
		evicted.drain()
		t.met.evictions.Inc()
	}
	t.poke()
}

// Tracked returns the number of tracked compositions.
func (t *Tracker) Tracked() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.order)
}

// Quiesce drains pending watch events and brings every tracked index in
// sync with the current registry/monitor state, synchronously. Test and
// experiment hook: after Quiesce returns, an index hit is
// decision-identical to the reactive scan. No-op after Close.
func (t *Tracker) Quiesce() {
	ack := make(chan struct{})
	select {
	case t.syncc <- ack:
		<-ack
	case <-t.done:
	}
}

// Close cancels the registry and monitor subscriptions and stops the
// maintenance goroutine. Tracked indexes stay usable but freeze in their
// current state.
func (t *Tracker) Close() {
	t.closeOnce.Do(func() {
		if t.cancelHealth != nil {
			t.cancelHealth()
		}
		t.mu.Lock()
		t.closed = true
		cancel := t.cancelWatch
		t.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		close(t.done)
		t.loopWG.Wait()
	})
}

// poke nudges the maintenance goroutine (non-blocking).
func (t *Tracker) poke() {
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// snapshot copies the tracked list.
func (t *Tracker) snapshot() []*Index {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Index(nil), t.order...)
}

// buildNow serves Index.BuildNow: build a cold index synchronously and
// revive a drained one (re-track + build) — the top-of-Execute warmup.
func (t *Tracker) buildNow(x *Index) {
	switch x.State() {
	case StateBuilt:
		return
	case StateDrained:
		x.state.Store(int32(StateCold))
		t.track(x)
	}
	if x.rebuild(t.reg, t.mon) {
		t.met.builds.Inc()
	}
}

// onHealth fans a monitor success-rate crossing out to every tracked
// index. Runs synchronously on the reporting goroutine (outside the
// monitor lock), so demotions beat the next failover.
func (t *Tracker) onHealth(id registry.ServiceID, healthy bool) {
	t.met.events.With("health").Inc()
	for _, x := range t.snapshot() {
		x.setHealth(id, healthy)
	}
}

// applyEvent fans one registry event out to every tracked index.
func (t *Tracker) applyEvent(ev registry.Event) {
	switch ev.Kind {
	case registry.EventPublished:
		t.met.events.With("publish").Inc()
	case registry.EventWithdrawn:
		t.met.events.With("withdraw").Inc()
	}
	var onto *semantics.Ontology
	if t.reg != nil {
		onto = t.reg.Ontology()
	}
	for _, x := range t.snapshot() {
		x.applyEvent(ev, onto)
	}
}

// loop is the maintenance goroutine: it folds watch events into the
// indexes as they arrive, debounces initial builds, and on every refresh
// tick re-ranks dirty indexes, resyncs the stalest one (the safety net
// against dropped events) and re-stages behavioural alternates whose
// progress frontier moved.
func (t *Tracker) loop() {
	defer t.loopWG.Done()
	ticker := time.NewTicker(t.opts.RefreshInterval)
	defer ticker.Stop()
	var events <-chan registry.Event // adopted from t.pending after the first Track
	for {
		select {
		case <-t.done:
			return
		case ev, ok := <-events:
			if !ok {
				events = nil
				continue
			}
			t.applyEvent(ev)
		case <-t.wake:
			t.adoptEvents(&events)
			if !t.debounce(&events) {
				return
			}
			t.buildPending()
		case <-ticker.C:
			t.adoptEvents(&events)
			t.buildPending()
			t.refresh()
		case ack := <-t.syncc:
			t.adoptEvents(&events)
			t.drain(&events)
			t.buildPending()
			t.refreshAll()
			close(ack)
		}
	}
}

// adoptEvents hands the lazily-created watch subscription to the loop.
// Track pokes the loop right after subscribing, so adoption happens
// before the first build; events buffered in between are drained in
// order afterwards (idempotent against the build, which read registry
// truth directly).
func (t *Tracker) adoptEvents(events *<-chan registry.Event) {
	if *events != nil {
		return
	}
	t.mu.Lock()
	*events = t.pending
	t.mu.Unlock()
}

// debounce waits buildDelay before the next build pass while still
// servicing events and sync requests; it returns false when the tracker
// closed mid-wait.
func (t *Tracker) debounce(events *<-chan registry.Event) bool {
	timer := time.NewTimer(buildDelay)
	defer timer.Stop()
	for {
		select {
		case <-t.done:
			return false
		case <-timer.C:
			// Collapse any wakes that arrived during the wait: this pass
			// builds everything pending.
			select {
			case <-t.wake:
			default:
			}
			return true
		case ev, ok := <-*events:
			if !ok {
				*events = nil
				continue
			}
			t.applyEvent(ev)
		case ack := <-t.syncc:
			t.adoptEvents(events)
			t.drain(events)
			t.buildPending()
			t.refreshAll()
			close(ack)
		}
	}
}

// drain folds every already-buffered watch event (delivery happens
// before Publish/Withdraw return, so callers that mutated the registry
// and then Quiesce observe their own changes).
func (t *Tracker) drain(events *<-chan registry.Event) {
	if *events == nil {
		return
	}
	for {
		select {
		case ev, ok := <-*events:
			if !ok {
				*events = nil
				return
			}
			t.applyEvent(ev)
		default:
			return
		}
	}
}

// buildPending builds every cold index.
func (t *Tracker) buildPending() {
	for _, x := range t.snapshot() {
		if x.State() == StateCold && x.rebuild(t.reg, t.mon) {
			t.met.builds.Inc()
		}
	}
}

// refresh is one background tick: rebuild dirty indexes, resync the
// stalest built index once it ages past staleResyncAge ticks, restage
// moved progress frontiers.
func (t *Tracker) refresh() {
	var stalest *Index
	var stalestNS int64
	for _, x := range t.snapshot() {
		if x.State() != StateBuilt {
			continue
		}
		if x.dirty.Load() {
			if x.rebuild(t.reg, t.mon) {
				t.met.refreshes.Inc()
			}
			continue
		}
		if x.restage() {
			t.met.stagings.Inc()
		}
		if ns := x.built.Load(); stalest == nil || ns < stalestNS {
			stalest, stalestNS = x, ns
		}
	}
	if stalest != nil && time.Since(time.Unix(0, stalestNS)) > staleResyncAge*t.opts.RefreshInterval {
		if stalest.rebuild(t.reg, t.mon) {
			t.met.refreshes.Inc()
		}
	}
}

// refreshAll brings every tracked index in sync (Quiesce): cold and
// dirty indexes rebuild, clean built ones only re-stage if their
// progress frontier moved. The events drained just before this run have
// already dirtied every index a registry change touched, so skipping
// clean indexes loses no determinism — and keeps Quiesce proportional
// to what actually changed instead of paying a full registry scan per
// tracked composition.
func (t *Tracker) refreshAll() {
	for _, x := range t.snapshot() {
		switch {
		case x.State() == StateDrained:
		case x.State() == StateCold || x.dirty.Load():
			if x.rebuild(t.reg, t.mon) {
				t.met.refreshes.Inc()
				if x.restage() {
					t.met.stagings.Inc()
				}
			}
		default:
			if x.restage() {
				t.met.stagings.Inc()
			}
		}
	}
}
