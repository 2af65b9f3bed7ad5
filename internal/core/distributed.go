package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"time"

	"qasom/internal/cluster"
	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/randx"
	"qasom/internal/registry"
	"qasom/internal/resilience"
)

// The distributed version of QASSA (Chapter IV §4, evaluated in
// Fig. VI.12) spreads the local selection phase over the devices of an
// ad hoc environment: each coordinator device clusters the candidates of
// the activities it is responsible for, in parallel, and the requester's
// device gathers the ranked shortlists and runs the global phase.
//
// Ad hoc environments lose coordinators mid-selection, so the gather is
// fault-tolerant: every per-coordinator exchange goes through the shared
// resilience policy (per-attempt deadlines, bounded retries with
// jittered backoff rotating across the replicas that hold the same
// activity, optional hedged second requests, per-peer breakers), and
// when the policy is exhausted the requester degrades gracefully — it
// runs that activity's local phase itself from its own registry view and
// records the degradation in the result instead of failing the
// composition.

// LocalRequest is the unit of work shipped to a coordinator device.
type LocalRequest struct {
	// ActivityID names the abstract activity to rank candidates for.
	ActivityID string
	// Properties carries the request's QoS property definitions (the
	// coordinator rebuilds the property set from them).
	Properties []*qos.Property
	// Weights is the requester's preference vector.
	Weights qos.Weights
	// Local holds the activity's local constraints; candidates violating
	// them are dropped device-side before clustering.
	Local qos.Constraints
	// K is the cluster count per property.
	K int
	// Seeding selects the K-means initialisation.
	Seeding cluster.Seeding
	// Seed drives the coordinator's K-means randomness.
	Seed int64
}

// LocalSelector is a device able to run the local phase for an activity.
type LocalSelector interface {
	LocalSelect(ctx context.Context, req LocalRequest) (*LocalResult, error)
}

// evalLocalRequest runs the local phase for one activity over the given
// candidate view: local-constraint filtering, then clustering-based
// ranking. It is the single code path shared by coordinator devices and
// the requester's degraded fallback, so a fallback computes exactly what
// the lost coordinator would have (same seed, same result).
func evalLocalRequest(origin string, cands []registry.Candidate, req LocalRequest) (*LocalResult, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("core: %s hosts no candidates for %q", origin, req.ActivityID)
	}
	ps, err := qos.NewPropertySet(req.Properties...)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", origin, err)
	}
	if len(req.Local) > 0 {
		if err := req.Local.Validate(ps); err != nil {
			return nil, fmt.Errorf("core: %s: %w", origin, err)
		}
		kept := make([]registry.Candidate, 0, len(cands))
		for _, c := range cands {
			if req.Local.Satisfied(ps, c.Vector) {
				kept = append(kept, c)
			}
		}
		if len(kept) == 0 {
			return nil, fmt.Errorf("core: %s: no candidate for %q meets the local constraints",
				origin, req.ActivityID)
		}
		cands = kept
	}
	return localSelect(req.ActivityID, cands, ps, req.Weights, req.K, req.Seeding, randx.New(req.Seed))
}

// DeviceNode is a coordinator device holding candidate services for a
// set of activities; it serves LocalSelect either in-process or behind a
// TCP endpoint (see ServeTCP).
type DeviceNode struct {
	// Name identifies the device (diagnostics only).
	Name string
	// Latency simulates the wireless round-trip added to every request
	// served by this device.
	Latency time.Duration

	mu         sync.RWMutex
	candidates map[string][]registry.Candidate
}

// NewDeviceNode creates an empty coordinator device.
func NewDeviceNode(name string, latency time.Duration) *DeviceNode {
	return &DeviceNode{
		Name:       name,
		Latency:    latency,
		candidates: make(map[string][]registry.Candidate),
	}
}

// Host assigns the candidate list of an activity to this device.
func (d *DeviceNode) Host(activityID string, cands []registry.Candidate) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.candidates[activityID] = append([]registry.Candidate(nil), cands...)
}

// Activities returns the activity IDs the device hosts.
func (d *DeviceNode) Activities() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.candidates))
	for id := range d.candidates {
		out = append(out, id)
	}
	return out
}

var _ LocalSelector = (*DeviceNode)(nil)

// LocalSelect runs the local phase for one hosted activity.
func (d *DeviceNode) LocalSelect(ctx context.Context, req LocalRequest) (*LocalResult, error) {
	ctx, span := obs.StartSpan(ctx, "device.localselect")
	span.Annotate("device", d.Name)
	span.Annotate("activity", req.ActivityID)
	defer span.End()
	if hub := obs.HubFrom(ctx); hub != nil {
		hub.Metrics.Counter("qasom_device_localselect_total",
			"Local-phase requests served by this coordinator device.").Inc()
	}
	if d.Latency > 0 {
		t := time.NewTimer(d.Latency)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, resilience.CauseErr(ctx)
		}
	}
	d.mu.RLock()
	cands := d.candidates[req.ActivityID]
	d.mu.RUnlock()
	return evalLocalRequest(fmt.Sprintf("device %q", d.Name), cands, req)
}

// DistConfig configures the resilience behaviour of a distributed
// selector.
type DistConfig struct {
	// Policy bounds every per-coordinator exchange (zero value: the
	// resilience defaults — 3 attempts, 5ms..250ms jittered backoff,
	// breaker at 4 consecutive failures). Set HedgeDelay to fire hedged
	// requests at replicas.
	Policy resilience.Policy
	// Fallback, when non-nil, holds the requester's own registry view
	// per activity: on exhausted policy the requester runs that
	// activity's local phase itself (graceful degradation) instead of
	// failing the selection, and flags the result degraded.
	Fallback map[string][]registry.Candidate
}

// DistributedSelector fans the local phase out to the coordinator
// replicas of every activity (in parallel, policy-wrapped) and runs the
// global phase on the gathered shortlists. Breaker state persists
// across Select calls, so a coordinator that kept failing is skipped
// until its cooldown expires.
type DistributedSelector struct {
	selector *Selector
	replicas map[string][]Transport
	policy   resilience.Policy
	fallback map[string][]registry.Candidate
	breakers *resilience.BreakerSet
}

// NewDistributedSelector builds a distributed selector; devices maps
// every task activity to the coordinator responsible for it (one
// in-process replica per activity, default policy, no fallback view —
// the transparent upgrade of the pre-resilience constructor).
func NewDistributedSelector(opts Options, devices map[string]LocalSelector) *DistributedSelector {
	replicas := make(map[string][]Transport, len(devices))
	for id, sel := range devices {
		name := "inproc/" + id
		if dn, ok := sel.(*DeviceNode); ok && dn.Name != "" {
			name = dn.Name
		}
		replicas[id] = []Transport{&InProcessTransport{Name: name, Selector: sel}}
	}
	return NewResilientDistributedSelector(opts, replicas, DistConfig{})
}

// NewResilientDistributedSelector builds a distributed selector over an
// explicit replica map: every activity may be held by several
// coordinators (retries rotate across them, hedges race them), and the
// config supplies the shared policy and the degraded-fallback view.
func NewResilientDistributedSelector(opts Options, replicas map[string][]Transport, cfg DistConfig) *DistributedSelector {
	cp := make(map[string][]Transport, len(replicas))
	for id, list := range replicas {
		cp[id] = append([]Transport(nil), list...)
	}
	var fb map[string][]registry.Candidate
	if cfg.Fallback != nil {
		fb = make(map[string][]registry.Candidate, len(cfg.Fallback))
		for id, list := range cfg.Fallback {
			fb[id] = append([]registry.Candidate(nil), list...)
		}
	}
	policy := cfg.Policy.WithDefaults()
	var breakers *resilience.BreakerSet
	if policy.BreakerThreshold > 0 {
		breakers = resilience.NewBreakerSet(policy.BreakerThreshold, policy.BreakerCooldown)
	}
	return &DistributedSelector{
		selector: NewSelector(opts),
		replicas: cp,
		policy:   policy,
		fallback: fb,
		breakers: breakers,
	}
}

// distMetrics bundles the distributed selector's telemetry handles; the
// zero value (no hub) is all-nil no-ops.
type distMetrics struct {
	retries      *obs.Counter
	hedges       *obs.Counter
	fallbacks    *obs.Counter
	breakerSkips *obs.Counter
	exchange     *obs.HistogramVec
	exchangeErrs *obs.CounterVec
}

func distMetricsFor(hub *obs.Hub) distMetrics {
	if hub == nil {
		return distMetrics{}
	}
	r := hub.Metrics
	return distMetrics{
		retries: r.Counter("qasom_dist_retries_total",
			"Distributed local-phase exchanges retried after a transient failure."),
		hedges: r.Counter("qasom_dist_hedges_total",
			"Hedged second requests fired at replica coordinators."),
		fallbacks: r.Counter("qasom_dist_fallbacks_total",
			"Activities degraded to requester-side local selection after policy exhaustion."),
		breakerSkips: r.Counter("qasom_dist_breaker_skips_total",
			"Coordinator replicas skipped because their breaker was open."),
		exchange: r.HistogramVec("qasom_dist_exchange_seconds",
			"Per-coordinator exchange latency (successful and failed attempts).", nil, "peer"),
		exchangeErrs: r.CounterVec("qasom_dist_exchange_failures_total",
			"Failed exchanges per coordinator.", "peer"),
	}
}

// observer adapts the metric handles to the resilience attempt hook;
// traceID (when non-empty) tags the per-peer latency series with the
// selection's trace as an exemplar.
func (m distMetrics) observer(traceID string) resilience.AttemptObserver {
	return func(peer string, d time.Duration, err error) {
		m.exchange.With(peer).ObserveExemplar(d.Seconds(), traceID)
		if err != nil {
			m.exchangeErrs.With(peer).Inc()
		}
	}
}

// Select runs the distributed algorithm. The returned result's stats
// report the parallel local-phase wall time and the global-phase time
// separately (the split Fig. VI.12 plots), plus the resilience work
// (retries, hedges, breaker skips, degraded fallbacks).
func (d *DistributedSelector) Select(ctx context.Context, req *Request) (*Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	acts := req.Task.Activities()
	opts := d.selector.opts.withDefaults()
	for _, a := range acts {
		if len(d.replicas[a.ID]) == 0 && len(d.fallback[a.ID]) == 0 {
			return nil, fmt.Errorf("core: no device for activity %q", a.ID)
		}
	}
	ctx, span := obs.StartSpan(ctx, "qassa.distributed")
	defer span.End()
	hub := obs.HubFrom(ctx)
	met := distMetricsFor(hub)
	traceID := span.TraceID()
	observer := met.observer(traceID)

	startLocal := time.Now()
	type reply struct {
		lr       *LocalResult
		rst      resilience.Stats
		degraded bool
		cause    string
		err      error
	}
	replies := make([]reply, len(acts))
	var wg sync.WaitGroup
	for i, a := range acts {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			lreq := LocalRequest{
				ActivityID: id,
				Properties: req.Properties.Properties(),
				Weights:    req.weights(),
				Local:      req.Local[id],
				K:          opts.K,
				Seeding:    opts.Seeding,
				Seed:       opts.Seed,
			}
			reps := d.replicas[id]
			targets := make([]resilience.Target[*LocalResult], len(reps))
			for j, tr := range reps {
				tr := tr
				targets[j] = resilience.Target[*LocalResult]{
					Peer: tr.Peer(),
					Call: func(actx context.Context) (*LocalResult, error) {
						return tr.Exchange(actx, lreq)
					},
				}
			}
			// Backoff jitter derives from (seed, activity index): runs are
			// reproducible, goroutines never share a source.
			rng := randx.Derive(opts.Seed, int64(i))
			var lr *LocalResult
			var rst resilience.Stats
			var err error
			if len(targets) > 0 {
				lr, rst, err = resilience.Execute(ctx, d.policy, d.breakers, rng, targets, observer)
			} else {
				err = resilience.AsRetryable(fmt.Errorf("core: no coordinator holds activity %q", id))
			}
			if err != nil && resilience.ClassOf(err) != resilience.Canceled {
				if cands := d.fallback[id]; len(cands) > 0 {
					// Graceful degradation: the requester runs the local
					// phase itself from its registry view — exactly what
					// the lost coordinator would have computed.
					flr, ferr := evalLocalRequest(fmt.Sprintf("requester (degraded, activity %q)", id), cands, lreq)
					if ferr == nil {
						replies[i] = reply{lr: flr, rst: rst, degraded: true, cause: err.Error()}
						return
					}
					err = errors.Join(err, ferr)
				}
			}
			replies[i] = reply{lr: lr, rst: rst, err: err}
		}(i, a.ID)
	}
	wg.Wait()

	locals := make(map[string]*LocalResult, len(acts))
	var (
		errs     []error
		rst      resilience.Stats
		degraded int
		causes   map[string]string
	)
	for i, a := range acts {
		r := replies[i]
		rst.Add(r.rst)
		if r.err != nil {
			errs = append(errs, fmt.Errorf("activity %q: %w", a.ID, r.err))
			continue
		}
		if r.degraded {
			degraded++
			if causes == nil {
				causes = make(map[string]string)
			}
			causes[a.ID] = r.cause
			met.fallbacks.Inc()
		}
		locals[a.ID] = r.lr
	}
	met.retries.Add(uint64(rst.Retries))
	met.hedges.Add(uint64(rst.Hedges))
	met.breakerSkips.Add(uint64(rst.BreakerSkips))
	if len(errs) > 0 {
		err := fmt.Errorf("core: distributed local phase failed: %w", errors.Join(errs...))
		span.Annotate("error", err.Error())
		if cerr := resilience.CauseErr(ctx); cerr != nil {
			span.Annotate("cause", cerr.Error())
		}
		return nil, err
	}
	localDur := time.Since(startLocal)

	res, err := d.selector.SelectFromLocalContext(ctx, req, locals)
	if err != nil {
		return nil, err
	}
	res.Stats.LocalDuration = localDur
	res.Stats.Retries = rst.Retries
	res.Stats.Hedges = rst.Hedges
	res.Stats.BreakerSkips = rst.BreakerSkips
	res.Stats.Fallbacks = degraded
	res.Stats.DegradedCauses = causes
	res.Degraded = degraded > 0
	if degraded > 0 {
		span.Annotate("degraded", fmt.Sprint(degraded))
	}
	if hub != nil && hub.Flight != nil {
		// The core-layer flight record explains the distributed decision
		// itself (phase split, resilience work, fallback causes, final
		// bindings); a façade compose over this selection adds its own
		// record under the same trace ID. The ring keeps what it is
		// given, and the caller of Select owns res, so the causes map
		// goes in as a copy.
		hub.Flight.Record(&obs.RequestRecord{
			Kind:           "dist-select",
			TraceID:        traceID,
			Task:           fmt.Sprintf("%016x", req.Task.Fingerprint()),
			Start:          startLocal,
			Duration:       time.Since(startLocal),
			Phases:         obs.PhaseTimings{Local: localDur, Global: res.Stats.GlobalDuration},
			Degraded:       res.Degraded,
			DegradedCauses: maps.Clone(res.Stats.DegradedCauses),
			Retries:        rst.Retries,
			Hedges:         rst.Hedges,
			BreakerSkips:   rst.BreakerSkips,
			Fallbacks:      degraded,
			Feasible:       res.Feasible,
			Utility:        res.Utility,
			Bindings:       res.BindingRecords(),
		})
	}
	return res, nil
}
