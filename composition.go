package qasom

import (
	"context"
	"fmt"
	"sort"
	"time"

	"qasom/internal/adapt"
	"qasom/internal/bpel"
	"qasom/internal/core"
	"qasom/internal/exec"
	"qasom/internal/monitor"
	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/task"
)

// RegisterTaskClass stores a set of behaviourally different but
// functionally equivalent task definitions (abstract-BPEL documents) in
// the task-class repository; behavioural adaptation switches between
// them at run time. All behaviours must declare the same concept.
func (m *Middleware) RegisterTaskClass(name string, bpelDocs ...string) error {
	if len(bpelDocs) == 0 {
		return fmt.Errorf("qasom: task class %q needs at least one behaviour", name)
	}
	behaviours := make([]*task.Task, 0, len(bpelDocs))
	for i, doc := range bpelDocs {
		t, err := bpel.ParseString(doc)
		if err != nil {
			return fmt.Errorf("qasom: behaviour %d of class %q: %w", i, name, err)
		}
		behaviours = append(behaviours, t)
	}
	return m.repo.Register(&task.Class{
		Name:       name,
		Concept:    behaviours[0].Concept,
		Behaviours: behaviours,
	})
}

// TaskClasses returns the names of the registered task classes.
func (m *Middleware) TaskClasses() []string { return m.repo.Names() }

// Composition is a selected, executable service composition.
type Composition struct {
	mw      *Middleware
	runtime *adapt.Runtime
	// task is the resolved task the composition was selected for (its
	// initial behaviour).
	task *taskEntry
	// stats describes the Compose request that produced the composition
	// (the shared Result carries no per-request telemetry); every
	// plan-cache hit points at the read-only hitStats.
	stats *SelectionStats
}

// hitStats is the SelectionStats of every plan-cache hit: no selection
// work ran. Shared and never written.
var hitStats = SelectionStats{CacheHit: true}

// Compose resolves the request: it parses the task, gathers candidate
// services from the registry (semantic matching) and runs QASSA under
// the global constraints. The composition is returned even when
// infeasible (best-effort, Feasible reports false). It is ComposeContext
// with a background context.
func (m *Middleware) Compose(req Request) (*Composition, error) {
	return m.ComposeContext(m.bgCtx, req)
}

// ComposeContext is Compose under a cancellable context. The context
// flows through the whole pipeline — candidate resolution, the parallel
// QASSA local phase and the level-wise global phase — and cancellation
// is honoured at per-activity lookup, level-iteration and repair-pass
// boundaries: the call returns ctx.Err() promptly and leaves the
// registry and the ontology unmutated. ComposeContext is safe to call
// from many goroutines against one Middleware, concurrently with
// Publish/Withdraw.
//
// A plan-cache hit reads the clock three times: the start (root span,
// flight record and resolve phase), the end of task resolution, and the
// end of the request (root span, flight-record duration and latency
// exemplar).
func (m *Middleware) ComposeContext(ctx context.Context, req Request) (*Composition, error) {
	if ctx != m.bgCtx {
		ctx = obs.EnsureHub(ctx, m.obs)
	}
	start := time.Now()
	ctx, span := obs.StartSpanAt(ctx, "compose", start)
	m.met.composeTotal.Inc()
	m.met.tenantRequests.Inc()
	rec := obs.RequestRecord{
		Kind:    "compose",
		TraceID: span.TraceID(),
		Tenant:  m.tenant,
		Start:   start,
	}
	comp, err := m.compose(ctx, req, &rec)
	end := time.Now()
	rec.Duration = end.Sub(start)
	m.met.composeSeconds.ObserveExemplarAt(rec.Duration.Seconds(), rec.TraceID, end)
	m.met.observePhases(rec.Phases)
	if err != nil {
		m.met.composeErrors.Inc()
		span.Annotate("error", err.Error())
		rec.Err = err.Error()
	} else if !comp.Feasible() {
		m.met.composeInfeasible.Inc()
	}
	m.obs.Flight.Record(&rec)
	span.EndAt(end)
	return comp, err
}

// compose is the body of ComposeContext, with the per-call telemetry
// (root span, outcome counters, end-to-end latency, phase histograms,
// flight record) applied around it. rec is filled in as the pipeline
// progresses so a failed call still documents how far it got; its
// Phases are the one record of this request's phase timings. rec.Start
// is the start of task resolution.
func (m *Middleware) compose(ctx context.Context, req Request, rec *obs.RequestRecord) (*Composition, error) {
	te, err := m.resolveTask(req.Task)
	rec.Phases.Resolve = time.Since(rec.Start)
	if err != nil {
		return nil, err
	}
	rec.Task = te.id
	t := te.task
	if m.opts.ParetoMode && req.Distributed {
		return nil, fmt.Errorf("qasom: ParetoMode selections are centralized-only: per-coordinator fronts cannot be merged by the distributed protocol")
	}
	if !m.opts.ParetoMode && len(req.Objectives) > 0 {
		return nil, fmt.Errorf("qasom: Objectives require a middleware created with Options.ParetoMode")
	}
	coreReq := &core.Request{
		Task:       t,
		Properties: m.props,
		Objectives: req.Objectives,
	}
	for _, d := range req.Dependencies {
		cd, err := d.toCore()
		if err != nil {
			return nil, err
		}
		coreReq.Dependencies = append(coreReq.Dependencies, cd)
	}
	for _, c := range req.Constraints {
		coreReq.Constraints = append(coreReq.Constraints, qos.Constraint{Property: c.Property, Bound: c.Bound})
	}
	if req.Weights != nil {
		w := make(qos.Weights, m.props.Len())
		for name, v := range req.Weights {
			j, ok := m.props.Index(name)
			if !ok {
				return nil, fmt.Errorf("qasom: unknown weight property %q", name)
			}
			w[j] = v
		}
		coreReq.Weights = w
	}
	switch req.Approach {
	case "", "pessimistic":
		coreReq.Approach = qos.Pessimistic
	case "optimistic":
		coreReq.Approach = qos.Optimistic
	case "mean-value", "mean":
		coreReq.Approach = qos.MeanValue
	default:
		return nil, fmt.Errorf("qasom: unknown approach %q", req.Approach)
	}

	// Serving-mode fast path: selections are deterministic per seed, so a
	// completed plan can be replayed verbatim as long as no capability the
	// task touches has changed — which the registry epochs certify. The
	// snapshot is taken before candidate lookup (see planEpochs).
	// Dependency-carrying requests bypass the cache: rules are not part
	// of the plan key, so two requests differing only in rules would
	// collide. (Pareto mode never reaches here with a live cache — New
	// disables it.) The local memo under the plan cache reads the same
	// snapshot; rules never reach the local phase, so only distributed
	// requests, whose local phases run on coordinator devices, bypass it.
	cacheable := m.plans != nil && !req.Distributed && len(req.Dependencies) == 0
	memoised := m.locals != nil && !req.Distributed
	var planKey string
	var planEpochSnap []uint64
	var epochBuf [16]uint64 // put copies it on a miss
	if memoised {
		planEpochSnap = m.planEpochs(epochBuf[:0], te)
	}
	if cacheable {
		// A finished context must fail promptly even when the answer is
		// one cache probe away — callers rely on ctx.Err() surfacing.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		planKey = planCacheKey(te, coreReq)
		e, outcome := m.plans.lookup(planKey, planEpochSnap)
		if e != nil {
			rec.CacheHit = true
			fillSelectionRecord(rec, e.res, e.bindings)
			return m.wrapComposition(te, coreReq, e.res, &hitStats), nil
		}
		rec.CacheMiss = outcome.missCause()
	}

	lookupStart := time.Now()
	var src core.CandidateSource = m.reg
	var memo *memoGather
	if memoised {
		memo = m.newMemoGather(te, coreReq.EffectiveWeights(), planEpochSnap)
		src = memo
	}
	candidates, err := core.GatherCandidates(ctx, t, src, m.props)
	rec.Phases.Lookup = time.Since(lookupStart)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, fmt.Errorf("qasom: %w", err)
	}

	var res *core.Result
	if req.Distributed {
		replicas := make(map[string][]core.Transport, len(candidates))
		for id, list := range candidates {
			dev := core.NewDeviceNode("dev-"+id, 2*time.Millisecond)
			dev.Host(id, list)
			replicas[id] = []core.Transport{&core.InProcessTransport{Name: dev.Name, Selector: dev}}
		}
		// The façade keeps the middleware's own registry view as the
		// degradation fallback: a lost coordinator downgrades the
		// selection (Stats.Fallbacks, Result.Degraded) instead of
		// failing the composition.
		res, err = core.NewResilientDistributedSelector(
			core.Options{Seed: m.opts.Seed},
			replicas,
			core.DistConfig{Fallback: candidates},
		).Select(ctx, coreReq)
	} else if memo != nil {
		var locals map[string]*core.LocalResult
		res, locals, err = m.selector.SelectReusing(ctx, coreReq, candidates, memo.known)
		if err == nil {
			rec.Events = append(rec.Events, memo.store(candidates, locals))
		}
	} else {
		res, err = m.selector.SelectContext(ctx, coreReq, candidates)
	}
	if err != nil {
		return nil, err
	}
	// Phase timings describe this request only, so they are recorded on
	// the miss path: a hit ran none of these phases.
	rec.Phases.Local = res.Stats.LocalDuration
	rec.Phases.Global = res.Stats.GlobalDuration
	fillSelectionRecord(rec, res, res.BindingRecords())
	if m.opts.ParetoMode {
		m.met.paretoFrontSize.Observe(float64(res.Stats.FrontSize))
		rec.Events = append(rec.Events, fmt.Sprintf("pareto-front-size=%d", res.Stats.FrontSize))
	}
	if cacheable {
		m.plans.put(planKey, planEpochSnap, res)
	}
	st := res.Stats
	return m.wrapComposition(te, coreReq, res, &SelectionStats{
		CandidateLookup: rec.Phases.Lookup,
		LocalPhase:      rec.Phases.Local,
		GlobalPhase:     rec.Phases.Global,
		Workers:         st.Workers,
		PeakWorkersBusy: st.PeakWorkersBusy,
		LevelsExplored:  st.LevelsExplored,
		Evaluations:     st.Evaluations,
		RepairSwaps:     st.RepairSwaps,
		Retries:         st.Retries,
		Hedges:          st.Hedges,
		BreakerSkips:    st.BreakerSkips,
		Fallbacks:       st.Fallbacks,
		Degraded:        res.Degraded,
		FrontSize:       st.FrontSize,
	}), nil
}

// fillSelectionRecord copies the selection outcome into the flight
// record: resilience/degradation counters and the final bindings with
// their per-activity utility contributions (res.BindingRecords(); a hit
// passes the plan entry's shared, never-written copy, which the flight
// recorder keeps without copying).
func fillSelectionRecord(rec *obs.RequestRecord, res *core.Result, bindings []obs.BindingRecord) {
	rec.Degraded = res.Degraded
	rec.DegradedCauses = res.Stats.DegradedCauses
	rec.Retries = res.Stats.Retries
	rec.Hedges = res.Stats.Hedges
	rec.BreakerSkips = res.Stats.BreakerSkips
	rec.Fallbacks = res.Stats.Fallbacks
	rec.Feasible = res.Feasible
	rec.Utility = res.Utility
	rec.Bindings = bindings
}

// wrapComposition attaches an adaptation runtime to a selection result
// (freshly computed or replayed from the plan cache) and the stats of
// the request that produced it; the middleware's one adaptation manager
// serves it.
func (m *Middleware) wrapComposition(te *taskEntry, coreReq *core.Request, res *core.Result, stats *SelectionStats) *Composition {
	return &Composition{mw: m, runtime: adapt.NewRuntime(coreReq, res), task: te, stats: stats}
}

// resolveTask accepts an abstract-BPEL document or the name of a
// registered task-class behaviour. Names resolve through the task-class
// repository on every call, and their interned entry is reused only
// while it still holds the registered behaviour (re-registering a class
// replaces its behaviours). Documents are parsed once and then served
// from the intern table. A malformed document is never interned, so it
// fails with the same parse error every time.
func (m *Middleware) resolveTask(spec string) (*taskEntry, error) {
	if spec == "" {
		return nil, fmt.Errorf("qasom: empty task")
	}
	var t *task.Task
	// A registered behaviour name?
	if class := m.repo.ClassOf(spec); class != nil {
		for _, b := range class.Behaviours {
			if b.Name == spec {
				t = b
				break
			}
		}
	}
	if te := m.tasks.lookup(spec); te != nil && (te.task == t || t == nil && !te.named) {
		return te, nil
	}
	named := t != nil
	if !named {
		var err error
		if t, err = bpel.ParseString(spec); err != nil {
			return nil, err
		}
	}
	te := newTaskEntry(t)
	te.named = named
	m.tasks.store(spec, te)
	return te, nil
}

// SelectionStats attributes the cost of the Compose request that
// produced this composition: where the time went (candidate lookup vs.
// QASSA's local and global phases, the same durations the request's
// flight record holds) and how parallel the local phase actually ran. A
// plan-cache hit ran none of that work and reports CacheHit with every
// other field zero.
type SelectionStats struct {
	// CandidateLookup is the time spent resolving candidates from the
	// registry (semantic matching, vector alignment).
	CandidateLookup time.Duration
	// LocalPhase and GlobalPhase split QASSA's wall time.
	LocalPhase, GlobalPhase time.Duration
	// Workers is the local-phase worker pool size; PeakWorkersBusy the
	// highest concurrent occupancy observed.
	Workers, PeakWorkersBusy int
	// LevelsExplored, Evaluations and RepairSwaps count global-phase
	// work; Evaluations counts the evaluations made by the global search.
	LevelsExplored, Evaluations, RepairSwaps int
	// Retries, Hedges, BreakerSkips and Fallbacks count the resilience
	// layer's work during distributed selection (all zero for a
	// centralized selection or a fault-free distributed one).
	Retries, Hedges, BreakerSkips, Fallbacks int
	// Degraded reports that at least one activity's coordinator was
	// unreachable and the requester ran that local phase itself.
	Degraded bool
	// CacheHit reports that this composition was served from the
	// selection-plan cache: the bindings are bit-identical to a fresh
	// selection at the same registry epoch, and no selection work ran.
	CacheHit bool
	// FrontSize is the number of non-dominated compositions the
	// Pareto-front mode returned (0 in scalar mode).
	FrontSize int
}

// SelectionStats returns the work profile of the Compose request that
// produced this composition; adaptation after Compose does not change it.
func (c *Composition) SelectionStats() SelectionStats { return *c.stats }

// Feasible reports whether the selection satisfies every constraint.
func (c *Composition) Feasible() bool {
	var ok bool
	c.runtime.View(func(res *core.Result) { ok = res.Feasible })
	return ok
}

// Utility returns the composition utility F in [0,1].
func (c *Composition) Utility() float64 {
	var u float64
	c.runtime.View(func(res *core.Result) { u = res.Utility })
	return u
}

// Bindings maps activity IDs to the selected service IDs.
func (c *Composition) Bindings() map[string]string {
	var out map[string]string
	c.runtime.View(func(res *core.Result) {
		out = make(map[string]string, len(res.Assignment))
		for act, cand := range res.Assignment {
			out[act] = string(cand.Service.ID)
		}
	})
	return out
}

// FrontMember is one non-dominated composition of a Pareto-mode
// selection: a complete binding with its aggregated QoS and scalarized
// utility. Members are mutually non-dominated over the request's
// Objectives — picking between them is the caller's trade-off to make.
type FrontMember struct {
	// Bindings maps activity IDs to service IDs.
	Bindings map[string]string
	// QoS is the aggregated end-to-end QoS per property name.
	QoS map[string]float64
	// Utility is the member's scalarized utility F in [0,1] under the
	// request's weights.
	Utility float64
}

// Front returns the Pareto front of this composition's selection,
// best-scalarized member first; the first member is the binding the
// composition itself carries. Empty in scalar mode and for infeasible
// Pareto selections.
func (c *Composition) Front() []FrontMember {
	var out []FrontMember
	names := c.mw.props.Names()
	c.runtime.View(func(res *core.Result) {
		out = make([]FrontMember, len(res.Front))
		for i, m := range res.Front {
			fm := FrontMember{
				Bindings: make(map[string]string, len(m.Assignment)),
				QoS:      make(map[string]float64, len(names)),
				Utility:  m.Utility,
			}
			for act, cand := range m.Assignment {
				fm.Bindings[act] = string(cand.Service.ID)
			}
			for j, name := range names {
				fm.QoS[name] = m.Aggregated[j]
			}
			out[i] = fm
		}
	})
	return out
}

// Alternates returns the ranked substitute service IDs for an activity.
// The first call on a plan builds its failover rotation (for every
// activity, once per plan: a cached plan's hits share it), so it costs
// the rotation's probes; later calls only read it.
func (c *Composition) Alternates(activityID string) []string {
	var out []string
	c.runtime.View(func(res *core.Result) {
		alts := res.Alternates()[activityID]
		out = make([]string, len(alts))
		for i, a := range alts {
			out[i] = string(a.Service.ID)
		}
	})
	return out
}

// AggregatedQoS returns the composition's aggregated QoS per property.
func (c *Composition) AggregatedQoS() map[string]float64 {
	out := make(map[string]float64, c.mw.props.Len())
	c.runtime.View(func(res *core.Result) {
		for j, name := range c.mw.props.Names() {
			out[name] = res.Aggregated[j]
		}
	})
	return out
}

// Behaviour returns the name of the behaviour currently executing.
func (c *Composition) Behaviour() string { return c.runtime.Behaviour().Name }

// behaviourID is the flight-record task ID of the running behaviour:
// the resolved task's precomputed ID until a behavioural switch.
func (c *Composition) behaviourID() string {
	if b := c.runtime.Behaviour(); b != c.task.task {
		return obs.HexID(b.Fingerprint())
	}
	return c.task.id
}

// Report documents one execution.
type Report struct {
	// Completed reports whether the whole task finished.
	Completed bool
	// Substitutions counts service substitutions applied.
	Substitutions int
	// BehaviourSwitches counts behavioural adaptations applied.
	BehaviourSwitches int
	// Invocations counts service invocation attempts.
	Invocations int
	// Failures counts failed attempts.
	Failures int
	// Duration is the wall time of the execution.
	Duration time.Duration
}

// Execute runs the composition over the simulated environment with the
// full adaptation loop: dynamic binding, monitoring, substitution on
// failure and behavioural adaptation when substitution is exhausted.
func (m *Middleware) Execute(ctx context.Context, c *Composition) (*Report, error) {
	ctx = obs.EnsureHub(ctx, m.obs)
	ctx, span := obs.StartSpan(ctx, "execute")
	m.met.executeTotal.Inc()
	report := &Report{}
	start := time.Now()
	var retErr error
	defer func() {
		report.Duration = time.Since(start)
		m.met.executeSeconds.ObserveExemplar(report.Duration.Seconds(), span.TraceID())
		if retErr != nil {
			m.met.executeErrors.Inc()
			span.Annotate("error", retErr.Error())
		}
		rec := obs.RequestRecord{
			Kind:     "execute",
			TraceID:  span.TraceID(),
			Tenant:   m.tenant,
			Task:     c.behaviourID(),
			Start:    start,
			Duration: report.Duration,
			Feasible: report.Completed,
			Events: []string{
				fmt.Sprintf("invocations=%d", report.Invocations),
			},
		}
		if report.Failures > 0 {
			rec.Events = append(rec.Events, fmt.Sprintf("failures=%d", report.Failures))
		}
		if report.Substitutions > 0 {
			rec.Events = append(rec.Events, fmt.Sprintf("substitutions=%d", report.Substitutions))
		}
		if report.BehaviourSwitches > 0 {
			rec.Events = append(rec.Events, fmt.Sprintf("behaviour-switches=%d", report.BehaviourSwitches))
		}
		// Failover accounting: how the substitutions of this (and
		// previous) executions of the composition were served.
		fs := c.runtime.FailoverStats()
		if fs.RotationHits > 0 {
			rec.Events = append(rec.Events, fmt.Sprintf("failover-index-hits=%d", fs.RotationHits))
		}
		if fs.Exhausted > 0 {
			rec.Events = append(rec.Events, fmt.Sprintf("failover-fallback-exhausted=%d", fs.Exhausted))
		}
		if retErr != nil {
			rec.Err = retErr.Error()
		}
		m.obs.Flight.Record(&rec)
		span.End()
	}()

	// A previously completed composition re-executes from the start
	// (repeated runs of the same task, e.g. streaming segments).
	if _, ok := c.runtime.Remaining(); !ok {
		c.runtime.ResetProgress()
	}

	for round := 0; round < 4; round++ {
		remaining, ok := c.runtime.Remaining()
		if !ok {
			report.Completed = true
			report.Substitutions = c.runtime.Substitutions()
			return report, nil
		}
		execu := &exec.Executor{
			Invoker:    m.env,
			Binder:     c.runtime,
			Monitor:    m.mon,
			OnFailure:  c.mw.manager.FailureHandler(c.runtime),
			OnComplete: c.mw.manager.CompletionHook(c.runtime),
			Options:    exec.Options{Seed: m.opts.Seed + int64(round)},
		}
		trace, err := execu.Run(ctx, remaining)
		report.Invocations += len(trace.Records)
		report.Failures += trace.Failures()
		if err == nil {
			report.Completed = true
			report.Substitutions = c.runtime.Substitutions()
			return report, nil
		}
		if ctx.Err() != nil {
			retErr = ctx.Err()
			return report, retErr
		}
		// Substitution exhausted inside the executor: behavioural
		// adaptation is the second line of defence.
		if _, aerr := c.mw.manager.AdaptBehaviour(c.runtime); aerr != nil {
			report.Substitutions = c.runtime.Substitutions()
			retErr = fmt.Errorf("qasom: execution failed and adaptation impossible: %w (execution: %v)", aerr, err)
			return report, retErr
		}
		report.BehaviourSwitches++
	}
	report.Substitutions = c.runtime.Substitutions()
	retErr = fmt.Errorf("qasom: execution did not converge after repeated adaptation")
	return report, retErr
}

// ExecutableBPEL renders the composition as an executable-BPEL document:
// the abstract process with every activity bound to its selected concrete
// service (Chapter VI §2.4).
func (c *Composition) ExecutableBPEL() ([]byte, error) {
	var bindings map[string]bpel.Binding
	behaviour := c.runtime.Behaviour()
	c.runtime.View(func(res *core.Result) {
		bindings = make(map[string]bpel.Binding, len(res.Assignment))
		for act, cand := range res.Assignment {
			bindings[act] = bpel.Binding{
				Service: string(cand.Service.ID),
				Address: cand.Service.Address,
			}
		}
	})
	return bpel.MarshalExecutable(behaviour, bindings)
}

// Assessment is a composition-level health check against the request's
// constraints, using run-time monitoring data.
type Assessment struct {
	// Current holds the aggregated run-time QoS per property.
	Current map[string]float64
	// Violated lists properties whose constraints the current aggregate
	// breaks.
	Violated []string
	// PredictedViolated lists properties whose constraints the
	// trend-predicted aggregate breaks (the proactive signal).
	PredictedViolated []string
}

// Healthy reports whether nothing is (or is about to be) violated.
func (a Assessment) Healthy() bool {
	return len(a.Violated) == 0 && len(a.PredictedViolated) == 0
}

// Assess checks the composition's run-time QoS against its constraints:
// globally (aggregated over the whole task from monitor estimates,
// falling back to advertised values) and proactively (linear-trend
// prediction `horizon` observations ahead).
func (c *Composition) Assess(horizon int) Assessment {
	var advertised map[string]qos.Vector
	var binding map[string]registry.ServiceID
	c.runtime.View(func(res *core.Result) {
		advertised = make(map[string]qos.Vector, len(res.Assignment))
		binding = make(map[string]registry.ServiceID, len(res.Assignment))
		for act, cand := range res.Assignment {
			advertised[act] = cand.Vector
			binding[act] = cand.Service.ID
		}
	})
	cm := monitor.NewCompositionMonitor(c.runtime.Behaviour(), c.mw.props,
		c.runtime.Req.Constraints, c.runtime.Req.EffectiveApproach(), advertised, binding)
	a := cm.Assess(c.mw.mon, horizon)
	out := Assessment{
		Current:           make(map[string]float64, c.mw.props.Len()),
		Violated:          a.Violated,
		PredictedViolated: a.PredictedViolated,
	}
	for j, name := range c.mw.props.Names() {
		out.Current[name] = a.Current[j]
	}
	return out
}

// Substitute replaces the service bound to an activity with its best
// healthy alternate (the manual trigger for proactive adaptation); it
// returns the substitute's service ID.
func (c *Composition) Substitute(activityID string) (string, error) {
	cand, err := c.mw.manager.Substitute(c.runtime, activityID, nil)
	if err != nil {
		return "", err
	}
	return string(cand.Service.ID), nil
}

// HealReport documents one proactive healing pass.
type HealReport struct {
	// Healthy reports whether the composition ended the pass with no
	// current or predicted violations.
	Healthy bool
	// Substitutions lists "activity: old → new" for each applied swap.
	Substitutions []string
	// BehaviourSwitched reports whether behavioural adaptation ran.
	BehaviourSwitched bool
}

// Heal is the proactive QoS-driven adaptation controller: it assesses
// the composition against its constraints (current and trend-predicted
// aggregates) and, when unhealthy, applies ONE adaptation action — it
// substitutes the worst-contributing bound service, or, when no
// substitution is possible anywhere, falls back to behavioural
// adaptation. One action per call by design: further actions need fresh
// run-time observations of the new binding, so the caller interleaves
// Heal with executions (e.g. one per streaming segment). Healing is
// best-effort: when the environment has nothing better to offer, the
// report returns Healthy=false without error.
func (c *Composition) Heal(horizon int) (*HealReport, error) {
	report := &HealReport{}
	a := c.Assess(horizon)
	if a.Healthy() {
		report.Healthy = true
		return report, nil
	}
	for _, target := range c.contributorsByImpact(a) {
		old := c.Bindings()[target]
		sub, err := c.Substitute(target)
		if err != nil {
			continue
		}
		report.Substitutions = append(report.Substitutions,
			fmt.Sprintf("%s: %s → %s", target, old, sub))
		report.Healthy = c.Assess(horizon).Healthy()
		return report, nil
	}
	if len(a.Violated) == 0 {
		// Only a predicted violation and no degraded substitutable
		// binding: watchful waiting beats churning healthy bindings.
		return report, nil
	}
	// Substitution exhausted everywhere: behavioural adaptation. A
	// fully-completed runtime re-plans from the start.
	if _, done := c.runtime.Remaining(); !done {
		c.runtime.ResetProgress()
	}
	if _, aerr := c.mw.manager.AdaptBehaviour(c.runtime); aerr == nil {
		report.BehaviourSwitched = true
	}
	report.Healthy = c.Assess(horizon).Healthy()
	return report, nil
}

// healDriftMargin is the relative drift beyond the advertised value at
// which a binding counts as degraded (and so substitutable by Heal):
// smaller drifts are normal jitter/link cost, and churning a binding that
// delivers what it promised never helps.
const healDriftMargin = 0.25

// contributorsByImpact returns the activities whose bound services are
// *degraded* — their monitored estimate drifted beyond the advertised
// value by healDriftMargin on the first violated (or predicted-violated)
// property — ordered worst first. Activities still to run come before
// completed ones (between executions everything is completed and all are
// fair game).
func (c *Composition) contributorsByImpact(a Assessment) []string {
	props := a.Violated
	if len(props) == 0 {
		props = a.PredictedViolated
	}
	if len(props) == 0 {
		return nil
	}
	j, ok := c.mw.props.Index(props[0])
	if !ok {
		return nil
	}
	p := c.mw.props.At(j)
	type scored struct {
		act     string
		value   float64
		pending bool
	}
	// Snapshot the bindings under View (the monitor and completion
	// lookups below take their own locks, so they run outside it).
	type bindingRow struct {
		act  string
		cand registry.Candidate
	}
	var rows []bindingRow
	c.runtime.View(func(res *core.Result) {
		rows = make([]bindingRow, 0, len(res.Assignment))
		for act, cand := range res.Assignment {
			rows = append(rows, bindingRow{act: act, cand: cand})
		}
	})
	list := make([]scored, 0, len(rows))
	for _, row := range rows {
		act, cand := row.act, row.cand
		est, has := c.mw.mon.Estimate(cand.Service.ID)
		if !has {
			continue // unobserved: trust the advertisement
		}
		v := est[j]
		advertised := cand.Vector[j]
		degraded := false
		if p.Direction == qos.Minimized {
			degraded = v > advertised*(1+healDriftMargin)
		} else {
			degraded = v < advertised*(1-healDriftMargin)
		}
		if !degraded {
			continue
		}
		list = append(list, scored{act: act, value: v, pending: !c.runtime.Completed(act)})
	}
	sort.SliceStable(list, func(x, y int) bool {
		if list[x].pending != list[y].pending {
			return list[x].pending
		}
		if list[x].value != list[y].value {
			return p.Worse(list[x].value, list[y].value)
		}
		return list[x].act < list[y].act
	})
	out := make([]string, len(list))
	for i, s := range list {
		out[i] = s.act
	}
	return out
}
