// Package exec executes concrete service compositions over the task tree
// with dynamic binding (Chapter I §5): the service actually invoked for
// an activity is chosen just before the invocation, so run-time QoS
// knowledge and substitutions take effect immediately. The executor
// walks the composition patterns (sequences serially, parallel branches
// concurrently, choices by branch probability, loops by iteration draw),
// feeds every observation to the QoS monitor, and hands failures to the
// adaptation callback.
package exec

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"qasom/internal/monitor"
	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/randx"
	"qasom/internal/registry"
	"qasom/internal/resilience"
	"qasom/internal/task"
)

// InvokeResult is the outcome of one service invocation.
type InvokeResult struct {
	// Measured is the observed QoS vector of the invocation.
	Measured qos.Vector
	// Latency is the observed wall time.
	Latency time.Duration
	// Success reports functional success.
	Success bool
}

// Invoker dispatches an invocation to a concrete service. The
// environment simulator provides the production implementation; tests
// stub it.
type Invoker interface {
	Invoke(ctx context.Context, svc registry.ServiceID, act *task.Activity) (InvokeResult, error)
}

// Binder supplies, just before each invocation, the service currently
// bound to an activity (dynamic binding). Parallel branches bind
// concurrently, so implementations must be safe for concurrent use.
type Binder interface {
	Bind(act *task.Activity) (registry.Candidate, error)
}

// BinderFunc adapts a function to the Binder interface.
type BinderFunc func(act *task.Activity) (registry.Candidate, error)

// Bind implements Binder.
func (f BinderFunc) Bind(act *task.Activity) (registry.Candidate, error) { return f(act) }

// FailureHandler reacts to a terminally failed invocation: it may
// return a substitute candidate (retry with it) or an error (abort the
// run). The adaptation manager implements this with service
// substitution. class carries the failure classification the executor
// derived (Terminal for application-level failures; Retryable reaches
// the handler only once the backoff budget is spent), so handlers can
// treat a crashed service differently from a flaky link.
type FailureHandler func(act *task.Activity, failed registry.Candidate, attempt int, class resilience.Class) (registry.Candidate, error)

// Options configure an executor.
type Options struct {
	// Seed drives branch and iteration draws (and backoff jitter); 0
	// means 1.
	Seed int64
	// Policy is the shared resilience policy: retryable failures
	// (transient link drops, per-attempt deadline expiry) back off and
	// retry the same binding before substitution — the terminal-failure
	// handler — is consulted. Policy.MaxAttempts bounds invocation
	// attempts per activity (including the first). The zero value
	// resolves to the resilience defaults (3 attempts).
	Policy resilience.Policy
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	o.Policy = o.Policy.WithDefaults()
	return o
}

// Record documents one invocation attempt.
type Record struct {
	Activity    string
	Service     registry.ServiceID
	Latency     time.Duration
	Success     bool
	Substituted bool
	// Err carries the failure cause of an unsuccessful attempt (the
	// invoker's error, or "service reported failure" when the service
	// answered but flagged functional failure); empty on success.
	Err string
}

// Trace is the complete execution record of one run.
type Trace struct {
	mu       sync.Mutex
	Records  []Record
	Duration time.Duration
}

func (t *Trace) add(r Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Records = append(t.Records, r)
}

// Substitutions counts the attempts served by a substitute service.
func (t *Trace) Substitutions() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, r := range t.Records {
		if r.Substituted {
			n++
		}
	}
	return n
}

// Failures counts failed attempts.
func (t *Trace) Failures() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, r := range t.Records {
		if !r.Success {
			n++
		}
	}
	return n
}

// Executor runs compositions. Fields must be set before Run; the zero
// value is not usable without an Invoker and a Binder.
type Executor struct {
	// Invoker dispatches invocations.
	Invoker Invoker
	// Binder performs dynamic binding.
	Binder Binder
	// Monitor, when set, receives every observation.
	Monitor *monitor.Monitor
	// OnFailure, when set, is consulted after each failed attempt.
	OnFailure FailureHandler
	// OnComplete, when set, is called after each successfully executed
	// activity (the adaptation manager tracks progress with it).
	OnComplete func(activityID string)
	// Options tune retries and randomness.
	Options Options
}

// Run executes the task to completion or first unrecoverable failure.
func (e *Executor) Run(ctx context.Context, t *task.Task) (*Trace, error) {
	if e.Invoker == nil || e.Binder == nil {
		return nil, fmt.Errorf("exec: executor needs an Invoker and a Binder")
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	opts := e.Options.withDefaults()
	trace := &Trace{}
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "exec.run")
	defer span.End()
	run := &runState{
		exec:    e,
		opts:    opts,
		trace:   trace,
		met:     execMetricsFor(obs.HubFrom(ctx)),
		traceID: span.TraceID(),
		rng:     randx.New(opts.Seed),
	}
	err := run.node(ctx, t.Root)
	trace.Duration = time.Since(start)
	if err != nil {
		span.Annotate("error", err.Error())
		return trace, err
	}
	return trace, nil
}

// execMetrics bundles the executor's registry handles; the zero value
// (no hub) is a full set of nil no-op handles, so the run state never
// branches on "is telemetry on".
type execMetrics struct {
	invocations   *obs.Counter
	failures      *obs.Counter
	retries       *obs.Counter
	substitutions *obs.Counter
	latency       *obs.Histogram
}

func execMetricsFor(hub *obs.Hub) execMetrics {
	if hub == nil {
		return execMetrics{}
	}
	r := hub.Metrics
	return execMetrics{
		invocations: r.Counter("qasom_exec_invocations_total",
			"Service invocation attempts (including retries after substitution)."),
		failures: r.Counter("qasom_exec_failures_total",
			"Failed invocation attempts."),
		retries: r.Counter("qasom_exec_retries_total",
			"Invocations retried on the same binding after a retryable failure (backoff path)."),
		substitutions: r.Counter("qasom_exec_substitutions_total",
			"Invocation attempts served by a substitute service."),
		latency: r.Histogram("qasom_exec_invoke_seconds",
			"Observed per-invocation latency.", nil),
	}
}

type runState struct {
	exec  *Executor
	opts  Options
	trace *Trace
	met   execMetrics
	// traceID tags the invoke-latency histogram with this run's trace
	// as an exemplar (empty when tracing is off).
	traceID string

	mu  sync.Mutex
	rng *rand.Rand
}

// draw runs f under the rng lock (parallel branches share the source).
func (r *runState) draw(f func(*rand.Rand) int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return f(r.rng)
}

func (r *runState) node(ctx context.Context, n *task.Node) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	switch n.Kind {
	case task.PatternActivity:
		return r.activity(ctx, n.Activity)
	case task.PatternSequence:
		for _, c := range n.Children {
			if err := r.node(ctx, c); err != nil {
				return err
			}
		}
		return nil
	case task.PatternParallel:
		return r.parallel(ctx, n.Children)
	case task.PatternChoice:
		return r.node(ctx, n.Children[r.chooseBranch(n)])
	case task.PatternLoop:
		iters := r.loopIterations(n.Loop)
		for i := 0; i < iters; i++ {
			if err := r.node(ctx, n.Children[0]); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("exec: unknown pattern %v", n.Kind)
	}
}

func (r *runState) parallel(ctx context.Context, children []*task.Node) error {
	errs := make([]error, len(children))
	var wg sync.WaitGroup
	for i, c := range children {
		wg.Add(1)
		go func(i int, c *task.Node) {
			defer wg.Done()
			errs[i] = r.node(ctx, c)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *runState) chooseBranch(n *task.Node) int {
	return r.draw(func(rng *rand.Rand) int {
		if n.Probs == nil {
			return rng.Intn(len(n.Children))
		}
		total := 0.0
		for _, p := range n.Probs {
			total += p
		}
		if total <= 0 {
			return rng.Intn(len(n.Children))
		}
		target := rng.Float64() * total
		acc := 0.0
		for i, p := range n.Probs {
			acc += p
			if target < acc {
				return i
			}
		}
		return len(n.Children) - 1
	})
}

func (r *runState) loopIterations(l qos.Loop) int {
	if l.Max <= l.Min {
		return l.Min
	}
	return l.Min + r.draw(func(rng *rand.Rand) int { return rng.Intn(l.Max - l.Min + 1) })
}

// backoff draws the policy backoff for the given retry under the rng
// lock (parallel branches share the jitter source).
func (r *runState) backoff(retry int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.opts.Policy.Backoff(retry, r.rng)
}

// activity performs dynamic binding and invocation under the shared
// resilience policy: retryable failures (transient link drops,
// per-attempt deadline expiry) back off and retry the same binding;
// terminal failures (the service answered and failed, or is gone) go to
// the terminal-failure handler — service substitution.
func (r *runState) activity(ctx context.Context, act *task.Activity) error {
	cand, err := r.exec.Binder.Bind(act)
	if err != nil {
		return fmt.Errorf("exec: binding %q: %w", act.ID, err)
	}
	if cand.Service == nil {
		return fmt.Errorf("exec: binding %q: binder returned no service", act.ID)
	}
	substituted := false
	retries := 0
	var lastCause error
	for attempt := 1; attempt <= r.opts.Policy.MaxAttempts; attempt++ {
		_, span := obs.StartSpan(ctx, "exec.invoke")
		span.Annotate("activity", act.ID)
		span.Annotate("service", string(cand.Service.ID))
		span.Annotate("attempt", fmt.Sprint(attempt))
		ictx := ctx
		cancelAttempt := func() {}
		if r.opts.Policy.AttemptTimeout > 0 {
			ictx, cancelAttempt = context.WithTimeout(ctx, r.opts.Policy.AttemptTimeout)
		}
		res, err := r.exec.Invoker.Invoke(ictx, cand.Service.ID, act)
		cancelAttempt()
		rec := Record{
			Activity:    act.ID,
			Service:     cand.Service.ID,
			Latency:     res.Latency,
			Success:     err == nil && res.Success,
			Substituted: substituted,
		}
		r.met.invocations.Inc()
		if substituted {
			r.met.substitutions.Inc()
		}
		if res.Latency > 0 {
			r.met.latency.ObserveExemplar(res.Latency.Seconds(), r.traceID)
		}
		var class resilience.Class
		if !rec.Success {
			lastCause = errOrFailure(err)
			class = resilience.ClassOf(lastCause)
			rec.Err = lastCause.Error()
			span.Annotate("error", rec.Err)
			span.Annotate("class", class.String())
			r.met.failures.Inc()
		}
		span.End()
		r.trace.add(rec)
		if r.exec.Monitor != nil && res.Measured != nil {
			_ = r.exec.Monitor.Report(monitor.Observation{
				Service: cand.Service.ID,
				Vector:  res.Measured,
				Time:    time.Now(),
				Success: rec.Success,
			})
		}
		if rec.Success {
			if r.exec.OnComplete != nil {
				r.exec.OnComplete(act.ID)
			}
			return nil
		}
		if cerr := resilience.CauseErr(ctx); cerr != nil {
			return cerr
		}
		if class == resilience.Retryable && attempt < r.opts.Policy.MaxAttempts {
			// Transient failure: back off and retry the same binding
			// before burning an alternate on it.
			r.met.retries.Inc()
			if !resilience.Sleep(ctx, r.backoff(retries)) {
				return resilience.CauseErr(ctx)
			}
			retries++
			continue
		}
		if r.exec.OnFailure == nil {
			return fmt.Errorf("exec: activity %q failed on %q: %w", act.ID, cand.Service.ID, lastCause)
		}
		next, ferr := r.exec.OnFailure(act, cand, attempt, class)
		if ferr != nil {
			return fmt.Errorf("exec: activity %q unrecoverable: %w", act.ID, ferr)
		}
		if next.Service == nil {
			return fmt.Errorf("exec: activity %q unrecoverable: failure handler returned no service", act.ID)
		}
		substituted = next.Service.ID != cand.Service.ID
		cand = next
	}
	return fmt.Errorf("exec: activity %q failed after %d attempts (last cause: %w)",
		act.ID, r.opts.Policy.MaxAttempts, lastCause)
}

func errOrFailure(err error) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("service reported failure")
}
