// Package adapt implements QoS-driven composition adaptation (Chapter V):
// the run-time state of a composition, the service-substitution strategy
// (replace a failing/degraded service with a selection-time alternate)
// and the behavioural-adaptation strategy (switch the remaining work to
// an equivalent behaviour from the task-class repository, found through
// subgraph-homeomorphism matching, then re-run QASSA on the remaining
// subtask under residual constraints).
//
// One Manager serves every composition of a middleware: it holds only
// shared collaborators, and all per-composition state — the selection,
// progress and failover accounting — lives on the composition's Runtime.
//
// Failover is reactive, as in the paper: it checks candidates when a
// substitution is needed. Every Substitute is one walk over the
// runtime's own alternate rotation, under the runtime lock, that probes
// the registry and the monitor for each alternate it reaches and commits
// in the same critical section. Only an exhausted rotation queries the
// registry for services published after selection (the late-service
// rung), with the same probe as the eligibility test.
package adapt

import (
	"fmt"
	"sync"

	"qasom/internal/core"
	"qasom/internal/exec"
	"qasom/internal/graph"
	"qasom/internal/monitor"
	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/resilience"
	"qasom/internal/task"
)

// Runtime is the adaptation-relevant state of one running composition.
// Safe for concurrent use (the executor completes parallel activities
// concurrently).
type Runtime struct {
	// Req is the originating request.
	Req *core.Request

	// deps is the request's compiled dependency rule set (nil when the
	// request declares none). Every substitution path — the walk and the
	// late-service rung — consults it, so failover can never install a
	// binding that violates a dependency rule.
	deps *core.DependencySet

	mu sync.Mutex
	// behaviour is the currently executing behaviour (initially
	// Req.Task; replaced by behavioural adaptation).
	behaviour *task.Task
	// result is the current selection (assignment + alternates). It is
	// shared read-only until owned is set: ownLocked replaces it with a
	// private copy before the first write.
	result *core.Result
	owned  bool
	// completed marks finished activities of the current behaviour.
	// Nil until the first MarkCompleted: a composition that never runs
	// (a plan-cache hit only read for its bindings) makes no maps.
	completed map[string]bool
	// observed keeps the measured QoS of completed activities (feeding
	// residual-constraint computation). Nil until the first MarkCompleted.
	observed map[string]qos.Vector
	// substitutions counts applied service substitutions.
	substitutions int
	// rotationHits counts substitutions served by the rotation walk;
	// exhausted counts failovers whose rotation had no eligible
	// alternate left, so the late-service rung ran.
	rotationHits int
	exhausted    int
}

// NewRuntime wraps a selection into a runtime. The Result is treated as
// shared — it may be a plan-cache entry other compositions read — and is
// never written: the runtime copies it before its first substitution.
func NewRuntime(req *core.Request, res *core.Result) *Runtime {
	// The request was validated at selection time, so a compile failure
	// here can only mean the caller mutated it since; running without the
	// guard (nil set) is the best-effort answer either way.
	ds, _ := req.CompiledDependencies()
	return &Runtime{
		Req:       req,
		behaviour: req.Task,
		deps:      ds,
		result:    res,
	}
}

// depAdmissibleLocked reports whether binding cand to the activity keeps
// every dependency rule satisfied under the rest of the current
// assignment. Caller holds rt.mu. Always true without rules.
func (rt *Runtime) depAdmissibleLocked(activityID string, cand registry.Candidate) bool {
	if rt.deps == nil {
		return true
	}
	return rt.deps.Admissible(activityID, cand, func(id string) (registry.Candidate, bool) {
		c, ok := rt.result.Assignment[id]
		return c, ok
	})
}

// Result returns a copy of the current selection result
// (core.Result.Clone: its maps and rotations are private, its immutable
// candidates shared). The copy is detached: Substitute mutates the
// runtime's own result in place and behaviour switches replace it, and
// the returned value never observes those mutations. Callers that only
// need a cheap read under the runtime lock use View instead.
func (rt *Runtime) Result() *core.Result {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.result.Clone()
}

// ownLocked gives the runtime a private copy of its selection before
// the first in-place write; the Result handed to NewRuntime stays
// untouched. The copy's rotation is built and private (Clone). Caller
// holds rt.mu.
func (rt *Runtime) ownLocked() {
	if !rt.owned {
		rt.result = rt.result.Clone()
		rt.owned = true
	}
}

// View runs f with the live selection result while holding the runtime
// lock. The pointer aliases internal state that concurrent substitutions
// mutate: f must not retain it past its return and must not mutate it.
func (rt *Runtime) View(f func(*core.Result)) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	f(rt.result)
}

// Behaviour returns the currently executing behaviour.
func (rt *Runtime) Behaviour() *task.Task {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.behaviour
}

// Remaining returns the still-to-run part of the current behaviour,
// false once every activity completed.
func (rt *Runtime) Remaining() (*task.Task, bool) {
	behaviour, completed := rt.progress()
	return behaviour.Remaining(completed)
}

// Substitutions counts the service substitutions applied so far.
func (rt *Runtime) Substitutions() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.substitutions
}

// FailoverStats summarizes how this runtime's failovers were served.
type FailoverStats struct {
	// RotationHits counts substitutions resolved by the rotation walk.
	RotationHits int
	// Exhausted counts failovers that had to query the registry for
	// late services because no eligible alternate was left in the
	// rotation.
	Exhausted int
}

// FailoverStats returns the failover accounting.
func (rt *Runtime) FailoverStats() FailoverStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return FailoverStats{RotationHits: rt.rotationHits, Exhausted: rt.exhausted}
}

// ResetProgress clears completion tracking so the behaviour can run
// again (repeated executions of the same composition, e.g. streaming
// segments). Substitution history and the current assignment persist.
func (rt *Runtime) ResetProgress() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.completed = nil
	rt.observed = nil
}

// MarkCompleted records a finished activity and its measured QoS.
func (rt *Runtime) MarkCompleted(activityID string, measured qos.Vector) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.completed == nil {
		rt.completed = make(map[string]bool)
	}
	rt.completed[activityID] = true
	if measured != nil {
		if rt.observed == nil {
			rt.observed = make(map[string]qos.Vector)
		}
		rt.observed[activityID] = measured.Clone()
	}
}

// Completed reports whether the activity finished.
func (rt *Runtime) Completed(activityID string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.completed[activityID]
}

// CompletedCount returns the number of finished activities.
func (rt *Runtime) CompletedCount() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.completed)
}

// Bind implements exec.Binder: dynamic binding against the current
// assignment.
func (rt *Runtime) Bind(act *task.Activity) (registry.Candidate, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	c, ok := rt.result.Assignment[act.ID]
	if !ok {
		return registry.Candidate{}, fmt.Errorf("adapt: no service bound to activity %q", act.ID)
	}
	return c, nil
}

var _ exec.Binder = (*Runtime)(nil)

// Consumed aggregates the observed QoS of the completed part of the
// behaviour (uncompleted activities contribute identity elements).
func (rt *Runtime) Consumed() qos.Vector {
	rt.mu.Lock()
	assign := make(map[string]qos.Vector, len(rt.observed))
	for id, v := range rt.observed {
		assign[id] = v
	}
	behaviour := rt.behaviour
	rt.mu.Unlock()
	return behaviour.AggregateQoS(rt.Req.Properties, assign, rt.Req.EffectiveApproach())
}

// switchBehaviour installs an alternative behaviour and its fresh
// selection; activities of the new behaviour that the selection does not
// schedule (they were matched to already-done work) are marked completed.
func (rt *Runtime) switchBehaviour(newBehaviour *task.Task, sel *core.Result) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.behaviour = newBehaviour
	rt.result = sel
	rt.owned = true // a fresh re-selection, never a plan-cache entry
	// Completed activities of the old behaviour do not exist in the new
	// one: keep only observations (for consumed QoS the old behaviour's
	// aggregate was already folded into the residual constraints), and
	// reset completion tracking to the new behaviour's frame.
	rt.completed = make(map[string]bool)
	for _, a := range newBehaviour.Activities() {
		if _, scheduled := sel.Assignment[a.ID]; !scheduled {
			rt.completed[a.ID] = true
		}
	}
}

// Options tune the adaptation manager.
type Options struct {
	// Match configures the homeomorphism search of behavioural
	// adaptation (the manager fills in the registry's ontology when the
	// field is nil).
	Match graph.MatchOptions
	// RequireFeasible makes behavioural adaptation reject alternatives
	// whose re-selection violates the residual constraints. Default
	// false: the best-effort plan is returned when nothing feasible
	// exists.
	RequireFeasible bool
}

// Manager coordinates the two adaptation strategies. It holds no
// per-composition state, so one Manager serves every composition.
type Manager struct {
	// Registry resolves candidate services.
	Registry *registry.Registry
	// Repo is the task-class repository.
	Repo *task.Repository
	// Selector re-runs QASSA during behavioural adaptation.
	Selector *core.Selector
	// Monitor, when set, filters substitutes by observed health
	// (monitor.MinSuccessRate).
	Monitor *monitor.Monitor
	// Obs, when set, exports adaptation counters (substitutions,
	// behaviour switches, failover causes) into the hub's metrics
	// registry.
	Obs *obs.Hub
	// Options tune the strategies.
	Options Options
}

const (
	behaviourSwitchMetric = "qasom_adapt_behaviour_switches_total"
	behaviourSwitchHelp   = "Behavioural adaptations applied (behaviour switched to an equivalent task)."

	substitutionMetric = "qasom_adapt_substitutions_total"
	substitutionHelp   = "Service substitutions applied by the adaptation manager."

	// The index_hits name predates the single walk; it is kept so
	// existing readers of the exposition keep working.
	failoverHitMetric = "qasom_adapt_failover_index_hits_total"
	failoverHitHelp   = "Failovers resolved by the walk over the composition's alternate rotation."

	failoverFallbackMetric = "qasom_adapt_failover_fallbacks_total"
	failoverFallbackHelp   = "Failovers whose rotation was exhausted, so the registry was queried for late services, by cause."
)

// counter fetches a registry counter; nil (a no-op) without a hub.
func (m *Manager) counter(name, help string) *obs.Counter {
	if m.Obs == nil {
		return nil
	}
	return m.Obs.Metrics.Counter(name, help)
}

// exhaustedCounter fetches the fallback counter of the only cause,
// "exhausted" (no eligible alternate left in the rotation); nil without
// a hub.
func (m *Manager) exhaustedCounter() *obs.Counter {
	if m.Obs == nil {
		return nil
	}
	return m.Obs.Metrics.CounterVec(failoverFallbackMetric, failoverFallbackHelp, "cause").With("exhausted")
}

// ErrNoSubstitute is wrapped when no alternate can replace a service.
var ErrNoSubstitute = fmt.Errorf("adapt: no substitute available")

// Substitute replaces the service bound to an activity by the first
// alternate of its rotation that is still published, healthy, not
// excluded and dependency-admissible. It updates the runtime's
// assignment and returns the substitute. The chosen alternate leaves the
// rotation and the displaced binding rejoins it at the tail.
//
// The walk runs under the runtime lock, probes the registry and the
// monitor for each alternate it reaches, and commits in the same
// critical section. When the rotation is exhausted, services published
// after selection are tried.
func (m *Manager) Substitute(rt *Runtime, activityID string, exclude map[registry.ServiceID]bool) (registry.Candidate, error) {
	rt.mu.Lock()
	if cand, ok := m.walkLocked(rt, activityID, exclude); ok {
		rt.rotationHits++
		rt.mu.Unlock()
		m.counter(failoverHitMetric, failoverHitHelp).Inc()
		return cand, nil
	}
	rt.exhausted++
	behaviour := rt.behaviour
	rt.mu.Unlock()
	m.exhaustedCounter().Inc()
	return m.substituteLate(rt, behaviour, activityID, exclude)
}

// substituteLate serves an exhausted rotation from services published
// after selection: it queries the registry outside the runtime lock,
// ranks the services that are neither bound nor in the rotation with
// Extras, and binds the first one that passes the probe, is not excluded
// and is dependency-admissible. The displaced binding joins the rotation.
func (m *Manager) substituteLate(rt *Runtime, behaviour *task.Task, activityID string, exclude map[registry.ServiceID]bool) (registry.Candidate, error) {
	act := behaviour.ActivityByID(activityID)
	if m.Registry == nil || act == nil {
		return registry.Candidate{}, fmt.Errorf("%w for activity %q", ErrNoSubstitute, activityID)
	}
	cands := m.Registry.CandidatesForActivity(act, rt.Req.Properties)

	rt.mu.Lock()
	defer rt.mu.Unlock()
	old, bound := rt.result.Assignment[activityID]
	if rt.behaviour != behaviour || !bound {
		// A behaviour switch replaced the activity while we queried.
		return registry.Candidate{}, fmt.Errorf("%w for activity %q", ErrNoSubstitute, activityID)
	}
	alts := rt.result.Alternates()[activityID]
	for _, c := range Extras(rt.Req.Properties, rt.Req.EffectiveWeights(), old, alts, cands) {
		if exclude[c.Service.ID] || !m.probe(c.Service.ID) || !rt.depAdmissibleLocked(activityID, c) {
			continue
		}
		rt.ownLocked()
		own := rt.result.Alternates()
		own[activityID] = append(own[activityID], old)
		rt.result.Assignment[activityID] = c
		rt.substitutions++
		m.counter(substitutionMetric, substitutionHelp).Inc()
		return c, nil
	}
	return registry.Candidate{}, fmt.Errorf("%w for activity %q", ErrNoSubstitute, activityID)
}

// probe reports whether a service is still published and healthy, asking
// the registry and the monitor. Neither lookup copies or allocates.
func (m *Manager) probe(id registry.ServiceID) bool {
	if m.Registry != nil && !m.Registry.Has(id) {
		return false // withdrawn from the environment
	}
	return m.Monitor == nil || m.Monitor.SuccessRate(id) >= monitor.MinSuccessRate
}

// rotateLocked binds the alternate at pos: it leaves the rotation and
// the displaced binding rejoins it at the tail, in place — no
// reallocation on the failure path. An activity with no binding (the
// zero candidate, whose Service is nil) has nothing to displace, so the
// rotation just shrinks. Caller holds rt.mu.
func (m *Manager) rotateLocked(rt *Runtime, activityID string, pos int) registry.Candidate {
	rt.ownLocked()
	own := rt.result.Alternates()
	alts := own[activityID]
	chosen := alts[pos]
	old := rt.result.Assignment[activityID]
	copy(alts[pos:], alts[pos+1:])
	if old.Service != nil {
		alts[len(alts)-1] = old
	} else {
		alts = alts[:len(alts)-1]
	}
	own[activityID] = alts
	rt.result.Assignment[activityID] = chosen
	rt.substitutions++
	m.counter(substitutionMetric, substitutionHelp).Inc()
	return chosen
}

// walkLocked binds the first alternate of the rotation that is not
// excluded, passes the probe and is dependency-admissible. The exclude
// lookup goes first because it is cheaper than the probe's two locked
// reads. Caller holds rt.mu.
func (m *Manager) walkLocked(rt *Runtime, activityID string, exclude map[registry.ServiceID]bool) (registry.Candidate, bool) {
	for pos, alt := range rt.result.Alternates()[activityID] {
		if exclude[alt.Service.ID] || !m.probe(alt.Service.ID) || !rt.depAdmissibleLocked(activityID, alt) {
			continue
		}
		return m.rotateLocked(rt, activityID, pos), true
	}
	return registry.Candidate{}, false
}

// FailureHandler wires substitution into the executor as the
// terminal-failure handler: each terminally failed attempt excludes the
// failed service and substitutes the next alternate. The executor's
// resilience policy has already spent its backoff budget on retryable
// failures by the time this runs; the failure class still distinguishes
// them — a binding lost to a flaky link (Retryable) stays eligible for
// re-selection later, while an application-level failure (Terminal)
// excludes the service for the rest of the run.
//
// The handler's lock guards its one exclusion map and is held across
// Substitute. The lock order is therefore the handler's lock, then
// rt.mu, then the registry's and monitor's own locks (probes and the
// late-service query). Nothing takes them in reverse: CompletionHook
// releases rt.mu before it asks Monitor.Estimate.
func (m *Manager) FailureHandler(rt *Runtime) exec.FailureHandler {
	excluded := make(map[registry.ServiceID]bool)
	var mu sync.Mutex
	return func(act *task.Activity, failed registry.Candidate, attempt int, class resilience.Class) (registry.Candidate, error) {
		mu.Lock()
		defer mu.Unlock()
		id := failed.Service.ID
		if class == resilience.Retryable && !excluded[id] {
			// Even a link-failed binding must not be handed straight
			// back: exclude it from THIS substitution without
			// remembering it.
			defer delete(excluded, id)
		}
		excluded[id] = true
		return m.Substitute(rt, act.ID, excluded)
	}
}

// CompletionHook returns the executor OnComplete callback that keeps the
// runtime's progress tracking up to date using monitor estimates for the
// observed QoS (falling back to the advertised vector).
func (m *Manager) CompletionHook(rt *Runtime) func(string) {
	return func(activityID string) {
		var measured qos.Vector
		rt.mu.Lock()
		bound, ok := rt.result.Assignment[activityID]
		rt.mu.Unlock()
		if ok {
			if m.Monitor != nil {
				if est, has := m.Monitor.Estimate(bound.Service.ID); has {
					measured = est
				}
			}
			if measured == nil {
				measured = bound.Vector
			}
		}
		rt.MarkCompleted(activityID, measured)
	}
}
