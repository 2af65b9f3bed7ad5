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
// progress, failover accounting and the substitution index — lives on the
// composition's Runtime.
//
// Failover is index-first: when the runtime carries a substitution index
// (internal/subidx), Substitute resolves the replacement with one
// lock-free lookup — zero registry or monitor calls on the failure path —
// and falls back to the reactive alternate scan only when the index is
// cold, drained, exhausted or raced by a concurrent commit. The reactive
// scan itself snapshots its decision inputs outside the runtime lock, so
// even the fallback no longer serializes parallel-branch failovers
// against the registry and monitor locks.
package adapt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"qasom/internal/core"
	"qasom/internal/exec"
	"qasom/internal/graph"
	"qasom/internal/monitor"
	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/resilience"
	"qasom/internal/subidx"
	"qasom/internal/task"
)

// Runtime is the adaptation-relevant state of one running composition.
// Safe for concurrent use (the executor completes parallel activities
// concurrently).
type Runtime struct {
	// Req is the originating request.
	Req *core.Request
	// Behaviour is the currently executing behaviour (initially
	// Req.Task; replaced by behavioural adaptation).
	Behaviour *task.Task

	// index is the composition's substitution index (internal/subidx),
	// attached once by AttachIndex; nil keeps failover fully reactive.
	index atomic.Pointer[subidx.Index]

	// version counts selection mutations (substitution commits and
	// behaviour switches). Bumped under mu, read lock-free: the
	// substitution index uses it to discard rebuilds whose snapshot a
	// concurrent commit made stale.
	version atomic.Uint64

	// deps is the request's compiled dependency rule set (nil when the
	// request declares none). Every substitution path — indexed, reactive
	// and locked — consults it, so failover can never install a binding
	// that violates a dependency rule.
	deps *core.DependencySet

	mu sync.Mutex
	// result is the current selection (assignment + alternates). It is
	// shared read-only until owned is set: ownLocked replaces it with a
	// private copy before the first write.
	result *core.Result
	owned  bool
	// completed marks finished activities of the current behaviour.
	completed map[string]bool
	// observed keeps the measured QoS of completed activities (feeding
	// residual-constraint computation).
	observed map[string]qos.Vector
	// substitutions counts applied service substitutions.
	substitutions int
	// failoverHits counts substitutions served by the index;
	// failoverFallbacks counts reactive fallbacks by cause.
	failoverHits      int
	failoverFallbacks map[string]int
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
		Behaviour: req.Task,
		deps:      ds,
		result:    res,
		completed: make(map[string]bool),
		observed:  make(map[string]qos.Vector),
	}
}

// AttachIndex attaches the composition's substitution index: from then
// on failovers are served index-first. Safe to call while other
// goroutines substitute; they see either no index or this one.
func (rt *Runtime) AttachIndex(x *subidx.Index) { rt.index.Store(x) }

// Index returns the attached substitution index, nil when none.
func (rt *Runtime) Index() *subidx.Index { return rt.index.Load() }

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

// Result returns a deep copy of the current selection result. The copy
// is detached: Substitute mutates the runtime's own result in place and
// behaviour switches replace it, and the returned value never observes
// those mutations. Callers that only need a cheap read under the runtime
// lock use View instead.
func (rt *Runtime) Result() *core.Result {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.result.Clone()
}

// ownLocked gives the runtime a private copy of its selection before
// the first in-place write; the Result handed to NewRuntime stays
// untouched. Caller holds rt.mu.
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

// Substitutions counts the service substitutions applied so far.
func (rt *Runtime) Substitutions() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.substitutions
}

// FailoverStats summarizes how this runtime's failovers were served.
type FailoverStats struct {
	// IndexHits counts substitutions resolved by the substitution index
	// (lock-free, zero registry/monitor calls).
	IndexHits int
	// Fallbacks counts reactive-scan fallbacks by cause ("cold",
	// "drained", "exhausted", "raced", "dependency").
	Fallbacks map[string]int
}

// FailoverStats returns a copy of the failover accounting.
func (rt *Runtime) FailoverStats() FailoverStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := FailoverStats{IndexHits: rt.failoverHits}
	if len(rt.failoverFallbacks) > 0 {
		out.Fallbacks = make(map[string]int, len(rt.failoverFallbacks))
		for k, v := range rt.failoverFallbacks {
			out.Fallbacks[k] = v
		}
	}
	return out
}

// noteFallback records one reactive fallback by cause.
func (rt *Runtime) noteFallback(cause string) {
	rt.mu.Lock()
	if rt.failoverFallbacks == nil {
		rt.failoverFallbacks = make(map[string]int, 4)
	}
	rt.failoverFallbacks[cause]++
	rt.mu.Unlock()
}

// SelectionVersion returns the runtime's mutation counter without taking
// the runtime lock (safe to call while the index lock is held).
func (rt *Runtime) SelectionVersion() uint64 { return rt.version.Load() }

// SelectionSnapshot captures the current selection state for the
// substitution index: fresh map/slice copies of the assignment and the
// alternate lists in their current rotation order (candidate values share
// immutable backing data).
func (rt *Runtime) SelectionSnapshot() subidx.Snapshot {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	snap := subidx.Snapshot{
		Version:    rt.version.Load(),
		Activities: append([]*task.Activity(nil), rt.Behaviour.Activities()...),
		Assignment: make(map[string]registry.Candidate, len(rt.result.Assignment)),
		Alternates: make(map[string][]registry.Candidate, len(rt.result.Alternates)),
		Weights:    rt.Req.EffectiveWeights(),
		Properties: rt.Req.Properties,
	}
	if rt.deps != nil {
		snap.Mask = rt.deps
	}
	for k, v := range rt.result.Assignment {
		snap.Assignment[k] = v
	}
	for k, v := range rt.result.Alternates {
		snap.Alternates[k] = append([]registry.Candidate(nil), v...)
	}
	return snap
}

var _ subidx.Source = (*Runtime)(nil)

// ResetProgress clears completion tracking so the behaviour can run
// again (repeated executions of the same composition, e.g. streaming
// segments). Substitution history and the current assignment persist.
func (rt *Runtime) ResetProgress() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.completed = make(map[string]bool)
	rt.observed = make(map[string]qos.Vector)
}

// MarkCompleted records a finished activity and its measured QoS.
func (rt *Runtime) MarkCompleted(activityID string, measured qos.Vector) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.completed[activityID] = true
	if measured != nil {
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
	behaviour := rt.Behaviour
	rt.mu.Unlock()
	return behaviour.AggregateQoS(rt.Req.Properties, assign, rt.Req.EffectiveApproach())
}

// switchBehaviour installs an alternative behaviour and its fresh
// selection; activities of the new behaviour that the selection does not
// schedule (they were matched to already-done work) are marked completed.
func (rt *Runtime) switchBehaviour(newBehaviour *task.Task, sel *core.Result) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.Behaviour = newBehaviour
	rt.result = sel
	rt.owned = true // a fresh re-selection, never a plan-cache entry
	rt.version.Add(1)
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

	failoverHitMetric = "qasom_adapt_failover_index_hits_total"
	failoverHitHelp   = "Failovers resolved by a lock-free substitution-index lookup."

	failoverFallbackMetric = "qasom_adapt_failover_fallbacks_total"
	failoverFallbackHelp   = "Failovers that fell back to the reactive alternate scan, by cause."

	failoverRegistryChecksMetric = "qasom_adapt_failover_registry_checks_total"
	failoverRegistryChecksHelp   = "Registry liveness probes performed on the failover path (zero on index hits)."

	failoverMonitorChecksMetric = "qasom_adapt_failover_monitor_checks_total"
	failoverMonitorChecksHelp   = "Monitor health probes performed on the failover path (zero on index hits)."
)

// counter fetches a registry counter; nil (a no-op) without a hub.
func (m *Manager) counter(name, help string) *obs.Counter {
	if m.Obs == nil {
		return nil
	}
	return m.Obs.Metrics.Counter(name, help)
}

// fallbackCounter fetches the per-cause fallback counter; nil without a
// hub.
func (m *Manager) fallbackCounter(cause string) *obs.Counter {
	if m.Obs == nil {
		return nil
	}
	return m.Obs.Metrics.CounterVec(failoverFallbackMetric, failoverFallbackHelp, "cause").With(cause)
}

// ErrNoSubstitute is wrapped when no alternate can replace a service.
var ErrNoSubstitute = fmt.Errorf("adapt: no substitute available")

// Substitute replaces the service bound to an activity by the best
// alternate that is still published, healthy and not excluded. It
// updates the runtime's assignment and returns the substitute.
//
// With an index attached to the runtime the replacement is resolved by
// one lock-free lookup (no registry or monitor calls); the reactive scan
// runs only when the index is cold, drained, exhausted, or its pick was
// raced by a concurrent selection change. Both paths commit the same rotation: the
// chosen alternate leaves the list, the displaced binding rejoins it at
// the tail.
func (m *Manager) Substitute(rt *Runtime, activityID string, exclude map[registry.ServiceID]bool) (registry.Candidate, error) {
	if x := rt.Index(); x != nil {
		cand, out := x.Lookup(activityID, exclude)
		if out == subidx.Hit {
			if applied, cause := m.commitIndexed(rt, x, activityID, cand); applied {
				m.counter(failoverHitMetric, failoverHitHelp).Inc()
				return cand, nil
			} else {
				rt.noteFallback(cause)
				m.fallbackCounter(cause).Inc()
			}
		} else {
			rt.noteFallback(out.String())
			m.fallbackCounter(out.String()).Inc()
		}
	}
	return m.substituteReactive(rt, activityID, exclude)
}

// commitIndexed applies an index-resolved substitution to the runtime,
// keeping the alternate rotation in lockstep with the index. It fails
// (returning false with a fallback cause, caller runs the reactive scan)
// when the runtime no longer matches the lookup — the activity is
// unbound (a behaviour switch raced us) or the pick is already bound —
// or when the pick would violate a dependency rule under the CURRENT
// assignment (the index filtered against the assignment it was built
// from; an adjacent substitution may have shifted the admissible set
// since).
func (m *Manager) commitIndexed(rt *Runtime, x *subidx.Index, activityID string, chosen registry.Candidate) (bool, string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	old, bound := rt.result.Assignment[activityID]
	if !bound || old.Service.ID == chosen.Service.ID {
		return false, "raced"
	}
	if !rt.depAdmissibleLocked(activityID, chosen) {
		return false, "dependency"
	}
	rt.ownLocked()
	alts := rt.result.Alternates[activityID]
	pos := -1
	for i := range alts {
		if alts[i].Service.ID == chosen.Service.ID {
			pos = i
			break
		}
	}
	if pos >= 0 {
		chosen = alts[pos]
		// Rotate in place: drop the chosen alternate, displaced binding
		// rejoins at the tail. No reallocation on the failure path.
		copy(alts[pos:], alts[pos+1:])
		if old.Service.ID != "" {
			alts[len(alts)-1] = old
		} else {
			alts = alts[:len(alts)-1]
		}
		rt.result.Alternates[activityID] = alts
	} else {
		// The pick is an index-inserted extra (published after
		// selection): nothing to remove, the displaced binding still
		// rejoins the rotation.
		if old.Service.ID != "" {
			rt.result.Alternates[activityID] = append(alts, old)
		}
	}
	rt.result.Assignment[activityID] = chosen
	rt.substitutions++
	rt.failoverHits++
	rt.version.Add(1)
	x.Commit(activityID, chosen.Service.ID, old)
	if rt.deps.Touches(activityID) {
		// The swap may have shifted which replacements are admissible for
		// dependency-adjacent activities: schedule a refilter off the
		// failure path (stale lists stay safe — commits revalidate here).
		x.MarkDirty()
	}
	m.counter(substitutionMetric, substitutionHelp).Inc()
	return true, ""
}

// maxReactiveRetries bounds optimistic rescans of the reactive path
// before it degrades to the fully locked scan.
const maxReactiveRetries = 4

// idScratch pools the candidate-ID snapshot slices of the reactive scan.
var idScratch = sync.Pool{
	New: func() any {
		s := make([]registry.ServiceID, 0, 16)
		return &s
	},
}

// substituteReactive is the fallback scan. Unlike the pre-index
// implementation it does NOT hold the runtime lock while probing the
// registry and monitor: it snapshots the candidate IDs (and the
// runtime's mutation version) under the lock, probes outside it, then
// revalidates and commits. A concurrent commit triggers a bounded
// rescan; past the bound the scan runs fully locked, which guarantees
// termination at the cost of the old serialization.
func (m *Manager) substituteReactive(rt *Runtime, activityID string, exclude map[registry.ServiceID]bool) (registry.Candidate, error) {
	ids := idScratch.Get().(*[]registry.ServiceID)
	defer func() {
		*ids = (*ids)[:0]
		idScratch.Put(ids)
	}()
	for attempt := 0; attempt < maxReactiveRetries; attempt++ {
		rt.mu.Lock()
		version := rt.version.Load()
		alts := rt.result.Alternates[activityID]
		*ids = (*ids)[:0]
		for i := range alts {
			// Dependency-inadmissible alternates never reach the probe
			// phase; the version guard at commit time keeps the check
			// valid (any assignment change forces a rescan).
			if !rt.depAdmissibleLocked(activityID, alts[i]) {
				continue
			}
			*ids = append(*ids, alts[i].Service.ID)
		}
		rt.mu.Unlock()

		pick := m.scanEligible(*ids, exclude)
		if pick == "" {
			return registry.Candidate{}, fmt.Errorf("%w for activity %q", ErrNoSubstitute, activityID)
		}
		if cand, ok := m.commitReactive(rt, activityID, pick, version); ok {
			return cand, nil
		}
		// A concurrent commit moved the selection: rescan from the
		// current rotation order.
	}
	return m.substituteLocked(rt, activityID, exclude)
}

// scanEligible walks the candidate IDs in rotation order and returns the
// first one that is not excluded, still published and healthy. Runs
// without the runtime lock; every probe is counted so tests can assert
// the index path performs none.
func (m *Manager) scanEligible(ids []registry.ServiceID, exclude map[registry.ServiceID]bool) registry.ServiceID {
	for _, id := range ids {
		if exclude[id] {
			continue
		}
		if m.Registry != nil {
			m.counter(failoverRegistryChecksMetric, failoverRegistryChecksHelp).Inc()
			if _, ok := m.Registry.Get(id); !ok {
				continue // withdrawn from the environment
			}
		}
		if m.Monitor != nil {
			m.counter(failoverMonitorChecksMetric, failoverMonitorChecksHelp).Inc()
			if m.Monitor.SuccessRate(id) < monitor.MinSuccessRate {
				continue
			}
		}
		return id
	}
	return ""
}

// commitReactive validates that no selection change raced the unlocked
// probe phase and commits the rotation. The version guard is coarse (any
// activity's commit bumps it) but cheap; a false positive just rescans.
func (m *Manager) commitReactive(rt *Runtime, activityID string, pick registry.ServiceID, version uint64) (registry.Candidate, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.version.Load() != version {
		return registry.Candidate{}, false
	}
	return m.commitLocked(rt, activityID, pick), true
}

// commitLocked rotates pick into the binding. Caller holds rt.mu and has
// established that pick is a current alternate.
func (m *Manager) commitLocked(rt *Runtime, activityID string, pick registry.ServiceID) registry.Candidate {
	rt.ownLocked()
	alts := rt.result.Alternates[activityID]
	pos := -1
	for i := range alts {
		if alts[i].Service.ID == pick {
			pos = i
			break
		}
	}
	if pos < 0 {
		return registry.Candidate{}
	}
	chosen := alts[pos]
	old := rt.result.Assignment[activityID]
	copy(alts[pos:], alts[pos+1:])
	if old.Service.ID != "" {
		alts[len(alts)-1] = old
	} else {
		alts = alts[:len(alts)-1]
	}
	rt.result.Alternates[activityID] = alts
	rt.result.Assignment[activityID] = chosen
	rt.substitutions++
	rt.version.Add(1)
	if x := rt.Index(); x != nil {
		x.Commit(activityID, pick, old)
		if rt.deps.Touches(activityID) {
			x.MarkDirty()
		}
	}
	m.counter(substitutionMetric, substitutionHelp).Inc()
	return chosen
}

// substituteLocked is the pre-index algorithm: scan and commit in one
// critical section. Kept as the termination guarantee of the optimistic
// reactive path under pathological commit churn.
func (m *Manager) substituteLocked(rt *Runtime, activityID string, exclude map[registry.ServiceID]bool) (registry.Candidate, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, alt := range rt.result.Alternates[activityID] {
		if exclude[alt.Service.ID] {
			continue
		}
		if !rt.depAdmissibleLocked(activityID, alt) {
			continue
		}
		if m.Registry != nil {
			m.counter(failoverRegistryChecksMetric, failoverRegistryChecksHelp).Inc()
			if _, ok := m.Registry.Get(alt.Service.ID); !ok {
				continue
			}
		}
		if m.Monitor != nil {
			m.counter(failoverMonitorChecksMetric, failoverMonitorChecksHelp).Inc()
			if m.Monitor.SuccessRate(alt.Service.ID) < monitor.MinSuccessRate {
				continue
			}
		}
		return m.commitLocked(rt, activityID, alt.Service.ID), nil
	}
	return registry.Candidate{}, fmt.Errorf("%w for activity %q", ErrNoSubstitute, activityID)
}

// excludeScratch pools the per-failover exclusion snapshots built by
// FailureHandler (one map per in-flight failover instead of one per
// call).
var excludeScratch = sync.Pool{
	New: func() any { return make(map[registry.ServiceID]bool, 8) },
}

// FailureHandler wires substitution into the executor as the
// terminal-failure handler: each terminally failed attempt excludes the
// failed service and substitutes the next alternate. The executor's
// resilience policy has already spent its backoff budget on retryable
// failures by the time this runs; the failure class still distinguishes
// them — a binding lost to a flaky link (Retryable) stays eligible for
// re-selection later, while an application-level failure (Terminal)
// excludes the service for the rest of the run.
func (m *Manager) FailureHandler(rt *Runtime) exec.FailureHandler {
	excluded := make(map[registry.ServiceID]bool)
	var mu sync.Mutex
	return func(act *task.Activity, failed registry.Candidate, attempt int, class resilience.Class) (registry.Candidate, error) {
		snapshot := excludeScratch.Get().(map[registry.ServiceID]bool)
		clear(snapshot)
		mu.Lock()
		if class != resilience.Retryable {
			excluded[failed.Service.ID] = true
		}
		for k, v := range excluded {
			snapshot[k] = v
		}
		// Even a link-failed binding must not be handed straight back:
		// exclude it from THIS substitution without remembering it.
		snapshot[failed.Service.ID] = true
		mu.Unlock()
		cand, err := m.Substitute(rt, act.ID, snapshot)
		clear(snapshot)
		excludeScratch.Put(snapshot)
		return cand, err
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
