package adapt

import (
	"errors"
	"fmt"

	"qasom/internal/core"
	"qasom/internal/graph"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/task"
)

// ErrNoAlternative is wrapped when no alternative behaviour of the task
// class can host the remaining work.
var ErrNoAlternative = errors.New("adapt: no alternative behaviour matches the remaining task")

// BehaviouralPlan is the outcome of behavioural adaptation: the chosen
// alternative behaviour, the part of it that still needs to run, the
// fresh selection over that part, and search diagnostics.
type BehaviouralPlan struct {
	// Alternative is the task-class behaviour the composition switches
	// to.
	Alternative *task.Task
	// NewTask is the remaining portion of Alternative to execute.
	NewTask *task.Task
	// Selection is QASSA's result over NewTask under the residual
	// constraints.
	Selection *core.Result
	// Residual is the constraint set NewTask was selected under.
	Residual qos.Constraints
	// MatchSteps counts homeomorphism search steps spent on the accepted
	// alternative.
	MatchSteps int
}

// AdaptBehaviour runs the behavioural adaptation strategy of Chapter V:
//
//  1. compute the remaining subtask of the current behaviour;
//  2. look up the task class and iterate its alternative behaviours;
//  3. for each, decide by extended subgraph homeomorphism whether the
//     remaining work embeds into the alternative (semantic vertex
//     matching, vertex-disjoint paths, data constraints per options);
//  4. derive the alternative's still-needed portion, shrink the global
//     constraints by the QoS already consumed, and re-run QASSA on it;
//  5. return the first feasible plan (or the best-effort one).
//
// On success the runtime is switched to the new behaviour; failover then
// walks the new selection's rotations.
func (m *Manager) AdaptBehaviour(rt *Runtime) (*BehaviouralPlan, error) {
	if m.Repo == nil {
		return nil, fmt.Errorf("adapt: manager has no task-class repository")
	}
	if m.Selector == nil {
		return nil, fmt.Errorf("adapt: manager has no selector")
	}
	behaviour, completed := rt.progress()

	remaining, ok := behaviour.Remaining(completed)
	if !ok {
		return nil, fmt.Errorf("adapt: task already completed, nothing to adapt")
	}
	residual := ResidualConstraints(rt.Req.Properties, rt.Req.Constraints, rt.Consumed())

	// Homeomorphism matching reconciles *partial progress* with an
	// alternative's structure. With no progress at all, every behaviour
	// of the class is acceptable by definition (they are declared
	// functionally equivalent), so the pattern is nil and matching is
	// skipped — the alternative replaces the task wholesale.
	var pattern *graph.Graph
	if remaining.Size() < behaviour.Size() {
		var err error
		pattern, err = graph.FromTask(remaining)
		if err != nil {
			return nil, fmt.Errorf("adapt: %w", err)
		}
	}

	class := m.classOf(behaviour)
	if class == nil {
		return nil, fmt.Errorf("adapt: no task class for behaviour %q (concept %q)",
			behaviour.Name, behaviour.Concept)
	}
	matchOpts := m.matchOptions()

	var fallback *BehaviouralPlan
	for _, alt := range class.Alternatives(behaviour.Name) {
		newTask, steps, err := matchAlternative(alt, pattern, matchOpts)
		if err != nil {
			continue
		}
		plan, err := m.buildPlan(rt, alt, newTask, steps, residual)
		if err != nil {
			continue
		}
		if plan.Selection.Feasible {
			m.installPlan(rt, plan)
			return plan, nil
		}
		if fallback == nil {
			fallback = plan
		}
	}
	if fallback != nil && !m.Options.RequireFeasible {
		m.installPlan(rt, fallback)
		return fallback, nil
	}
	return nil, fmt.Errorf("%w (behaviour %q, %d alternatives tried)",
		ErrNoAlternative, behaviour.Name, len(class.Alternatives(behaviour.Name)))
}

// installPlan switches the runtime to the plan's behaviour.
func (m *Manager) installPlan(rt *Runtime, plan *BehaviouralPlan) {
	rt.switchBehaviour(plan.Alternative, plan.Selection)
	m.counter(behaviourSwitchMetric, behaviourSwitchHelp).Inc()
}

// progress snapshots the current behaviour and completed set.
func (rt *Runtime) progress() (*task.Task, map[string]bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	completed := make(map[string]bool, len(rt.completed))
	for k, v := range rt.completed {
		completed[k] = v
	}
	return rt.behaviour, completed
}

// classOf resolves the task class of a behaviour, falling back to the
// concept lookup.
func (m *Manager) classOf(behaviour *task.Task) *task.Class {
	class := m.Repo.ClassOf(behaviour.Name)
	if class == nil {
		if classes := m.Repo.ByConcept(behaviour.Concept); len(classes) > 0 {
			class = classes[0]
		}
	}
	return class
}

// matchOptions fills the registry's ontology into the configured match
// options when unset.
func (m *Manager) matchOptions() graph.MatchOptions {
	matchOpts := m.Options.Match
	if matchOpts.Ontology == nil && m.Registry != nil {
		matchOpts.Ontology = m.Registry.Ontology()
	}
	return matchOpts
}

// matchAlternative decides whether the remaining work (pattern) embeds
// into one alternative behaviour and derives the alternative's
// still-needed portion. Pure graph work — no registry, monitor or
// runtime access.
func matchAlternative(alt *task.Task, pattern *graph.Graph, matchOpts graph.MatchOptions) (*task.Task, int, error) {
	if pattern == nil {
		// Fresh start: the whole alternative runs.
		return alt.Clone(), 0, nil
	}
	host, err := graph.FromTask(alt)
	if err != nil {
		return nil, 0, err
	}
	res, found, err := graph.FindHomeomorphism(pattern, host, matchOpts)
	if err != nil {
		return nil, 0, err
	}
	if !found {
		return nil, 0, fmt.Errorf("adapt: behaviour %q does not host the remaining task", alt.Name)
	}

	// The matched part of the alternative (vertex images + path
	// interiors) is the work still to do; everything else of the
	// alternative corresponds to already-completed work and is pruned.
	needed := make(map[string]bool)
	for _, hv := range res.Mapping {
		if v := host.Vertex(hv); v != nil && v.Kind == graph.KindActivity {
			needed[v.ActivityID] = true
		}
	}
	for _, path := range res.Paths {
		if len(path) < 3 {
			continue // direct edge or merged (empty) path: no interior
		}
		for _, hv := range path[1 : len(path)-1] {
			if v := host.Vertex(hv); v != nil && v.Kind == graph.KindActivity {
				needed[v.ActivityID] = true
			}
		}
	}
	doneB := make(map[string]bool)
	for _, a := range alt.Activities() {
		if !needed[a.ID] {
			doneB[a.ID] = true
		}
	}
	newTask, ok := alt.Remaining(doneB)
	if !ok {
		return nil, 0, fmt.Errorf("adapt: behaviour %q has no remaining work", alt.Name)
	}
	return newTask, res.Steps, nil
}

// buildPlan runs the re-selection over an alternative's remaining work
// under the residual constraints.
func (m *Manager) buildPlan(rt *Runtime, alt *task.Task, newTask *task.Task, matchSteps int, residual qos.Constraints) (*BehaviouralPlan, error) {
	newTask.Name = alt.Name
	newReq := &core.Request{
		Task:        newTask,
		Properties:  rt.Req.Properties,
		Constraints: residual,
		Weights:     rt.Req.Weights,
		Approach:    rt.Req.Approach,
		// Dependency rules survive the behaviour switch when both their
		// endpoints still exist in the remaining work; rules on pruned or
		// already-completed activities no longer constrain anything.
		Dependencies: retainedDeps(rt.Req.Dependencies, newTask),
	}
	candidates, err := m.candidatesFor(newTask, rt.Req.Properties)
	if err != nil {
		return nil, err
	}
	sel, err := m.Selector.Select(newReq, candidates)
	if err != nil {
		return nil, err
	}
	return &BehaviouralPlan{
		Alternative: alt,
		NewTask:     newTask,
		Selection:   sel,
		Residual:    residual,
		MatchSteps:  matchSteps,
	}, nil
}

// retainedDeps keeps the dependency rules whose activities all exist in
// the new behaviour's remaining work.
func retainedDeps(rules []core.Dependency, t *task.Task) []core.Dependency {
	if len(rules) == 0 {
		return nil
	}
	var out []core.Dependency
	for _, r := range rules {
		if t.ActivityByID(r.From) != nil && t.ActivityByID(r.To) != nil {
			out = append(out, r)
		}
	}
	return out
}

func (m *Manager) candidatesFor(t *task.Task, ps *qos.PropertySet) (map[string][]registry.Candidate, error) {
	if m.Registry == nil {
		return nil, fmt.Errorf("adapt: manager has no registry")
	}
	out := make(map[string][]registry.Candidate, t.Size())
	for _, a := range t.Activities() {
		cands := m.Registry.CandidatesForActivity(a, ps)
		if len(cands) == 0 {
			return nil, fmt.Errorf("adapt: no services for activity %q (concept %q)", a.ID, a.Concept)
		}
		out[a.ID] = cands
	}
	return out, nil
}

// ResidualConstraints shrinks global constraints by the QoS already
// consumed by the completed part of the composition: additive kinds
// (time, cost) subtract, probability kinds divide, bottleneck kinds pass
// through unchanged.
func ResidualConstraints(ps *qos.PropertySet, cs qos.Constraints, consumed qos.Vector) qos.Constraints {
	out := make(qos.Constraints, 0, len(cs))
	for _, c := range cs {
		j, ok := ps.Index(c.Property)
		if !ok || j >= len(consumed) {
			out = append(out, c)
			continue
		}
		bound := c.Bound
		switch ps.At(j).Kind {
		case qos.KindTime, qos.KindCost:
			bound -= consumed[j]
			if bound < 0 {
				bound = 0
			}
		case qos.KindProbability:
			if consumed[j] > 0 && consumed[j] < 1 {
				bound /= consumed[j]
				if bound > 1 {
					bound = 1
				}
			}
		default: // KindBottleneck: unchanged
		}
		out = append(out, qos.Constraint{Property: c.Property, Bound: bound})
	}
	return out
}
