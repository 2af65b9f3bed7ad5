// Package core implements QASSA, the QoS-aware service selection
// algorithm that is the thesis's primary contribution (Chapter IV): a
// clustering-based heuristic for selection under global QoS constraints
// (an NP-hard problem) designed for the timeliness, adaptation-support
// and distribution requirements of pervasive environments.
//
// The algorithm runs in two phases. The local phase clusters, per
// activity and per QoS property, the candidate services into ranked
// quality clusters (K-means), grades services into QoS levels QL_r and
// QoS classes QC_{r,e}, and emits a ranked shortlist. The global phase
// descends the level structure: starting from every activity's best
// level it composes a candidate assignment, checks the global
// constraints over the aggregated QoS (Table IV.1), repairs violations
// by targeted swaps, and widens the pools level by level until a
// feasible composition is found, finally hill-climbing utility. The
// result carries ranked alternates per activity — the fuel of run-time
// service substitution.
//
// A distributed mode executes local phases on remote devices (Fig. IV.4)
// through a pluggable transport; see distributed.go.
package core

import (
	"fmt"

	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/task"
)

// Request is the user request R: the task T, the QoS property set P, the
// global constraints U, the preference weights W and the aggregation
// approach.
type Request struct {
	// Task is the user task to realise.
	Task *task.Task
	// Properties is the QoS property set P the request reasons over.
	Properties *qos.PropertySet
	// Constraints is the global constraint set U over aggregated QoS.
	Constraints qos.Constraints
	// Weights is the user preference vector W (nil means uniform).
	Weights qos.Weights
	// Approach folds choices and loops (zero means pessimistic, the
	// thesis default: aggregated QoS is then a guaranteed bound).
	Approach qos.Approach
	// Local holds optional per-activity (local) constraints, keyed by
	// activity ID: hard requirements a candidate's own advertised QoS
	// must meet to be considered at all (the local counterpart of the
	// global set U; see the taxonomy of constraint scopes in the related
	// work, Ch. II §4.2).
	Local map[string]qos.Constraints
	// Dependencies declares inter-service dependency constraints between
	// activities (requires/excludes/co-location edges). They are compiled
	// and validated by Validate (typed errors, see dependency.go) and
	// enforced by the global phase, the alternate ranking and run-time
	// failover: no returned or substituted binding violates them.
	Dependencies []Dependency
	// Objectives names the properties the Pareto-front selection mode
	// optimizes over (2–3 names from Properties); nil means the full
	// property set. Ignored in scalar mode.
	Objectives []string
}

// Validate checks the request is complete and internally consistent.
func (r *Request) Validate() error {
	if r == nil {
		return fmt.Errorf("core: nil request")
	}
	if r.Properties == nil {
		return fmt.Errorf("core: request without property set")
	}
	if err := r.Task.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := r.Constraints.Validate(r.Properties); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if r.Weights != nil {
		if err := r.Weights.Validate(r.Properties); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	for id, cs := range r.Local {
		if r.Task.ActivityByID(id) == nil {
			return fmt.Errorf("core: local constraints on unknown activity %q", id)
		}
		if err := cs.Validate(r.Properties); err != nil {
			return fmt.Errorf("core: local constraints on %q: %w", id, err)
		}
	}
	if len(r.Dependencies) > 0 {
		if _, err := CompileDependencies(r.Task, r.Dependencies); err != nil {
			return err
		}
	}
	if len(r.Objectives) > 0 {
		seen := make(map[string]bool, len(r.Objectives))
		for _, name := range r.Objectives {
			if _, ok := r.Properties.Index(name); !ok {
				return fmt.Errorf("core: objective %q is not in the property set", name)
			}
			if seen[name] {
				return fmt.Errorf("core: duplicate objective %q", name)
			}
			seen[name] = true
		}
	}
	return nil
}

// CompiledDependencies compiles the request's dependency rules (nil when
// the request declares none). The rules were already validated by
// Validate, so errors here indicate the request was mutated since.
func (r *Request) CompiledDependencies() (*DependencySet, error) {
	return CompileDependencies(r.Task, r.Dependencies)
}

// EffectiveObjectives returns the property indices the Pareto-front
// mode optimizes over (every property when Objectives is unset) — the
// projection baselines use to build the exhaustive reference front.
func (r *Request) EffectiveObjectives() []int { return r.objectiveIndices() }

// objectiveIndices resolves the Pareto objectives to property indices
// (the full set when none were named).
func (r *Request) objectiveIndices() []int {
	if len(r.Objectives) == 0 {
		idx := make([]int, r.Properties.Len())
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	idx := make([]int, 0, len(r.Objectives))
	for _, name := range r.Objectives {
		if j, ok := r.Properties.Index(name); ok {
			idx = append(idx, j)
		}
	}
	return idx
}

// FilterLocal removes, per activity, the candidates whose advertised QoS
// violates the request's local constraints. It returns a new map (inputs
// are not mutated) and fails when filtering leaves an activity without
// candidates — local constraints are hard requirements.
func FilterLocal(req *Request, candidates map[string][]registry.Candidate) (map[string][]registry.Candidate, error) {
	if len(req.Local) == 0 {
		return candidates, nil
	}
	out := make(map[string][]registry.Candidate, len(candidates))
	for id, list := range candidates {
		cs, constrained := req.Local[id]
		if !constrained {
			out[id] = list
			continue
		}
		kept := make([]registry.Candidate, 0, len(list))
		for _, c := range list {
			if cs.Satisfied(req.Properties, c.Vector) {
				kept = append(kept, c)
			}
		}
		if len(kept) == 0 {
			return nil, fmt.Errorf("core: no candidate for activity %q meets its local constraints %s",
				id, cs)
		}
		out[id] = kept
	}
	return out, nil
}

// EffectiveWeights returns the preference vector in force (uniform when
// none was given).
func (r *Request) EffectiveWeights() qos.Weights { return r.weights() }

// EffectiveApproach returns the aggregation approach in force
// (pessimistic when none was given).
func (r *Request) EffectiveApproach() qos.Approach { return r.approach() }

// weights returns the effective preference vector.
func (r *Request) weights() qos.Weights {
	if r.Weights != nil {
		return r.Weights
	}
	return qos.UniformWeights(r.Properties)
}

// approach returns the effective aggregation approach.
func (r *Request) approach() qos.Approach {
	if r.Approach == 0 {
		return qos.Pessimistic
	}
	return r.Approach
}

// Assignment maps activity IDs to the chosen candidate service.
type Assignment map[string]registry.Candidate

// Evaluator scores assignments for a request: aggregated QoS over the
// task tree, constraint feasibility and the utility function F. The
// utility of an assignment is the weighted mean of per-activity
// candidate utilities, where each activity's candidates are normalized
// over that activity's own population — identical for every algorithm
// (QASSA and the baselines), which makes optimality ratios meaningful.
// NewEvaluator normalizes the populations itself. A selection instead
// reuses the normalizers its local phase built over the same
// populations (see SelectReusing): the same scale, built once.
type Evaluator struct {
	req         *Request
	normalizers map[string]*qos.Normalizer
	weights     qos.Weights
}

// NewEvaluator builds an evaluator from the per-activity candidate
// populations. Every activity of the request's task must have at least
// one candidate.
func NewEvaluator(req *Request, candidates map[string][]registry.Candidate) (*Evaluator, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	largest, err := checkPools(req, candidates)
	if err != nil {
		return nil, err
	}
	e := newEvaluator(req)
	// One vector-header scratch, sized once to the largest pool, serves
	// every activity: NewNormalizer reads the population and keeps none
	// of it.
	vecs := make([]qos.Vector, 0, largest)
	for _, a := range req.Task.Activities() {
		nz, err := poolNormalizer(req.Properties, candidates[a.ID], vecs)
		if err != nil {
			return nil, fmt.Errorf("core: activity %q: %w", a.ID, err)
		}
		e.normalizers[a.ID] = nz
	}
	return e, nil
}

// localEvaluator builds the evaluator of a selection from its local
// phase: each activity's normalizer is the one its local result scored
// with, built over the same pool, so every utility comes out as
// NewEvaluator's would. A supplied result that carries no normalizer
// gets one from its pool. The request and pools must have passed
// Validate and checkPools.
func localEvaluator(req *Request, candidates map[string][]registry.Candidate, locals map[string]*LocalResult) (*Evaluator, error) {
	e := newEvaluator(req)
	for _, a := range req.Task.Activities() {
		nz := locals[a.ID].nz
		if nz == nil {
			var err error
			if nz, err = poolNormalizer(req.Properties, candidates[a.ID], nil); err != nil {
				return nil, fmt.Errorf("core: activity %q: %w", a.ID, err)
			}
		}
		e.normalizers[a.ID] = nz
	}
	return e, nil
}

func newEvaluator(req *Request) *Evaluator {
	return &Evaluator{
		req:         req,
		normalizers: make(map[string]*qos.Normalizer, len(req.Task.Activities())),
		weights:     req.weights(),
	}
}

// checkPools reports, in task order, the first activity without
// candidates or with a candidate vector of the wrong arity, and returns
// the largest pool size.
func checkPools(req *Request, candidates map[string][]registry.Candidate) (int, error) {
	largest := 0
	for _, a := range req.Task.Activities() {
		pop := candidates[a.ID]
		if len(pop) == 0 {
			return 0, fmt.Errorf("core: activity %q has no candidate services", a.ID)
		}
		for i := range pop {
			if len(pop[i].Vector) != req.Properties.Len() {
				return 0, fmt.Errorf("core: candidate %q vector arity %d, want %d",
					pop[i].Service.ID, len(pop[i].Vector), req.Properties.Len())
			}
		}
		largest = max(largest, len(pop))
	}
	return largest, nil
}

// poolNormalizer min–max normalizes one candidate population, listing
// its vectors in vecs[:0].
func poolNormalizer(ps *qos.PropertySet, pop []registry.Candidate, vecs []qos.Vector) (*qos.Normalizer, error) {
	vecs = vecs[:0]
	for i := range pop {
		vecs = append(vecs, pop[i].Vector)
	}
	return qos.NewNormalizer(ps, vecs)
}

// Aggregate computes the aggregated QoS vector of an assignment over the
// task tree.
func (e *Evaluator) Aggregate(assign Assignment) qos.Vector {
	vectors := make(map[string]qos.Vector, len(assign))
	for id, c := range assign {
		vectors[id] = c.Vector
	}
	return e.req.Task.AggregateQoS(e.req.Properties, vectors, e.req.approach())
}

// Feasible reports whether the assignment meets every global constraint.
func (e *Evaluator) Feasible(assign Assignment) bool {
	return e.req.Constraints.Satisfied(e.req.Properties, e.Aggregate(assign))
}

// Violation measures the total relative constraint excess of the
// assignment (0 when feasible).
func (e *Evaluator) Violation(assign Assignment) float64 {
	return e.req.Constraints.Violation(e.req.Properties, e.Aggregate(assign))
}

// CandidateUtility scores one candidate of one activity in [0,1].
func (e *Evaluator) CandidateUtility(activityID string, c registry.Candidate) float64 {
	nz := e.normalizers[activityID]
	if nz == nil {
		return 0
	}
	return qos.Utility(nz.Normalize(c.Vector), e.weights)
}

// CandidateUtilityInto is CandidateUtility scoring through a
// caller-provided normalization buffer (len = property arity): the
// allocation-free variant the engine build uses. The same per-element
// Score calls produce the same bits as CandidateUtility.
func (e *Evaluator) CandidateUtilityInto(activityID string, c registry.Candidate, buf qos.Vector) float64 {
	nz := e.normalizers[activityID]
	if nz == nil {
		return 0
	}
	return qos.Utility(nz.NormalizeInto(buf, c.Vector), e.weights)
}

// Utility scores a full assignment: the mean candidate utility over the
// task's activities (F in [0,1]).
func (e *Evaluator) Utility(assign Assignment) float64 {
	acts := e.req.Task.Activities()
	if len(acts) == 0 {
		return 0
	}
	total := 0.0
	for _, a := range acts {
		c, ok := assign[a.ID]
		if !ok {
			continue
		}
		total += e.CandidateUtility(a.ID, c)
	}
	return total / float64(len(acts))
}

// Normalizer exposes the per-activity normalizer (used by the local
// phase and by tests).
func (e *Evaluator) Normalizer(activityID string) *qos.Normalizer {
	return e.normalizers[activityID]
}
