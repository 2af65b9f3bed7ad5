package core

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"sort"
	"sync"
	"time"

	"qasom/internal/cluster"
	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/randx"
	"qasom/internal/registry"
	"qasom/internal/task"
)

// Options tune QASSA.
type Options struct {
	// K is the number of quality clusters per property in the local
	// phase; 0 means 4.
	K int
	// Seeding selects the K-means initialisation (ablation knob); 0
	// means k-means++.
	Seeding cluster.Seeding
	// FlatGlobal disables the level-wise descent: the global phase runs
	// once over the full utility-sorted candidate lists (ablation knob).
	FlatGlobal bool
	// MaxAlternates caps the per-activity alternate list in the result;
	// 0 means 8.
	MaxAlternates int
	// PruneDominated drops Pareto-dominated candidates before the local
	// phase: a service worse on every property than some other candidate
	// can never improve the composition (ablation knob; shrinks the
	// alternate pool).
	PruneDominated bool
	// Seed drives the algorithm's randomness (K-means seeding); the
	// default 0 is replaced by 1 so runs are reproducible.
	Seed int64
	// Workers bounds the local-phase worker pool: per-activity clustering
	// runs are independent (the property the distributed mode already
	// exploits across devices) and fan out over this many goroutines.
	// 0 means GOMAXPROCS. Results are identical for every worker count:
	// each activity derives its own random source from Seed.
	Workers int
	// NaiveEvaluation routes every global-phase probe through the
	// reference Evaluator (full task-tree re-aggregation per swap)
	// instead of the incremental EvalEngine (ablation knob; results are
	// bit-identical either way — the differential tests enforce it —
	// only the evaluation cost changes).
	NaiveEvaluation bool
	// ParetoMode switches the global phase from scalar selection to
	// Pareto-front selection: the deterministic search runs against a
	// non-dominated archive instead of a single incumbent and the Result
	// carries the feasible trade-off front over Request.Objectives
	// (Result.Front; first element = scalarized-best front member, and
	// the Result's own fields describe that element). Scalar mode is
	// bit-identical with this off.
	ParetoMode bool
	// ParetoExhaustiveBound: when the product of the candidate pool
	// sizes is at or below this bound, front mode enumerates the whole
	// space through the incremental engine, so the returned front is the
	// exact non-dominated set (the regime the exhaustive-reference tests
	// and the front-quality experiment run in). 0 means 4096.
	ParetoExhaustiveBound int
	// ParetoMaxFront caps the returned front size; when the archive is
	// larger, crowding-distance pruning keeps the best-spread members
	// (boundary points survive). 0 means unbounded.
	ParetoMaxFront int
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 4
	}
	if o.MaxAlternates <= 0 {
		o.MaxAlternates = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ParetoExhaustiveBound <= 0 {
		o.ParetoExhaustiveBound = 4096
	}
	return o
}

// Stats reports the work QASSA performed.
type Stats struct {
	// LevelsExplored counts global-phase level iterations.
	LevelsExplored int
	// Evaluations counts the aggregated-QoS evaluations made by the
	// global search; building the failover rotation is not counted.
	Evaluations int
	// RepairSwaps counts applied violation-repair swaps.
	RepairSwaps int
	// LocalDuration and GlobalDuration split the wall time per phase.
	LocalDuration  time.Duration
	GlobalDuration time.Duration
	// Workers is the local-phase worker pool size in force and
	// PeakWorkersBusy the highest observed concurrent occupancy — together
	// they attribute local-phase speedups to actual parallelism.
	Workers         int
	PeakWorkersBusy int
	// Resilience counters of a distributed selection (zero for
	// centralized runs): exchanges retried after transient failures,
	// hedged second requests fired, replicas skipped on an open breaker,
	// and activities degraded to requester-side fallback selection.
	Retries, Hedges, BreakerSkips, Fallbacks int
	// DegradedCauses maps each degraded activity to the failure that
	// exhausted its policy (nil when nothing degraded).
	DegradedCauses map[string]string
	// FrontSize is the number of non-dominated members the Pareto-front
	// mode returned (0 in scalar mode).
	FrontSize int
}

// Result is the outcome of a selection run.
type Result struct {
	// Assignment maps every activity to its selected service.
	Assignment Assignment
	// Alternates holds, per activity, ranked fallback candidates for
	// run-time substitution (services that keep the composition feasible
	// when swapped in come first).
	Alternates map[string][]registry.Candidate
	// Aggregated is the composition's aggregated QoS vector.
	Aggregated qos.Vector
	// Utility is the composition utility F in [0,1].
	Utility float64
	// Breakdown maps every activity to the per-candidate utility of its
	// selected service (the score QASSA ranked it by) — the per-service
	// contribution view the flight recorder reports. Computed through
	// the same evaluation kernel as the selection, so it is bit-identical
	// across the naive and incremental engines.
	Breakdown map[string]float64
	// Feasible reports whether all global constraints hold; when false
	// the assignment is the best-effort minimum-violation composition.
	Feasible bool
	// Degraded reports that a distributed selection lost coordinators
	// beyond its retry/hedge policy and fell back to requester-side
	// local selection for at least one activity (see
	// Stats.Fallbacks/DegradedCauses). The selection itself is complete
	// and as good as the requester's registry view allows.
	Degraded bool
	// Violation is the residual constraint violation (0 when feasible).
	// When the request declares dependency rules it additionally counts
	// one unit per violated rule, so a dependency-violating best-effort
	// assignment is never reported as Violation 0.
	Violation float64
	// Front is the feasible non-dominated trade-off surface over the
	// request's objectives, populated only in Pareto-front mode. The
	// first element is the scalarized-best front member — the Result's
	// own Assignment/Aggregated/Utility describe it — and the remainder
	// is ordered by descending crowding distance (best-spread first).
	// Front members carry Assignment, Aggregated, Utility and Breakdown;
	// Alternates are computed for the returned best member only.
	Front []Result
	// Stats reports the algorithm's work.
	Stats Stats
}

// Clone returns a copy of the result sharing no mutable state with the
// original: the Assignment and Alternates maps and every alternate list
// are duplicated (adapt rotates them in place), as are the aggregated
// vector and the stats maps. The candidates themselves are copied
// shallowly: a registry.Candidate is immutable, so the copy shares its
// frozen description and vector. A Result is immutable once it leaves
// the selector and may be shared (the selection-plan cache hands the
// same pointer to every hit); a writer — adapt.Runtime before its first
// substitution — takes a private copy with Clone first.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	cp := *r
	cp.Assignment = maps.Clone(r.Assignment)
	if cp.Assignment == nil {
		cp.Assignment = Assignment{}
	}
	cp.Alternates = make(map[string][]registry.Candidate, len(r.Alternates))
	for id, list := range r.Alternates {
		cl := make([]registry.Candidate, len(list))
		copy(cl, list)
		cp.Alternates[id] = cl
	}
	cp.Aggregated = r.Aggregated.Clone()
	if r.Breakdown != nil {
		cp.Breakdown = make(map[string]float64, len(r.Breakdown))
		for k, v := range r.Breakdown {
			cp.Breakdown[k] = v
		}
	}
	if r.Stats.DegradedCauses != nil {
		m := make(map[string]string, len(r.Stats.DegradedCauses))
		for k, v := range r.Stats.DegradedCauses {
			m[k] = v
		}
		cp.Stats.DegradedCauses = m
	}
	if r.Front != nil {
		cp.Front = make([]Result, len(r.Front))
		for i := range r.Front {
			fc := r.Front[i].Clone()
			if r.Front[i].Alternates == nil {
				fc.Alternates = nil
			}
			cp.Front[i] = *fc
		}
	}
	return &cp
}

// BindingRecords renders the result's assignment as flight-recorder
// binding records (activity, service, per-service utility), sorted by
// activity for deterministic output.
func (r *Result) BindingRecords() []obs.BindingRecord {
	if r == nil {
		return nil
	}
	out := make([]obs.BindingRecord, 0, len(r.Assignment))
	for id, c := range r.Assignment {
		out = append(out, obs.BindingRecord{
			Activity: id,
			Service:  string(c.Service.ID),
			Utility:  r.Breakdown[id],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Activity < out[j].Activity })
	return out
}

// Selector runs QASSA. Create with NewSelector; safe for sequential
// reuse (each Select call re-derives its random source from Seed).
type Selector struct {
	opts Options
}

// NewSelector creates a selector with the given options.
func NewSelector(opts Options) *Selector { return &Selector{opts: opts} }

// Select runs the full algorithm: local phase per activity, then the
// global level-wise phase. It is SelectContext with a background
// context.
func (s *Selector) Select(req *Request, candidates map[string][]registry.Candidate) (*Result, error) {
	return s.SelectContext(context.Background(), req, candidates)
}

// SelectContext runs the full algorithm under a context: the local phase
// (per-activity K-means clustering) fans out over a bounded worker pool
// — per-activity runs are independent, the same property the distributed
// mode exploits across devices — and the global phase checks ctx at
// every level iteration and repair pass. Results are identical for every
// worker count and reproducible per Seed: each activity derives its own
// random source from Options.Seed, exactly as a coordinator device does
// in distributed mode.
func (s *Selector) SelectContext(ctx context.Context, req *Request, candidates map[string][]registry.Candidate) (*Result, error) {
	res, _, err := s.SelectReusing(ctx, req, candidates, nil)
	return res, err
}

// SelectReusing is SelectContext with part of the local phase supplied:
// an activity with a result in known skips its clustering, and every
// other activity is clustered as SelectContext would. It also returns
// every activity's local result, supplied or computed, so a caller can
// keep the new ones for later requests. A local result is a pure
// function of the activity's candidate list, the weights and this
// selector's options, so a supplied one must have been computed by an
// equally configured selector over the same list and weights. Supplied
// and returned results are shared read-only. known is ignored when the
// local phase would not see the gathered lists as they are: under
// Request.Local constraints or Options.PruneDominated.
func (s *Selector) SelectReusing(ctx context.Context, req *Request, candidates map[string][]registry.Candidate,
	known map[string]*LocalResult) (*Result, map[string]*LocalResult, error) {
	if err := req.Validate(); err != nil {
		return nil, nil, err
	}
	if len(req.Local) > 0 || s.opts.PruneDominated {
		known = nil
	}
	candidates, err := FilterLocal(req, candidates)
	if err != nil {
		return nil, nil, err
	}
	// The evaluator (and so the utility function) is defined over the
	// full admissible pools; Pareto pruning only shrinks the search
	// space — the optimum always sits on the Pareto front, so results
	// stay comparable with unpruned runs and with the baselines.
	eval, err := NewEvaluator(req, candidates)
	if err != nil {
		return nil, nil, err
	}
	if s.opts.PruneDominated {
		candidates = pruneDominated(req.Properties, candidates)
	}
	acts := req.Task.Activities()
	opts := s.opts.withDefaults()
	weights := req.weights()

	startLocal := time.Now()
	localCtx, localSpan := obs.StartSpan(ctx, "qassa.local")
	locals, peak, err := runLocalPhase(localCtx, acts, candidates, known, req.Properties, weights, opts)
	localSpan.End()
	if err != nil {
		return nil, nil, err
	}
	localDur := time.Since(startLocal)

	globalCtx, globalSpan := obs.StartSpan(ctx, "qassa.global")
	res, err := s.selectGlobal(globalCtx, req, eval, locals, opts)
	globalSpan.End()
	if err != nil {
		return nil, nil, err
	}
	res.Stats.LocalDuration = localDur
	res.Stats.Workers = opts.Workers
	res.Stats.PeakWorkersBusy = peak
	return res, locals, nil
}

// runLocalPhase executes the local selection phase for every activity
// without a result in known, on a worker pool of opts.Workers
// goroutines. The merge is deterministic: per-activity results are
// gathered positionally and errors are reported in activity order, so
// the outcome does not depend on goroutine scheduling. It also reports
// the peak pool occupancy observed (0 when every result was known).
func runLocalPhase(ctx context.Context, acts []*task.Activity, candidates map[string][]registry.Candidate,
	known map[string]*LocalResult, ps *qos.PropertySet, weights qos.Weights, opts Options) (map[string]*LocalResult, int, error) {
	locals := make(map[string]*LocalResult, len(acts))
	var pendingBuf [8]string // tasks of up to 8 activities list them without allocating
	pending := pendingBuf[:0]
	for _, a := range acts {
		if lr := known[a.ID]; lr != nil {
			locals[a.ID] = lr
		} else {
			pending = append(pending, a.ID)
		}
	}
	if len(pending) == 0 {
		return locals, 0, nil
	}
	var busyGauge *obs.Gauge
	if hub := obs.HubFrom(ctx); hub != nil {
		busyGauge = hub.Metrics.Gauge("qasom_local_workers_busy",
			"QASSA local-phase worker-pool occupancy (concurrent clustering runs).")
	}
	results := make([]*LocalResult, len(pending))
	errs := make([]error, len(pending))
	sem := make(chan struct{}, opts.Workers)
	var (
		wg         sync.WaitGroup
		occMu      sync.Mutex
		busy, peak int
	)
	for i, id := range pending {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			occMu.Lock()
			busy++
			if busy > peak {
				peak = busy
			}
			busyGauge.Set(float64(busy))
			occMu.Unlock()
			defer func() {
				occMu.Lock()
				busy--
				busyGauge.Set(float64(busy))
				occMu.Unlock()
			}()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			_, span := obs.StartSpan(ctx, "qassa.cluster")
			span.Annotate("activity", id)
			defer span.End()
			// Each activity gets its own source seeded from Options.Seed —
			// the scheme DeviceNode.LocalSelect already uses — so the
			// clustering is reproducible regardless of worker count or
			// completion order.
			rng := randx.New(opts.Seed)
			results[i], errs[i] = localSelect(id, candidates[id], ps, weights, opts.K, opts.Seeding, rng)
		}(i, id)
	}
	wg.Wait()
	for i, id := range pending {
		if errs[i] != nil {
			return nil, peak, errs[i]
		}
		locals[id] = results[i]
	}
	return locals, peak, nil
}

// SelectFromLocalContext runs only the global phase over pre-computed
// local results (the distributed mode gathers LocalResults from remote
// devices and calls this) under a cancellable context.
func (s *Selector) SelectFromLocalContext(ctx context.Context, req *Request, locals map[string]*LocalResult) (*Result, error) {
	candidates := make(map[string][]registry.Candidate, len(locals))
	for id, lr := range locals {
		list := make([]registry.Candidate, len(lr.Ranked))
		for i := range lr.Ranked {
			list[i] = lr.Ranked[i].Candidate()
		}
		candidates[id] = list
	}
	eval, err := NewEvaluator(req, candidates)
	if err != nil {
		return nil, err
	}
	opts := s.opts.withDefaults()
	return s.selectGlobal(ctx, req, eval, locals, opts)
}

// pruneDominated keeps only each activity's Pareto-optimal candidates.
func pruneDominated(ps *qos.PropertySet, candidates map[string][]registry.Candidate) map[string][]registry.Candidate {
	out := make(map[string][]registry.Candidate, len(candidates))
	for id, list := range candidates {
		vecs := make([]qos.Vector, len(list))
		for i, c := range list {
			vecs[i] = c.Vector
		}
		front := qos.ParetoFront(ps, vecs)
		kept := make([]registry.Candidate, len(front))
		for i, idx := range front {
			kept[i] = list[idx]
		}
		out[id] = kept
	}
	return out
}

func (s *Selector) selectGlobal(ctx context.Context, req *Request, eval *Evaluator, locals map[string]*LocalResult, opts Options) (*Result, error) {
	for _, a := range req.Task.Activities() {
		if locals[a.ID] == nil || len(locals[a.ID].Ranked) == 0 {
			return nil, fmt.Errorf("core: missing local result for activity %q", a.ID)
		}
	}
	start := time.Now()
	g := &globalState{ctx: ctx, req: req, eval: eval, locals: locals, opts: opts}
	var (
		res *Result
		err error
	)
	if opts.ParetoMode {
		res, err = g.runPareto()
	} else {
		res, err = g.run()
	}
	if err != nil {
		return nil, err
	}
	res.Stats.GlobalDuration = time.Since(start)
	return res, nil
}
