// Package qasom is the public API of QASOM, a QoS-aware service-oriented
// middleware for pervasive environments (Ben Mabrouk et al., MIDDLEWARE
// 2009): a from-scratch Go implementation of the semantic end-to-end QoS
// model, the QASSA clustering-based QoS-aware service selection
// algorithm (centralized and distributed), and the QoS-driven adaptation
// framework (service substitution and behavioural adaptation via
// subgraph homeomorphism).
//
// Typical flow:
//
//	mw, _ := qasom.New()
//	mw.Publish(qasom.Service{ID: "shop1", Capability: "BookSale", QoS: map[string]float64{...}})
//	mw.RegisterTaskClass("shopping", bpelBehaviour1, bpelBehaviour2)
//	comp, _ := mw.Compose(qasom.Request{Task: bpelBehaviour1, Constraints: []qasom.Constraint{...}})
//	report, _ := mw.Execute(ctx, comp)
//
// The middleware runs over a simulated pervasive environment (devices,
// wireless links, churn, QoS fluctuation) so the full selection →
// execution → monitoring → adaptation loop works out of the box; see
// DESIGN.md for how this substitutes for the thesis's testbed.
package qasom

import (
	"context"
	"fmt"

	"qasom/internal/adapt"
	"qasom/internal/contract"
	"qasom/internal/core"
	"qasom/internal/monitor"
	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/semantics"
	"qasom/internal/simenv"
	"qasom/internal/task"
)

// Service is a publishable service description. QoS values are keyed by
// property name (see Properties) or by any concept/alias of the shared
// ontology ("Delay", "Uptime", ...), in canonical units.
type Service struct {
	// ID uniquely identifies the service.
	ID string
	// Name is a human-readable label.
	Name string
	// Capability is the functional concept the service offers (e.g.
	// "BookSale", "AudioStreaming").
	Capability string
	// Inputs and Outputs are data concepts (optional).
	Inputs, Outputs []string
	// Device names the hosting device (optional).
	Device string
	// QoS holds the advertised values, e.g. {"responseTime": 120,
	// "availability": 0.95, "price": 3}.
	QoS map[string]float64
	// FailProb and Noise tune the simulated run-time behaviour of the
	// service (probability of failure per invocation; relative jitter).
	FailProb, Noise float64
}

// Constraint is one global QoS requirement over the whole composition.
type Constraint struct {
	// Property names a property of the middleware's property set.
	Property string
	// Bound is the threshold (≤ for minimized, ≥ for maximized
	// properties).
	Bound float64
}

// Request asks the middleware for a QoS-aware composition.
type Request struct {
	// Task is the user task as an abstract-BPEL document, or the name of
	// a behaviour previously registered via RegisterTaskClass.
	Task string
	// Constraints are the global QoS constraints U.
	Constraints []Constraint
	// Weights are the user preferences per property name (unnamed
	// properties default to weight 1 when Weights is nil, 0 otherwise).
	Weights map[string]float64
	// Approach selects the aggregation approach: "pessimistic"
	// (default), "optimistic" or "mean-value".
	Approach string
	// Distributed runs QASSA's local phase on one simulated coordinator
	// device per activity (the ad hoc mode of Fig. IV.4) instead of
	// centrally on the requester's device.
	Distributed bool
	// Objectives names the properties the Pareto-front mode trades off
	// (at least two; empty means every property of the middleware's
	// set). Ignored — and rejected with an error — unless the middleware
	// was created with Options.ParetoMode.
	Objectives []string
	// Dependencies are inter-service compatibility rules the selection
	// (and every later failover substitution) must honour.
	Dependencies []Dependency
}

// Dependency is one inter-service compatibility rule between two
// activities of the task. Kind is "requires" (binding From to
// FromService — or to anything, when FromService is empty — forces To
// onto one of ToServices), "excludes" (…forbids every ToServices
// binding for To) or "colocated" (From and To must be hosted on the
// same device; FromService/ToServices are ignored).
type Dependency struct {
	Kind        string
	From, To    string
	FromService string
	ToServices  []string
}

// toCore maps the facade rule onto the core representation.
func (d Dependency) toCore() (core.Dependency, error) {
	var kind core.DependencyKind
	switch d.Kind {
	case "requires":
		kind = core.DepRequires
	case "excludes":
		kind = core.DepExcludes
	case "colocated":
		kind = core.DepColocated
	default:
		return core.Dependency{}, fmt.Errorf("qasom: unknown dependency kind %q (want requires|excludes|colocated)", d.Kind)
	}
	to := make([]registry.ServiceID, len(d.ToServices))
	for i, s := range d.ToServices {
		to[i] = registry.ServiceID(s)
	}
	return core.Dependency{
		Kind:        kind,
		From:        d.From,
		To:          d.To,
		FromService: registry.ServiceID(d.FromService),
		ToServices:  to,
	}, nil
}

// Options configure the middleware.
type Options struct {
	// Seed drives all randomness (selection, simulation); 0 means 1.
	Seed int64
	// ExtendedProperties switches from the standard five-property set to
	// the extended eight-property set.
	ExtendedProperties bool
	// SelectionCacheSize bounds the selection-plan cache: repeated
	// Compose calls whose task, constraints, weights and approach match
	// — and whose touched registry capabilities have not changed since
	// (tracked by registry epochs) — share the previous Result read-only
	// with zero selection work, bit-identical to a fresh run. 0 means the default (128 entries); negative disables caching.
	// Distributed selections are never cached.
	SelectionCacheSize int
	// Obs is the telemetry hub (metrics registry + span tracer) the
	// instance reports into; nil means the process-wide default hub, so
	// one /metrics endpoint covers every middleware in the process.
	// Tests pass a fresh hub for isolated counters.
	Obs *obs.Hub
	// TenantID names the logical environment this instance operates in.
	// Instances sharing a Store but bound to different tenants are fully
	// isolated: publishes in one are invisible to the other's lookups and
	// never invalidate its cached selection plans. The zero value is the
	// default tenant.
	TenantID string
	// Store, when non-nil, is a shared multi-tenant registry store this
	// instance attaches to (via TenantID) instead of creating its own —
	// the way many logical environments share one process. The store's
	// ontology replaces the instance-private one. Deployments that need
	// store telemetry build their own Store.
	Store *registry.Store
	// ParetoMode switches every selection of this instance from scalar
	// (single best-utility composition) to multi-objective: the
	// composition still binds the scalarized-best member, and
	// Composition.Front exposes the whole non-dominated set over the
	// request's Objectives. Pareto selections are centralized-only
	// (Distributed requests error) and never plan-cached, so combining
	// ParetoMode with an explicit SelectionCacheSize > 0 is rejected by
	// New.
	ParetoMode bool
}

// Middleware is a QASOM instance: shared ontology, semantic registry,
// task-class repository, QASSA selector, QoS monitor and a simulated
// pervasive environment hosting the published services.
//
// Middleware is safe for concurrent use: Compose/ComposeContext may run
// from many goroutines against one instance, concurrently with
// Publish/Withdraw/SetDown/SetUp and task-class registration. Each
// selection works on snapshot copies of the matching service
// descriptions, so a service withdrawn mid-composition stays bound in
// that composition (and is healed at execution time by the adaptation
// loop, exactly as a device leaving mid-run would be).
type Middleware struct {
	ontology  *semantics.Ontology
	props     *qos.PropertySet
	reg       *registry.Registry
	repo      *task.Repository
	env       *simenv.Environment
	selector  *core.Selector
	mon       *monitor.Monitor
	contracts *contract.Manager
	obs       *obs.Hub
	bgCtx     context.Context // context.Background carrying obs; Compose's context
	met       composeMetrics
	plans     *planCache
	locals    *localMemo          // per-activity local phases under the plan cache; nil exactly when plans is
	tasks     genTable[taskEntry] // resolved task specs (documents, behaviour names), keyed by content
	manager   *adapt.Manager      // the one adaptation manager every composition shares
	opts      Options
	tenant    string // tenant label on metrics and flight records ("default" for the zero tenant)
}

// composeMetrics bundles the façade's registry handles, created once in
// New so the Compose/Execute hot paths never do name lookups.
type composeMetrics struct {
	composeTotal      *obs.Counter
	composeErrors     *obs.Counter
	composeInfeasible *obs.Counter
	composeSeconds    *obs.Histogram
	executeTotal      *obs.Counter
	executeErrors     *obs.Counter
	executeSeconds    *obs.Histogram
	tenantRequests    *obs.Counter
	paretoFrontSize   *obs.Histogram

	// Children of qasom_compose_phase_seconds, resolved once.
	phaseResolve, phaseLookup, phaseLocal, phaseGlobal *obs.Histogram
}

func composeMetricsFor(hub *obs.Hub, tenant string) composeMetrics {
	r := hub.Metrics
	phase := r.HistogramVec("qasom_compose_phase_seconds",
		"Compose latency split by pipeline phase (resolve|lookup|local|global).",
		nil, "phase")
	return composeMetrics{
		composeTotal: r.Counter("qasom_compose_total",
			"Compose/ComposeContext calls."),
		composeErrors: r.Counter("qasom_compose_errors_total",
			"Compose calls that returned an error."),
		composeInfeasible: r.Counter("qasom_compose_infeasible_total",
			"Compositions returned best-effort (some global constraint unsatisfied)."),
		composeSeconds: r.Histogram("qasom_compose_seconds",
			"End-to-end Compose latency.", nil),
		phaseResolve: phase.With("resolve"),
		phaseLookup:  phase.With("lookup"),
		phaseLocal:   phase.With("local"),
		phaseGlobal:  phase.With("global"),
		executeTotal: r.Counter("qasom_execute_total",
			"Execute calls."),
		executeErrors: r.Counter("qasom_execute_errors_total",
			"Execute calls that failed (unrecoverable or non-convergent)."),
		executeSeconds: r.Histogram("qasom_execute_seconds",
			"End-to-end Execute latency (including adaptation rounds).", nil),
		tenantRequests: r.CounterVec("qasom_tenant_requests_total",
			"Compose calls attributed to the tenant the middleware instance is bound to.",
			"tenant").With(tenant),
		paretoFrontSize: r.Histogram("qasom_pareto_front_size",
			"Non-dominated set sizes returned by Pareto-mode selections.",
			[]float64{1, 2, 4, 8, 16, 32, 64}),
	}
}

// tenantLabel maps the zero tenant to a stable metric label.
func tenantLabel(id string) string {
	if id == "" {
		return "default"
	}
	return id
}

// New creates a middleware instance.
func New(opts ...Options) (*Middleware, error) {
	var o Options
	if len(opts) > 1 {
		return nil, fmt.Errorf("qasom: at most one Options value")
	}
	if len(opts) == 1 {
		o = opts[0]
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ParetoMode && o.SelectionCacheSize > 0 {
		return nil, fmt.Errorf("qasom: ParetoMode cannot be combined with SelectionCacheSize %d: the selection-plan cache stores scalar plans without their fronts; leave SelectionCacheSize at 0 (ParetoMode disables the cache)", o.SelectionCacheSize)
	}
	if o.ParetoMode {
		// No front-caching: a replayed scalar plan would come back with
		// an empty Front, silently changing the API's answer.
		o.SelectionCacheSize = -1
	}
	if o.Obs == nil {
		o.Obs = obs.Default()
	}
	ps := qos.StandardSet()
	if o.ExtendedProperties {
		ps = qos.ExtendedSet()
	}
	store := o.Store
	var onto *semantics.Ontology
	if store != nil {
		// Shared store: its ontology is the instance's semantic model so
		// every tenant matches against the same concept hierarchy.
		onto = store.Ontology()
	} else {
		onto = semantics.PervasiveWithScenarios()
		store = registry.NewStore(onto, registry.StoreOptions{Obs: o.Obs.Metrics})
	}
	reg := store.Tenant(registry.TenantID(o.TenantID))
	plans := newPlanCache(o.SelectionCacheSize, o.Obs.Metrics)
	m := &Middleware{
		ontology:  onto,
		props:     ps,
		reg:       reg,
		repo:      task.NewRepository(onto),
		env:       simenv.New(ps, reg, simenv.Options{Seed: o.Seed}),
		selector:  core.NewSelector(core.Options{Seed: o.Seed, ParetoMode: o.ParetoMode}),
		mon:       monitor.New(ps, monitor.Options{Obs: o.Obs}),
		contracts: contract.NewManager(ps, onto),
		obs:       o.Obs,
		bgCtx:     obs.WithHub(context.Background(), o.Obs),
		met:       composeMetricsFor(o.Obs, tenantLabel(o.TenantID)),
		plans:     plans,
		locals:    newLocalMemo(plans, o.Obs.Metrics),
		opts:      o,
		tenant:    tenantLabel(o.TenantID),
	}
	m.tasks.init(internGenSize, nil)
	m.manager = &adapt.Manager{
		Registry: reg,
		Repo:     m.repo,
		Selector: m.selector,
		Monitor:  m.mon,
		Obs:      o.Obs,
	}
	m.manager.Options.Match.AllowSubsume = true
	m.manager.Options.Match.AllowMerge = true
	obs.RegisterBuildInfo(o.Obs.Metrics)
	o.Obs.Metrics.Func("qasom_plan_cache_entries",
		"Live entries in the selection-plan cache.",
		func() float64 { return float64(m.plans.len()) })
	o.Obs.Metrics.Func("qasom_flight_records_dropped_total",
		"Flight records discarded because their ring slot was busy (Record is drop-don't-block).",
		func() float64 { return float64(o.Obs.Flight.Dropped()) })
	// Live-state gauges: evaluated at scrape time, so the registry stays
	// the one source of truth for cumulative cache/size telemetry that
	// the per-composition SelectionStats only samples windows of.
	o.Obs.Metrics.Func("qasom_registry_services",
		"Services currently published in the semantic registry.",
		func() float64 { return float64(m.reg.Len()) })
	o.Obs.Metrics.Func("qasom_ontology_match_cache_hits",
		"Cumulative ontology Match memo hits.",
		func() float64 { return float64(m.ontology.Stats().MatchHits) })
	o.Obs.Metrics.Func("qasom_ontology_match_cache_misses",
		"Cumulative ontology Match memo misses.",
		func() float64 { return float64(m.ontology.Stats().MatchMisses) })
	o.Obs.Metrics.Func("qasom_ontology_memo_evictions",
		"Cumulative ontology Match memo entries dropped by the size cap.",
		func() float64 { return float64(m.ontology.Stats().MatchEvictions) })
	return m, nil
}

// Close is a no-op kept for callers that release a middleware when done
// with it: the middleware starts no goroutine and holds no subscription,
// so there is nothing to release. The instance stays usable afterwards,
// and failover probes the registry and monitor as before, so it never
// hands out a withdrawn service. Safe to call more than once.
func (m *Middleware) Close() {}

// Observability returns the middleware's telemetry hub: the metrics
// registry behind /metrics and the tracer whose Snapshot holds the most
// recent Compose/Execute span trees. Serve it with obs.ServeDebug or
// mount Hub.Handler on an existing server.
func (m *Middleware) Observability() *obs.Hub { return m.obs }

// Properties returns the property names of the middleware's QoS set.
func (m *Middleware) Properties() []string { return m.props.Names() }

// Ontology exposes the shared semantic model for advanced use (adding
// domain concepts before publishing services).
func (m *Middleware) Ontology() *semantics.Ontology { return m.ontology }

// Publish deploys a service into the (simulated) environment and its
// description into the registry.
func (m *Middleware) Publish(s Service) error {
	if s.ID == "" || s.Capability == "" {
		return fmt.Errorf("qasom: service needs ID and Capability")
	}
	offers := make([]registry.QoSOffer, 0, len(s.QoS))
	for name, value := range s.QoS {
		concept := semantics.ConceptID(name)
		if j, ok := m.props.Index(name); ok {
			concept = m.props.At(j).Concept
		}
		offers = append(offers, registry.QoSOffer{Property: concept, Value: value})
	}
	desc := registry.Description{
		ID:       registry.ServiceID(s.ID),
		Name:     s.Name,
		Concept:  semantics.ConceptID(s.Capability),
		Inputs:   toConcepts(s.Inputs),
		Outputs:  toConcepts(s.Outputs),
		Provider: registry.DeviceID(s.Device),
		Offers:   offers,
	}
	return m.env.Deploy(simenv.Service{Desc: desc, FailProb: s.FailProb, Noise: s.Noise})
}

// Withdraw removes a service from the environment (simulating a device
// leaving); it reports whether the service was present.
func (m *Middleware) Withdraw(id string) bool {
	return m.env.Leave(registry.ServiceID(id))
}

// SetDown marks a service unreachable without withdrawing its
// advertisement, and SetUp revives it — the advertised-vs-runtime
// mismatch QoS monitoring exists for.
func (m *Middleware) SetDown(id string) { m.env.SetDown(registry.ServiceID(id), true) }

// SetUp revives a service previously marked down.
func (m *Middleware) SetUp(id string) { m.env.SetDown(registry.ServiceID(id), false) }

// Degrade shifts a service's run-time QoS by the given per-property
// deltas without touching its advertisement.
func (m *Middleware) Degrade(id string, deltas map[string]float64) error {
	d := m.props.NewVector()
	for name, v := range deltas {
		j, ok := m.props.Index(name)
		if !ok {
			return fmt.Errorf("qasom: unknown property %q", name)
		}
		d[j] = v
	}
	return m.env.Degrade(registry.ServiceID(id), d)
}

// ServiceCount returns the number of published services.
func (m *Middleware) ServiceCount() int { return m.reg.Len() }

// EnableMobility activates the environment's mobility and radio model:
// devices and the user get positions in an arena×arena square; links
// degrade with distance (latencyPerUnit ms of response time per distance
// unit) and break beyond radioRange — the infrastructure-level half of
// the end-to-end QoS model.
func (m *Middleware) EnableMobility(arena, radioRange, latencyPerUnit float64) error {
	return m.env.EnableMobility(simenv.RadioModel{
		Arena:          arena,
		Range:          radioRange,
		LatencyPerUnit: latencyPerUnit,
	})
}

// PlaceDevice positions a device in the arena; speed > 0 makes it roam
// (random waypoint) on each Tick.
func (m *Middleware) PlaceDevice(deviceID string, x, y, speed float64) error {
	return m.env.PlaceDevice(deviceID, simenv.Position{X: x, Y: y}, speed)
}

// MoveUser repositions the user's device.
func (m *Middleware) MoveUser(x, y float64) {
	m.env.SetUserPosition(simenv.Position{X: x, Y: y})
}

// Tick advances the mobility simulation by dt time units.
func (m *Middleware) Tick(dt float64) { m.env.Tick(dt) }

// SignalStrength returns the normalized link quality in [0,1] between
// the user and a device (1 when mobility is disabled).
func (m *Middleware) SignalStrength(deviceID string) float64 {
	return m.env.SignalStrength(deviceID)
}

func toConcepts(names []string) []semantics.ConceptID {
	out := make([]semantics.ConceptID, len(names))
	for i, n := range names {
		out[i] = semantics.ConceptID(n)
	}
	return out
}
