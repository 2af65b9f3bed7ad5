package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"qasom/internal/adapt"
	"qasom/internal/core"
	"qasom/internal/monitor"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/semantics"
	"qasom/internal/simenv"
	"qasom/internal/task"
)

// FailoverConfig parameterises the time-to-recover rig: a three-step
// shopping task selected at ℓ candidates per activity with a capped
// alternate list, where the victim activity's alternates carry a "dead
// prefix" — a withdrawn slice the registry no longer knows and an
// unhealthy slice the monitor has seen failing — that every failover
// must get past before it reaches a live candidate. Every dead candidate
// costs a registry and a monitor probe.
type FailoverConfig struct {
	// Services per capability (the paper's ℓ axis); 0 means 300.
	Services int
	// Alternates caps the per-activity alternate list; 0 means 50.
	Alternates int
	// Seed drives the simulated environment; 0 means 1.
	Seed int64
}

// The failover rig's dead prefix, as fractions of the victim's
// alternates.
const (
	// failoverWithdrawnFrac leave the registry before measurement.
	failoverWithdrawnFrac = 0.6
	// failoverUnhealthyFrac fail below monitor.MinSuccessRate.
	failoverUnhealthyFrac = 0.2
)

func (c FailoverConfig) withDefaults() FailoverConfig {
	if c.Services <= 0 {
		c.Services = 300
	}
	if c.Alternates <= 0 {
		c.Alternates = 50
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// FailoverRig drives repeated service-death failovers against one
// composition. Each round is steady-state: the bound service leaves the
// registry (the simenv fault), Substitute recovers, and the displaced
// binding redeploys at the tail of the rotation — so the healthy pool
// is conserved and the dead prefix stays in front of every scan, round
// after round, for as many rounds as a benchmark asks for.
type FailoverRig struct {
	cfg     FailoverConfig
	env     *simenv.Environment
	reg     *registry.Registry
	mon     *monitor.Monitor
	manager *adapt.Manager
	rt      *adapt.Runtime
	ps      *qos.PropertySet
	victim  string
	descs   map[registry.ServiceID]registry.Description
}

// FailoverResult aggregates the per-round Substitute latencies.
type FailoverResult struct {
	Rounds        int
	P50, P99, Max time.Duration
	Substitutions int
	RotationHits  int
	Exhausted     int
}

// NewFailoverRig builds the environment, selects the composition and
// poisons the victim's alternate prefix. The returned rig is ready to
// measure.
func NewFailoverRig(cfg FailoverConfig) (*FailoverRig, error) {
	cfg = cfg.withDefaults()
	onto := semantics.PervasiveWithScenarios()
	ps := qos.StandardSet()
	reg := registry.New(onto)
	env := simenv.New(ps, reg, simenv.Options{Seed: cfg.Seed})

	r := &FailoverRig{
		cfg: cfg, env: env, reg: reg, ps: ps, victim: "order",
		descs: make(map[registry.ServiceID]registry.Description),
	}
	for _, spec := range []struct {
		concept semantics.ConceptID
		prefix  string
	}{
		{semantics.BrowseCatalog, "browse"},
		{semantics.OrderItem, "order"},
		{semantics.CardPayment, "pay"},
	} {
		for i := 0; i < cfg.Services; i++ {
			d := registry.Description{
				ID:      registry.ServiceID(fmt.Sprintf("%s-%03d", spec.prefix, i)),
				Concept: spec.concept,
				Offers: []registry.QoSOffer{
					{Property: semantics.ResponseTime, Value: 40 + float64(i%97)},
					{Property: semantics.Price, Value: 5 + float64(i%11)},
					{Property: semantics.Availability, Value: 0.95},
					{Property: semantics.Reliability, Value: 0.9},
					{Property: semantics.Throughput, Value: 40},
				},
			}
			if err := env.Deploy(simenv.Service{Desc: d, Noise: 0.05}); err != nil {
				return nil, err
			}
			r.descs[d.ID] = d
		}
	}

	tk := &task.Task{Name: "failover", Concept: semantics.ShoppingService, Root: task.Sequence(
		task.NewActivity(&task.Activity{ID: "browse", Concept: semantics.BrowseCatalog}),
		task.NewActivity(&task.Activity{ID: "order", Concept: semantics.OrderItem}),
		task.NewActivity(&task.Activity{ID: "pay", Concept: semantics.CardPayment}),
	)}
	req := &core.Request{
		Task:        tk,
		Properties:  ps,
		Constraints: qos.Constraints{{Property: "responseTime", Bound: 1000}},
	}
	cands := make(map[string][]registry.Candidate)
	for _, a := range tk.Activities() {
		cands[a.ID] = reg.CandidatesForActivity(a, ps)
		if len(cands[a.ID]) < cfg.Services {
			return nil, fmt.Errorf("failover rig: %s resolved %d of %d candidates",
				a.ID, len(cands[a.ID]), cfg.Services)
		}
	}
	sel := core.NewSelector(core.Options{MaxAlternates: cfg.Alternates})
	res, err := sel.Select(req, cands)
	if err != nil {
		return nil, err
	}
	r.mon = monitor.New(ps, monitor.Options{})
	r.rt = adapt.NewRuntime(req, res)
	r.manager = &adapt.Manager{Registry: reg, Selector: sel, Monitor: r.mon}
	if err := r.poison(); err != nil {
		return nil, err
	}
	return r, nil
}

// poison kills the front of the victim's alternate list: the first
// failoverWithdrawnFrac leave the registry entirely, the next
// failoverUnhealthyFrac stay published but fail until the monitor
// demotes them. Both kinds stay dead for the life of the rig.
func (r *FailoverRig) poison() error {
	alts := r.alternates()
	withdrawn := int(failoverWithdrawnFrac * float64(len(alts)))
	unhealthy := int(failoverUnhealthyFrac * float64(len(alts)))
	if withdrawn+unhealthy >= len(alts) {
		return fmt.Errorf("failover rig: dead prefix %d+%d covers all %d alternates",
			withdrawn, unhealthy, len(alts))
	}
	for _, id := range alts[:withdrawn] {
		if !r.env.Leave(id) {
			return fmt.Errorf("failover rig: %s did not leave", id)
		}
	}
	for _, id := range alts[withdrawn : withdrawn+unhealthy] {
		for i := 0; i < 6; i++ {
			if err := r.mon.Report(monitor.Observation{
				Service: id, Vector: r.ps.NewVector(), Success: false,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *FailoverRig) bound() registry.ServiceID {
	var id registry.ServiceID
	r.rt.View(func(res *core.Result) { id = res.Assignment[r.victim].Service.ID })
	return id
}

func (r *FailoverRig) alternates() []registry.ServiceID {
	var out []registry.ServiceID
	r.rt.View(func(res *core.Result) {
		for _, a := range res.Alternates()[r.victim] {
			out = append(out, a.Service.ID)
		}
	})
	return out
}

// Rounds performs n failover rounds and returns the Substitute latency
// quantiles. Each round: the bound service dies (registry withdrawal,
// which the walk's registry probe observes), Substitute picks the best
// live alternate past the dead prefix, and the dead service redeploys so
// the pool is back to steady state before the next round.
func (r *FailoverRig) Rounds(n int) (*FailoverResult, error) {
	durs := make([]time.Duration, 0, n)
	exclude := make(map[registry.ServiceID]bool, 1)
	for i := 0; i < n; i++ {
		victim := r.bound()
		desc, ok := r.descs[victim]
		if !ok {
			return nil, fmt.Errorf("failover rig: unknown binding %s", victim)
		}
		if !r.env.Leave(victim) {
			return nil, fmt.Errorf("failover rig: %s did not leave", victim)
		}
		clear(exclude)
		exclude[victim] = true

		start := time.Now()
		cand, err := r.manager.Substitute(r.rt, r.victim, exclude)
		durs = append(durs, time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("failover rig: round %d: %w", i, err)
		}
		if cand.Service.ID == victim {
			return nil, fmt.Errorf("failover rig: round %d re-picked the dead binding", i)
		}

		if err := r.env.Deploy(simenv.Service{Desc: desc, Noise: 0.05}); err != nil {
			return nil, err
		}
	}
	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	stats := r.rt.FailoverStats()
	return &FailoverResult{
		Rounds:        n,
		P50:           durs[len(durs)/2],
		P99:           durs[len(durs)*99/100],
		Max:           durs[len(durs)-1],
		Substitutions: r.rt.Substitutions(),
		RotationHits:  stats.RotationHits,
		Exhausted:     stats.Exhausted,
	}, nil
}

// medianOf returns the median of a non-empty sample set.
func medianOf(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[len(s)/2]
}

// expFailover measures failover time-to-recover on service death at
// ℓ=300 with 50-candidate alternate sets, under the simenv fault
// injector's dead-prefix regime: p50/p99 of the probing rotation walk.
func expFailover() *Experiment {
	return &Experiment{
		ID:    "failover",
		Paper: "Ch. V substitution (time-to-recover)",
		Title: "Time-to-recover: probing walk over the alternate rotation",
		Expected: "The walk pays a Registry.Has and a " +
			"Monitor.SuccessRate probe per dead candidate to get past " +
			"the dead prefix, so recovery latency scales with the " +
			"length of that prefix, not with the registry's size.",
		Run: func(cfg Config) (*Table, error) {
			cfg = cfg.withDefaults()
			services, alternates, rounds := 300, 50, 2000
			if cfg.Quick {
				services, alternates, rounds = 60, 16, 100
			}
			t := NewTable(
				fmt.Sprintf("Failover time-to-recover (ℓ=%d, %d-candidate alternate sets, dead prefix 60%%+20%%)",
					services, alternates),
				"rounds", "sub_p50_us", "sub_p99_us", "sub_max_us",
				"rotation_hits", "fallbacks")
			rig, err := NewFailoverRig(FailoverConfig{
				Services: services, Alternates: alternates, Seed: cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			// Median over repetitions: a GC cycle or scheduler hiccup
			// landing inside one pass's measured windows cannot move the
			// reported quantile on its own.
			p50s := make([]time.Duration, 0, cfg.Repetitions)
			p99s := make([]time.Duration, 0, cfg.Repetitions)
			var last *FailoverResult
			for rep := 0; rep < cfg.Repetitions; rep++ {
				runtime.GC()
				res, err := rig.Rounds(rounds)
				if err != nil {
					return nil, err
				}
				p50s = append(p50s, res.P50)
				p99s = append(p99s, res.P99)
				last = res
			}
			t.AddRow(cfg.Repetitions*rounds,
				float64(medianOf(p50s))/float64(time.Microsecond),
				float64(medianOf(p99s))/float64(time.Microsecond),
				float64(last.Max)/float64(time.Microsecond),
				last.RotationHits, last.Exhausted)
			return t, nil
		},
	}
}
