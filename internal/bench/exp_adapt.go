package bench

import (
	"context"
	"fmt"
	"time"

	"qasom/internal/adapt"
	"qasom/internal/core"
	"qasom/internal/exec"
	"qasom/internal/monitor"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/resilience"
	"qasom/internal/semantics"
	"qasom/internal/simenv"
	"qasom/internal/task"
)

func adaptationExperiments() []*Experiment {
	return []*Experiment{expAdapt(), expFailover()}
}

// adaptFixture wires a full middleware stack over the simulated
// environment for the shopping task class.
type adaptFixture struct {
	env     *simenv.Environment
	reg     *registry.Registry
	mon     *monitor.Monitor
	manager *adapt.Manager
	rt      *adapt.Runtime
	ps      *qos.PropertySet
}

func newAdaptFixture(seed int64) (*adaptFixture, error) {
	onto := semantics.PervasiveWithScenarios()
	ps := qos.StandardSet()
	reg := registry.New(onto)
	env := simenv.New(ps, reg, simenv.Options{Seed: seed})

	deploy := func(concept semantics.ConceptID, prefix string, n int) error {
		for i := 0; i < n; i++ {
			d := registry.Description{
				ID:      registry.ServiceID(fmt.Sprintf("%s-%d", prefix, i)),
				Concept: concept,
				Offers: []registry.QoSOffer{
					{Property: semantics.ResponseTime, Value: 40 + float64(5*i)},
					{Property: semantics.Price, Value: 5},
					{Property: semantics.Availability, Value: 0.95},
					{Property: semantics.Reliability, Value: 0.9},
					{Property: semantics.Throughput, Value: 40},
				},
			}
			if err := env.Deploy(simenv.Service{Desc: d, Noise: 0.05}); err != nil {
				return err
			}
		}
		return nil
	}
	for _, spec := range []struct {
		concept semantics.ConceptID
		prefix  string
	}{
		{semantics.BrowseCatalog, "browse"},
		{semantics.OrderItem, "order"},
		{semantics.CardPayment, "pay"},
		{semantics.ShoppingService, "fulfil"}, // generic one-stop services
		{semantics.MobilePayment, "mpay"},
	} {
		if err := deploy(spec.concept, spec.prefix, 4); err != nil {
			return nil, err
		}
	}

	b1 := &task.Task{Name: "b1", Concept: semantics.ShoppingService, Root: task.Sequence(
		task.NewActivity(&task.Activity{ID: "browse", Concept: semantics.BrowseCatalog}),
		task.NewActivity(&task.Activity{ID: "order", Concept: semantics.OrderItem}),
		task.NewActivity(&task.Activity{ID: "pay", Concept: semantics.PaymentService}),
	)}
	// b2 replaces the specialised ordering activity with a generic
	// one-stop fulfilment step: matching it requires subsume-level
	// semantics, and it survives the loss of every OrderItem provider.
	b2 := &task.Task{Name: "b2", Concept: semantics.ShoppingService, Root: task.Sequence(
		task.NewActivity(&task.Activity{ID: "fulfil", Concept: semantics.ShoppingService}),
		task.NewActivity(&task.Activity{ID: "mpay", Concept: semantics.MobilePayment}),
	)}
	repo := task.NewRepository(onto)
	if err := repo.Register(&task.Class{
		Name: "shopping", Concept: semantics.ShoppingService, Behaviours: []*task.Task{b1, b2},
	}); err != nil {
		return nil, err
	}

	req := &core.Request{
		Task:        b1,
		Properties:  ps,
		Constraints: qos.Constraints{{Property: "responseTime", Bound: 500}},
	}
	cands := make(map[string][]registry.Candidate)
	for _, a := range b1.Activities() {
		cands[a.ID] = reg.CandidatesForActivity(a, ps)
		if len(cands[a.ID]) == 0 {
			return nil, fmt.Errorf("bench: no candidates for %s", a.ID)
		}
	}
	sel := core.NewSelector(core.Options{})
	res, err := sel.Select(req, cands)
	if err != nil {
		return nil, err
	}
	mon := monitor.New(ps, monitor.Options{})
	rt := adapt.NewRuntime(req, res)
	manager := &adapt.Manager{Registry: reg, Repo: repo, Selector: sel, Monitor: mon}
	manager.Options.Match.AllowSubsume = true
	return &adaptFixture{env: env, reg: reg, mon: mon, manager: manager, rt: rt, ps: ps}, nil
}

// run executes the runtime's current task, falling back to behavioural
// adaptation when substitution is exhausted. It returns whether the task
// completed, how long recovery took, and the substitution count.
func (f *adaptFixture) run(ctx context.Context) (completed bool, switches int, err error) {
	for round := 0; round < 3; round++ {
		execu := &exec.Executor{
			Invoker:    f.env,
			Binder:     f.rt,
			Monitor:    f.mon,
			OnFailure:  f.manager.FailureHandler(f.rt),
			OnComplete: f.manager.CompletionHook(f.rt),
			Options:    exec.Options{Policy: resilience.Policy{MaxAttempts: 5}},
		}
		remaining, ok := f.rt.Remaining()
		if !ok {
			return true, switches, nil
		}
		if _, err := execu.Run(ctx, remaining); err == nil {
			return true, switches, nil
		}
		// Substitution exhausted: try the behavioural strategy.
		if _, aerr := f.manager.AdaptBehaviour(f.rt); aerr != nil {
			return false, switches, aerr
		}
		switches++
	}
	return false, switches, fmt.Errorf("bench: did not converge after 3 rounds")
}

func expAdapt() *Experiment {
	return &Experiment{
		ID:    "adapt",
		Paper: "Ch. V strategies (end-to-end)",
		Title: "Recovery by substitution vs behavioural adaptation under churn",
		Expected: "A single service failure is absorbed by substitution " +
			"(milliseconds, no behaviour switch); losing every provider of a " +
			"capability forces one behavioural switch and the composition " +
			"still completes.",
		Run: func(cfg Config) (*Table, error) {
			cfg = cfg.withDefaults()
			t := NewTable("Adaptation strategies under failure injection (shopping class)",
				"scenario", "completed", "substitutions", "behaviour_switches", "recovery_ms")
			type scenario struct {
				name   string
				inject func(*adaptFixture)
			}
			scenarios := []scenario{
				{"no-failure", func(*adaptFixture) {}},
				{"one-service-down", func(f *adaptFixture) {
					if bound, err := f.rt.Bind(f.rt.Req.Task.ActivityByID("order")); err == nil {
						f.env.SetDown(bound.Service.ID, true)
					}
				}},
				{"capability-lost", func(f *adaptFixture) {
					// Every OrderItem provider leaves: substitution cannot
					// help, behavioural adaptation must kick in.
					for _, d := range f.reg.All() {
						if d.Concept == semantics.OrderItem {
							f.env.Leave(d.ID)
						}
					}
				}},
			}
			for _, sc := range scenarios {
				f, err := newAdaptFixture(cfg.Seed)
				if err != nil {
					return nil, err
				}
				sc.inject(f)
				start := time.Now()
				completed, switches, err := f.run(benchCtx())
				recovery := time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("scenario %s: %w", sc.name, err)
				}
				t.AddRow(sc.name, completed, f.rt.Substitutions(), switches, recovery)
			}
			return t, nil
		},
	}
}
