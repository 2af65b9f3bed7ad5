package bench

import (
	"fmt"

	"qasom/internal/exec"
	"qasom/internal/monitor"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/resilience"
	"qasom/internal/semantics"
	"qasom/internal/simenv"
	"qasom/internal/task"
)

func mobilityExperiments() []*Experiment {
	return []*Experiment{expMobility()}
}

// expMobility demonstrates the end-to-end QoS model operationally: the
// same service delivers increasingly worse QoS as the user walks away
// from its hosting device (link latency grows, then the signal breaks),
// even though the service's own performance and advertisement never
// change — exactly the mismatch the thesis's monitoring layer exists to
// catch.
func expMobility() *Experiment {
	return &Experiment{
		ID:    "mobility",
		Paper: "Ch. III end-to-end model (operational)",
		Title: "Delivered vs advertised QoS under user mobility",
		Expected: "Delivered response time = advertised + distance·link " +
			"cost; the monitor's estimate tracks the delivered value and " +
			"the link breaks beyond radio range.",
		Run: func(cfg Config) (*Table, error) {
			cfg = cfg.withDefaults()
			ps := qos.StandardSet()
			onto := semantics.PervasiveWithScenarios()
			reg := registry.New(onto)
			env := simenv.New(ps, reg, simenv.Options{Seed: cfg.Seed})
			if err := env.EnableMobility(simenv.RadioModel{Arena: 100, Range: 45, LatencyPerUnit: 2}); err != nil {
				return nil, err
			}
			desc := registry.Description{
				ID: "stream-1", Concept: semantics.AudioStreaming, Provider: "host-dev",
				Offers: []registry.QoSOffer{
					{Property: semantics.ResponseTime, Value: 60},
					{Property: semantics.Price, Value: 0},
					{Property: semantics.Availability, Value: 0.95},
					{Property: semantics.Reliability, Value: 0.9},
					{Property: semantics.Throughput, Value: 50},
				},
			}
			if err := env.Deploy(simenv.Service{Desc: desc}); err != nil {
				return nil, err
			}
			if err := env.PlaceDevice("host-dev", simenv.Position{X: 50, Y: 50}, 0); err != nil {
				return nil, err
			}
			mon := monitor.New(ps, monitor.Options{Alpha: 1})
			activity := &task.Activity{ID: "stream", Concept: semantics.AudioStreaming}

			t := NewTable("Delivered QoS vs user distance (advertised rt = 60ms, 2ms/unit, range 45)",
				"distance", "delivered_rt_ms", "signal", "reachable", "monitor_estimate_ms")
			for _, dist := range []float64{0, 10, 20, 30, 40, 50} {
				env.SetUserPosition(simenv.Position{X: 50 + dist, Y: 50})
				res, err := env.Invoke(benchCtx(), "stream-1", activity)
				if err != nil {
					return nil, err
				}
				if err := mon.Report(monitor.Observation{
					Service: "stream-1", Vector: res.Measured, Success: res.Success,
				}); err != nil {
					return nil, err
				}
				est, _ := mon.Estimate("stream-1")
				t.AddRow(dist, res.Measured[0], env.SignalStrength("host-dev"),
					res.Success, est[0])
			}
			// Sanity: the executor over this environment reports failures
			// beyond range (feeding the adaptation loop).
			env.SetUserPosition(simenv.Position{X: 99, Y: 50})
			tk := &task.Task{Name: "m", Concept: semantics.EntertainmentService,
				Root: task.NewActivity(activity)}
			e := &exec.Executor{
				Invoker: env,
				Binder: exec.BinderFunc(func(a *task.Activity) (registry.Candidate, error) {
					d, _ := reg.Get("stream-1")
					v, err := d.VectorFor(ps, onto)
					return registry.Candidate{Service: &d, Vector: v}, err
				}),
				Options: exec.Options{Policy: resilience.Policy{MaxAttempts: 1}},
			}
			if _, err := e.Run(benchCtx(), tk); err == nil {
				return nil, fmt.Errorf("bench: out-of-range execution should fail")
			}
			t.AddNote("at distance 49 the executor correctly fails the invocation (signal lost)")
			return t, nil
		},
	}
}
