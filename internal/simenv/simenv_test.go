package simenv

import (
	"context"
	"math"
	"testing"
	"time"

	"qasom/internal/exec"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/semantics"
	"qasom/internal/task"
)

func stdPS() *qos.PropertySet { return qos.StandardSet() }

func newEnv(t *testing.T) *Environment {
	t.Helper()
	reg := registry.New(semantics.PervasiveWithScenarios())
	return New(stdPS(), reg, Options{Seed: 7})
}

func desc(id string, rt, price, avail, rel, tput float64) registry.Description {
	return registry.Description{
		ID:      registry.ServiceID(id),
		Concept: semantics.BookSale,
		Offers: []registry.QoSOffer{
			{Property: semantics.ResponseTime, Value: rt},
			{Property: semantics.Price, Value: price},
			{Property: semantics.Availability, Value: avail},
			{Property: semantics.Reliability, Value: rel},
			{Property: semantics.Throughput, Value: tput},
		},
	}
}

func act(id string) *task.Activity {
	return &task.Activity{ID: id, Concept: semantics.BookSale}
}

func TestDeployPublishesAndInitialisesActual(t *testing.T) {
	env := newEnv(t)
	if err := env.Deploy(Service{Desc: desc("s1", 100, 5, 0.95, 0.9, 40)}); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if env.Registry().Len() != 1 {
		t.Error("deploy should publish to the registry")
	}
	res, err := env.Invoke(context.Background(), "s1", act("a"))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if !res.Success {
		t.Error("invocation should succeed")
	}
	// Actual initialised from advertised offers (no noise configured).
	if res.Measured[0] != 100 {
		t.Errorf("measured rt = %g, want 100", res.Measured[0])
	}
	if env.Invocations() != 1 {
		t.Errorf("invocation counter = %d", env.Invocations())
	}
}

func TestDeployValidation(t *testing.T) {
	env := newEnv(t)
	if err := env.Deploy(Service{}); err == nil {
		t.Error("empty service should be rejected")
	}
	bad := Service{Desc: desc("s1", 100, 5, 0.95, 0.9, 40), Actual: qos.Vector{1}}
	if err := env.Deploy(bad); err == nil {
		t.Error("wrong actual arity should be rejected")
	}
	// Service without resolvable offers is rejected.
	incomplete := Service{Desc: registry.Description{ID: "x", Concept: semantics.BookSale}}
	if err := env.Deploy(incomplete); err == nil {
		t.Error("unresolvable offers should be rejected")
	}
}

func TestInvokeUnknownService(t *testing.T) {
	env := newEnv(t)
	if _, err := env.Invoke(context.Background(), "ghost", act("a")); err == nil {
		t.Error("unknown service should error")
	}
}

func TestLeaveWithdraws(t *testing.T) {
	env := newEnv(t)
	if err := env.Deploy(Service{Desc: desc("s1", 100, 5, 0.95, 0.9, 40)}); err != nil {
		t.Fatal(err)
	}
	if !env.Leave("s1") {
		t.Error("Leave should report presence")
	}
	if env.Leave("s1") {
		t.Error("second Leave should report absence")
	}
	if env.Registry().Len() != 0 {
		t.Error("Leave should withdraw from the registry")
	}
	if _, err := env.Invoke(context.Background(), "s1", act("a")); err == nil {
		t.Error("left service should be unreachable")
	}
}

func TestSetDownFailsInvocations(t *testing.T) {
	env := newEnv(t)
	if err := env.Deploy(Service{Desc: desc("s1", 100, 5, 0.95, 0.9, 40)}); err != nil {
		t.Fatal(err)
	}
	env.SetDown("s1", true)
	res, err := env.Invoke(context.Background(), "s1", act("a"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Success {
		t.Error("down service should fail invocations")
	}
	// Still advertised in the registry (the interesting mismatch).
	if env.Registry().Len() != 1 {
		t.Error("down service should remain advertised")
	}
	env.SetDown("s1", false)
	res, err = env.Invoke(context.Background(), "s1", act("a"))
	if err != nil || !res.Success {
		t.Error("revived service should succeed")
	}
}

func TestDegradeShiftsActualNotAdvertised(t *testing.T) {
	env := newEnv(t)
	if err := env.Deploy(Service{Desc: desc("s1", 100, 5, 0.95, 0.9, 40)}); err != nil {
		t.Fatal(err)
	}
	if err := env.Degrade("s1", qos.Vector{200, 0, -0.5, 0, 0}); err != nil {
		t.Fatalf("Degrade: %v", err)
	}
	res, err := env.Invoke(context.Background(), "s1", act("a"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Measured[0] != 300 {
		t.Errorf("degraded rt = %g, want 300", res.Measured[0])
	}
	if math.Abs(res.Measured[2]-0.45) > 1e-12 {
		t.Errorf("degraded availability = %g, want 0.45", res.Measured[2])
	}
	// Advertised description unchanged.
	d, _ := env.Registry().Get("s1")
	v, _ := d.VectorFor(stdPS(), nil)
	if v[0] != 100 {
		t.Error("advertised QoS should not change on degradation")
	}
	if err := env.Degrade("ghost", qos.Vector{1, 0, 0, 0, 0}); err == nil {
		t.Error("degrading unknown service should error")
	}
	if err := env.Degrade("s1", qos.Vector{1}); err == nil {
		t.Error("wrong delta arity should error")
	}
}

func TestDegradeClampsProbabilities(t *testing.T) {
	env := newEnv(t)
	if err := env.Deploy(Service{Desc: desc("s1", 100, 5, 0.95, 0.9, 40)}); err != nil {
		t.Fatal(err)
	}
	if err := env.Degrade("s1", qos.Vector{0, 0, -5, 5, 0}); err != nil {
		t.Fatal(err)
	}
	res, err := env.Invoke(context.Background(), "s1", act("a"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Measured[2] != 0 || res.Measured[3] != 1 {
		t.Errorf("probabilities not clamped: %v", res.Measured)
	}
}

func TestDriftDegradesOverInvocations(t *testing.T) {
	env := newEnv(t)
	s := Service{
		Desc:  desc("s1", 100, 5, 0.95, 0.9, 40),
		Drift: qos.Vector{10, 0, 0, 0, 0}, // +10ms per call
	}
	if err := env.Deploy(s); err != nil {
		t.Fatal(err)
	}
	first, err := env.Invoke(context.Background(), "s1", act("a"))
	if err != nil {
		t.Fatal(err)
	}
	var last exec.InvokeResult
	for i := 0; i < 5; i++ {
		last, err = env.Invoke(context.Background(), "s1", act("a"))
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.Measured[0] <= first.Measured[0] {
		t.Errorf("drift should degrade rt: first %g, later %g", first.Measured[0], last.Measured[0])
	}
}

func TestNoiseStaysBounded(t *testing.T) {
	env := newEnv(t)
	s := Service{Desc: desc("s1", 100, 5, 0.95, 0.9, 40), Noise: 0.1}
	if err := env.Deploy(s); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		res, err := env.Invoke(context.Background(), "s1", act("a"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Measured[0] < 90 || res.Measured[0] > 110 {
			t.Fatalf("noise exceeded ±10%%: %g", res.Measured[0])
		}
		if res.Measured[2] > 1 {
			t.Fatalf("probability exceeded 1: %g", res.Measured[2])
		}
	}
}

func TestFailProb(t *testing.T) {
	env := newEnv(t)
	s := Service{Desc: desc("s1", 100, 5, 0.95, 0.9, 40), FailProb: 1}
	if err := env.Deploy(s); err != nil {
		t.Fatal(err)
	}
	res, err := env.Invoke(context.Background(), "s1", act("a"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Success {
		t.Error("failProb 1 should always fail")
	}
}

func TestTimeScaleSleepsAndCancels(t *testing.T) {
	reg := registry.New(semantics.PervasiveWithScenarios())
	env := New(stdPS(), reg, Options{Seed: 1, TimeScale: 100 * time.Microsecond})
	if err := env.Deploy(Service{Desc: desc("s1", 100, 5, 0.95, 0.9, 40)}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := env.Invoke(context.Background(), "s1", act("a")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("100ms QoS at 100µs/ms should sleep ≈10ms, took %v", elapsed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := env.Invoke(ctx, "s1", act("a")); err == nil {
		t.Error("cancelled invocation should error")
	}
}

func TestDeviceLinkLatency(t *testing.T) {
	reg := registry.New(semantics.PervasiveWithScenarios())
	env := New(stdPS(), reg, Options{Seed: 1, TimeScale: time.Nanosecond})
	env.AddDevice(Device{ID: "phone", LinkLatency: 20 * time.Millisecond})
	d := desc("s1", 100, 5, 0.95, 0.9, 40)
	d.Provider = "phone"
	if err := env.Deploy(Service{Desc: d}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := env.Invoke(context.Background(), "s1", act("a")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("device link latency not applied: %v", elapsed)
	}
}

func TestEnvironmentWithExecutor(t *testing.T) {
	env := newEnv(t)
	for _, id := range []string{"sa", "sb"} {
		if err := env.Deploy(Service{Desc: desc(id, 50, 5, 0.95, 0.9, 40)}); err != nil {
			t.Fatal(err)
		}
	}
	tk := &task.Task{Name: "t", Concept: semantics.ShoppingService, Root: task.Sequence(
		task.NewActivity(act("a")),
		task.NewActivity(act("b")),
	)}
	bindings := map[string]registry.ServiceID{"a": "sa", "b": "sb"}
	e := &exec.Executor{
		Invoker: env,
		Binder: exec.BinderFunc(func(a *task.Activity) (registry.Candidate, error) {
			d, _ := env.Registry().Get(bindings[a.ID])
			v, err := d.VectorFor(stdPS(), nil)
			if err != nil {
				return registry.Candidate{}, err
			}
			return registry.Candidate{Service: &d, Vector: v}, nil
		}),
	}
	trace, err := e.Run(context.Background(), tk)
	if err != nil {
		t.Fatalf("executor over simenv: %v", err)
	}
	if len(trace.Records) != 2 || trace.Failures() != 0 {
		t.Errorf("trace = %+v", trace.Records)
	}
}
