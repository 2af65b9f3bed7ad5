package monitor

import (
	"sync"
	"testing"
	"time"

	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/semantics"
	"qasom/internal/task"
)

func testProps() *qos.PropertySet {
	return qos.MustNewPropertySet(
		&qos.Property{Name: "rt", Concept: semantics.ResponseTime, Direction: qos.Minimized, Kind: qos.KindTime, Unit: qos.Milliseconds},
		&qos.Property{Name: "avail", Concept: semantics.Availability, Direction: qos.Maximized, Kind: qos.KindProbability, Unit: qos.Ratio},
	)
}

func mkObs(id string, rt, avail float64, ok bool) Observation {
	return Observation{Service: registry.ServiceID(id), Vector: qos.Vector{rt, avail}, Time: time.Now(), Success: ok}
}

func TestReportValidation(t *testing.T) {
	m := New(testProps(), Options{})
	if err := m.Report(Observation{Service: "s", Vector: qos.Vector{1}}); err == nil {
		t.Error("wrong arity should be rejected")
	}
	if err := m.Report(mkObs("s", 100, 0.9, true)); err != nil {
		t.Fatalf("Report: %v", err)
	}
	if m.Len("s") != 1 {
		t.Errorf("Len = %d, want 1", m.Len("s"))
	}
	if m.Len("unknown") != 0 {
		t.Error("unknown service should have no observations")
	}
}

func TestEstimateEWMA(t *testing.T) {
	m := New(testProps(), Options{Alpha: 0.5})
	if _, ok := m.Estimate("s"); ok {
		t.Error("unobserved service should have no estimate")
	}
	if err := m.Report(mkObs("s", 100, 0.9, true)); err != nil {
		t.Fatal(err)
	}
	if err := m.Report(mkObs("s", 200, 0.9, true)); err != nil {
		t.Fatal(err)
	}
	est, ok := m.Estimate("s")
	if !ok {
		t.Fatal("estimate missing")
	}
	// EWMA with α=0.5: 0.5·200 + 0.5·100 = 150.
	if est[0] != 150 {
		t.Errorf("EWMA rt = %g, want 150", est[0])
	}
	// Returned vector is a copy.
	est[0] = -1
	est2, _ := m.Estimate("s")
	if est2[0] != 150 {
		t.Error("Estimate should return a copy")
	}
}

func TestWindowRotation(t *testing.T) {
	m := New(testProps(), Options{WindowSize: 4})
	for i := 0; i < 10; i++ {
		if err := m.Report(mkObs("s", float64(i), 0.9, true)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len("s") != 4 {
		t.Errorf("window should cap at 4, got %d", m.Len("s"))
	}
}

func TestSuccessRate(t *testing.T) {
	m := New(testProps(), Options{})
	if m.SuccessRate("s") != 1 {
		t.Error("unobserved service should default to success rate 1")
	}
	for i := 0; i < 3; i++ {
		if err := m.Report(mkObs("s", 100, 0.9, true)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Report(mkObs("s", 100, 0.9, false)); err != nil {
		t.Fatal(err)
	}
	if got := m.SuccessRate("s"); got != 0.75 {
		t.Errorf("SuccessRate = %g, want 0.75", got)
	}
}

func TestPredictLinearTrend(t *testing.T) {
	m := New(testProps(), Options{WindowSize: 10})
	if _, ok := m.Predict("s", 1); ok {
		t.Error("prediction needs ≥3 observations")
	}
	// Response time degrading linearly: 100, 110, 120, 130.
	for i := 0; i < 4; i++ {
		if err := m.Report(mkObs("s", 100+10*float64(i), 0.9, true)); err != nil {
			t.Fatal(err)
		}
	}
	pred, ok := m.Predict("s", 2)
	if !ok {
		t.Fatal("prediction missing")
	}
	// Trend 10/step → two steps ahead of 130 is 150.
	if pred[0] < 149 || pred[0] > 151 {
		t.Errorf("predicted rt = %g, want ≈150", pred[0])
	}
}

func TestPredictClampsProbabilities(t *testing.T) {
	m := New(testProps(), Options{WindowSize: 10})
	// Availability dropping fast: prediction must stay in [0,1].
	for i := 0; i < 5; i++ {
		if err := m.Report(mkObs("s", 100, 0.9-0.2*float64(i), true)); err != nil {
			t.Fatal(err)
		}
	}
	pred, ok := m.Predict("s", 10)
	if !ok {
		t.Fatal("prediction missing")
	}
	if pred[1] < 0 || pred[1] > 1 {
		t.Errorf("predicted availability %g outside [0,1]", pred[1])
	}
	if pred[0] < 0 {
		t.Errorf("predicted rt %g negative", pred[0])
	}
}

func TestPredictStablePlateau(t *testing.T) {
	m := New(testProps(), Options{WindowSize: 8})
	for i := 0; i < 6; i++ {
		if err := m.Report(mkObs("s", 100, 0.9, true)); err != nil {
			t.Fatal(err)
		}
	}
	pred, ok := m.Predict("s", 5)
	if !ok {
		t.Fatal("prediction missing")
	}
	if pred[0] < 99.9 || pred[0] > 100.1 {
		t.Errorf("flat series should predict ≈100, got %g", pred[0])
	}
}

func compositionFixture() (*task.Task, *qos.PropertySet, qos.Constraints, map[string]qos.Vector, map[string]registry.ServiceID) {
	tk := &task.Task{Name: "t", Concept: "C", Root: task.Sequence(
		task.NewActivity(&task.Activity{ID: "a", Concept: "CA"}),
		task.NewActivity(&task.Activity{ID: "b", Concept: "CB"}),
	)}
	ps := testProps()
	cs := qos.Constraints{{Property: "rt", Bound: 250}, {Property: "avail", Bound: 0.8}}
	advertised := map[string]qos.Vector{
		"a": {100, 0.95},
		"b": {100, 0.95},
	}
	binding := map[string]registry.ServiceID{"a": "svcA", "b": "svcB"}
	return tk, ps, cs, advertised, binding
}

func TestCompositionMonitorHealthy(t *testing.T) {
	tk, ps, cs, adv, binding := compositionFixture()
	cm := NewCompositionMonitor(tk, ps, cs, qos.Pessimistic, adv, binding)
	m := New(ps, Options{})
	a := cm.Assess(m, 3)
	// No observations: falls back to advertised values. 100+100=200 ≤ 250.
	if !a.Healthy() {
		t.Errorf("advertised-only assessment should be healthy: %+v", a)
	}
	if a.Current[0] != 200 {
		t.Errorf("current rt = %g, want 200", a.Current[0])
	}

	// A substituted binding brings its own advertised vector: 50+100.
	tk, ps, cs, adv, binding = compositionFixture()
	binding["a"] = "svcA2"
	adv["a"] = qos.Vector{50, 0.99}
	a = NewCompositionMonitor(tk, ps, cs, qos.Pessimistic, adv, binding).Assess(m, 1)
	if a.Current[0] != 150 {
		t.Errorf("substitute's advertised rt should apply: %g", a.Current[0])
	}
}

func TestCompositionMonitorCurrentViolation(t *testing.T) {
	tk, ps, cs, adv, binding := compositionFixture()
	cm := NewCompositionMonitor(tk, ps, cs, qos.Pessimistic, adv, binding)
	m := New(ps, Options{Alpha: 1}) // estimate = last observation
	if err := m.Report(mkObs("svcA", 300, 0.95, true)); err != nil {
		t.Fatal(err)
	}
	a := cm.Assess(m, 3)
	if len(a.Violated) != 1 || a.Violated[0] != "rt" {
		t.Errorf("Violated = %v, want [rt]", a.Violated)
	}
	if a.Healthy() {
		t.Error("assessment should be unhealthy")
	}
}

func TestCompositionMonitorProactiveViolation(t *testing.T) {
	tk, ps, cs, adv, binding := compositionFixture()
	cm := NewCompositionMonitor(tk, ps, cs, qos.Pessimistic, adv, binding)
	m := New(ps, Options{WindowSize: 10})
	// svcA degrading: 100, 120, 140 — currently 200-ish total (fine), but
	// the trend crosses the 250 bound within a few steps.
	for i := 0; i < 3; i++ {
		if err := m.Report(mkObs("svcA", 100+20*float64(i), 0.95, true)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Report(mkObs("svcB", 100, 0.95, true)); err != nil {
		t.Fatal(err)
	}
	a := cm.Assess(m, 5)
	if len(a.Violated) != 0 {
		t.Errorf("current should still hold: %v (agg %v)", a.Violated, a.Current)
	}
	if len(a.PredictedViolated) == 0 {
		t.Errorf("proactive monitoring should flag the rt trend: predicted %v", a.Predicted)
	}
}

func TestMonitorConcurrent(t *testing.T) {
	m := New(testProps(), Options{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = m.Report(mkObs("s", float64(i), 0.9, true))
				_, _ = m.Estimate("s")
				_, _ = m.Predict("s", 2)
				_ = m.SuccessRate("s")
			}
		}(w)
	}
	wg.Wait()
	if m.Len("s") == 0 {
		t.Error("observations lost")
	}
}

func TestPercentile(t *testing.T) {
	m := New(testProps(), Options{WindowSize: 20})
	if _, ok := m.Percentile("s", 0, 0.95); ok {
		t.Error("unobserved service should have no percentile")
	}
	for i := 1; i <= 10; i++ {
		if err := m.Report(mkObs("s", float64(i*10), 0.9, true)); err != nil {
			t.Fatal(err)
		}
	}
	// Values 10..100: median = 50, P90 = 90, P100 = 100, P0 = 10.
	if got, ok := m.Percentile("s", 0, 0.5); !ok || got != 50 {
		t.Errorf("P50 = %g, %v", got, ok)
	}
	if got, _ := m.Percentile("s", 0, 0.9); got != 90 {
		t.Errorf("P90 = %g", got)
	}
	if got, _ := m.Percentile("s", 0, 1.0); got != 100 {
		t.Errorf("P100 = %g", got)
	}
	if got, _ := m.Percentile("s", 0, 0); got != 10 {
		t.Errorf("P0 = %g", got)
	}
	// Out-of-range inputs clamp / reject.
	if got, _ := m.Percentile("s", 0, 7); got != 100 {
		t.Errorf("clamped q>1 = %g", got)
	}
	if _, ok := m.Percentile("s", 99, 0.5); ok {
		t.Error("bad property index should fail")
	}
}

func TestPercentileCatchesTail(t *testing.T) {
	m := New(testProps(), Options{WindowSize: 30})
	// Mostly fast with a heavy tail: the mean hides what P95 shows.
	for i := 0; i < 19; i++ {
		if err := m.Report(mkObs("s", 50, 0.9, true)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Report(mkObs("s", 2000, 0.9, true)); err != nil {
		t.Fatal(err)
	}
	p95, ok := m.Percentile("s", 0, 0.96)
	if !ok || p95 < 1000 {
		t.Errorf("tail percentile should expose the outlier: %g", p95)
	}
	est, _ := m.Estimate("s")
	if est[0] > p95 {
		t.Errorf("EWMA %g should sit below the tail %g", est[0], p95)
	}
}
