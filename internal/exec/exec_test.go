package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qasom/internal/monitor"
	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/resilience"
	"qasom/internal/semantics"
	"qasom/internal/task"
)

func testProps() *qos.PropertySet {
	return qos.MustNewPropertySet(
		&qos.Property{Name: "rt", Concept: semantics.ResponseTime, Direction: qos.Minimized, Kind: qos.KindTime, Unit: qos.Milliseconds},
	)
}

// stubInvoker scripts per-service behaviour.
type stubInvoker struct {
	mu       sync.Mutex
	fail     map[registry.ServiceID]int // remaining failures
	calls    []registry.ServiceID
	perceive qos.Vector
}

func newStub() *stubInvoker {
	return &stubInvoker{fail: map[registry.ServiceID]int{}, perceive: qos.Vector{50}}
}

func (s *stubInvoker) Invoke(_ context.Context, svc registry.ServiceID, _ *task.Activity) (InvokeResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls = append(s.calls, svc)
	if s.fail[svc] > 0 {
		s.fail[svc]--
		return InvokeResult{Measured: s.perceive.Clone(), Latency: time.Millisecond, Success: false}, nil
	}
	return InvokeResult{Measured: s.perceive.Clone(), Latency: time.Millisecond, Success: true}, nil
}

func (s *stubInvoker) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.calls)
}

func fixedBinder(id string) Binder {
	return BinderFunc(func(act *task.Activity) (registry.Candidate, error) {
		return registry.Candidate{
			Service: &registry.Description{ID: registry.ServiceID(id + "-" + act.ID), Concept: act.Concept},
			Vector:  qos.Vector{50},
		}, nil
	})
}

func simpleTask() *task.Task {
	return &task.Task{Name: "t", Concept: "C", Root: task.Sequence(
		task.NewActivity(&task.Activity{ID: "a", Concept: "CA"}),
		task.Parallel(
			task.NewActivity(&task.Activity{ID: "b", Concept: "CB"}),
			task.NewActivity(&task.Activity{ID: "c", Concept: "CC"}),
		),
		task.NewActivity(&task.Activity{ID: "d", Concept: "CD"}),
	)}
}

func TestRunHappyPath(t *testing.T) {
	stub := newStub()
	var completedMu sync.Mutex
	var completed []string
	e := &Executor{
		Invoker: stub,
		Binder:  fixedBinder("svc"),
		OnComplete: func(id string) {
			completedMu.Lock()
			completed = append(completed, id)
			completedMu.Unlock()
		},
	}
	trace, err := e.Run(context.Background(), simpleTask())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(trace.Records) != 4 {
		t.Errorf("records = %d, want 4", len(trace.Records))
	}
	if trace.Failures() != 0 || trace.Substitutions() != 0 {
		t.Errorf("unexpected failures/substitutions: %d/%d", trace.Failures(), trace.Substitutions())
	}
	if len(completed) != 4 {
		t.Errorf("completed callbacks = %d, want 4", len(completed))
	}
	if trace.Duration <= 0 {
		t.Error("duration not recorded")
	}
}

func TestRunValidation(t *testing.T) {
	e := &Executor{}
	if _, err := e.Run(context.Background(), simpleTask()); err == nil {
		t.Error("missing invoker/binder should error")
	}
	e = &Executor{Invoker: newStub(), Binder: fixedBinder("s")}
	if _, err := e.Run(context.Background(), &task.Task{Name: "bad"}); err == nil {
		t.Error("invalid task should error")
	}
}

func TestRunFailureWithoutHandlerAborts(t *testing.T) {
	stub := newStub()
	stub.fail["svc-a"] = 99
	e := &Executor{Invoker: stub, Binder: fixedBinder("svc")}
	_, err := e.Run(context.Background(), simpleTask())
	if err == nil {
		t.Error("unhandled failure should abort the run")
	}
}

// TestRecordCarriesFailureCause pins the failure-cause plumbing: the
// trace record of an unsuccessful attempt carries Err, and the final
// errors name the last cause instead of a bare attempt count.
func TestRecordCarriesFailureCause(t *testing.T) {
	stub := newStub()
	stub.fail["svc-a"] = 99 // answers, but flags functional failure
	e := &Executor{Invoker: stub, Binder: fixedBinder("svc")}
	trace, err := e.Run(context.Background(), simpleTask())
	if err == nil {
		t.Fatal("unhandled failure should abort the run")
	}
	if !strings.Contains(err.Error(), "service reported failure") {
		t.Errorf("final error does not carry the cause: %v", err)
	}
	if len(trace.Records) != 1 {
		t.Fatalf("records = %d, want 1", len(trace.Records))
	}
	if got := trace.Records[0].Err; got != "service reported failure" {
		t.Errorf("Record.Err = %q", got)
	}

	// Invoker error: the cause is the invoker's error verbatim, and
	// attempt exhaustion names it too.
	boom := &Executor{
		Invoker: invokerFunc(func(context.Context, registry.ServiceID, *task.Activity) (InvokeResult, error) {
			return InvokeResult{}, fmt.Errorf("link down")
		}),
		Binder: fixedBinder("svc"),
		OnFailure: func(_ *task.Activity, failed registry.Candidate, _ int, _ resilience.Class) (registry.Candidate, error) {
			return failed, nil
		},
		Options: Options{Policy: resilience.Policy{MaxAttempts: 2}},
	}
	trace, err = boom.Run(context.Background(), simpleTask())
	if err == nil {
		t.Fatal("exhaustion should abort")
	}
	if !strings.Contains(err.Error(), "last cause: link down") {
		t.Errorf("exhaustion error does not carry the last cause: %v", err)
	}
	for _, rec := range trace.Records {
		if rec.Err != "link down" {
			t.Errorf("Record.Err = %q, want %q", rec.Err, "link down")
		}
	}
}

// invokerFunc adapts a function to the Invoker interface.
type invokerFunc func(ctx context.Context, svc registry.ServiceID, act *task.Activity) (InvokeResult, error)

func (f invokerFunc) Invoke(ctx context.Context, svc registry.ServiceID, act *task.Activity) (InvokeResult, error) {
	return f(ctx, svc, act)
}

func TestRunSubstitutionOnFailure(t *testing.T) {
	stub := newStub()
	stub.fail["primary-a"] = 99 // primary always fails
	var bindCalls atomic.Int64
	e := &Executor{
		Invoker: stub,
		Binder: BinderFunc(func(act *task.Activity) (registry.Candidate, error) {
			bindCalls.Add(1)
			return registry.Candidate{
				Service: &registry.Description{ID: registry.ServiceID("primary-" + act.ID), Concept: act.Concept},
				Vector:  qos.Vector{50},
			}, nil
		}),
		OnFailure: func(act *task.Activity, failed registry.Candidate, attempt int, _ resilience.Class) (registry.Candidate, error) {
			return registry.Candidate{
				Service: &registry.Description{ID: registry.ServiceID("backup-" + act.ID), Concept: act.Concept},
				Vector:  qos.Vector{60},
			}, nil
		},
	}
	trace, err := e.Run(context.Background(), simpleTask())
	if err != nil {
		t.Fatalf("Run with substitution: %v", err)
	}
	if trace.Substitutions() == 0 {
		t.Error("substitution not recorded")
	}
	if trace.Failures() != 1 {
		t.Errorf("failures = %d, want 1 (primary-a once)", trace.Failures())
	}
}

func TestRunExhaustsAttempts(t *testing.T) {
	stub := newStub()
	stub.fail["svc-a"] = 99
	e := &Executor{
		Invoker: stub,
		Binder:  fixedBinder("svc"),
		OnFailure: func(act *task.Activity, failed registry.Candidate, attempt int, _ resilience.Class) (registry.Candidate, error) {
			return failed, nil // keep retrying the same dead service
		},
		Options: Options{Policy: resilience.Policy{MaxAttempts: 2}},
	}
	_, err := e.Run(context.Background(), simpleTask())
	if err == nil {
		t.Error("attempt exhaustion should abort")
	}
	if stub.callCount() != 2 {
		t.Errorf("invocations = %d, want 2", stub.callCount())
	}
}

func TestRunFailureHandlerError(t *testing.T) {
	stub := newStub()
	stub.fail["svc-a"] = 1
	e := &Executor{
		Invoker: stub,
		Binder:  fixedBinder("svc"),
		OnFailure: func(act *task.Activity, failed registry.Candidate, attempt int, _ resilience.Class) (registry.Candidate, error) {
			return registry.Candidate{}, fmt.Errorf("no substitute")
		},
	}
	if _, err := e.Run(context.Background(), simpleTask()); err == nil {
		t.Error("handler error should abort")
	}
}

func TestRunChoiceTakesOneBranch(t *testing.T) {
	tk := &task.Task{Name: "t", Concept: "C", Root: task.Choice([]float64{0.5, 0.5},
		task.NewActivity(&task.Activity{ID: "x", Concept: "CX"}),
		task.NewActivity(&task.Activity{ID: "y", Concept: "CY"}),
	)}
	stub := newStub()
	e := &Executor{Invoker: stub, Binder: fixedBinder("svc")}
	trace, err := e.Run(context.Background(), tk)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Records) != 1 {
		t.Errorf("choice should execute exactly one branch, got %d records", len(trace.Records))
	}
}

func TestRunChoiceProbabilities(t *testing.T) {
	// With probs {1, 0}, branch x must always run.
	tk := &task.Task{Name: "t", Concept: "C", Root: task.Choice([]float64{1, 0},
		task.NewActivity(&task.Activity{ID: "x", Concept: "CX"}),
		task.NewActivity(&task.Activity{ID: "y", Concept: "CY"}),
	)}
	for seed := int64(1); seed <= 5; seed++ {
		stub := newStub()
		e := &Executor{Invoker: stub, Binder: fixedBinder("svc"), Options: Options{Seed: seed}}
		trace, err := e.Run(context.Background(), tk)
		if err != nil {
			t.Fatal(err)
		}
		if trace.Records[0].Activity != "x" {
			t.Fatalf("seed %d: degenerate distribution picked %s", seed, trace.Records[0].Activity)
		}
	}
}

func TestRunLoopIterations(t *testing.T) {
	tk := &task.Task{Name: "t", Concept: "C", Root: task.LoopNode(
		qos.Loop{Min: 3, Max: 3},
		task.NewActivity(&task.Activity{ID: "body", Concept: "CB"}),
	)}
	stub := newStub()
	e := &Executor{Invoker: stub, Binder: fixedBinder("svc")}
	trace, err := e.Run(context.Background(), tk)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Records) != 3 {
		t.Errorf("loop[3..3] should run 3 times, got %d", len(trace.Records))
	}
	// Variable bounds stay within range.
	tk.Root.Loop = qos.Loop{Min: 1, Max: 4}
	for seed := int64(1); seed <= 8; seed++ {
		stub := newStub()
		e := &Executor{Invoker: stub, Binder: fixedBinder("svc"), Options: Options{Seed: seed}}
		trace, err := e.Run(context.Background(), tk)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(trace.Records); n < 1 || n > 4 {
			t.Fatalf("seed %d: loop ran %d times outside [1,4]", seed, n)
		}
	}
}

func TestRunReportsToMonitor(t *testing.T) {
	ps := testProps()
	m := monitor.New(ps, monitor.Options{})
	stub := newStub()
	e := &Executor{Invoker: stub, Binder: fixedBinder("svc"), Monitor: m}
	if _, err := e.Run(context.Background(), simpleTask()); err != nil {
		t.Fatal(err)
	}
	if m.Len("svc-a") != 1 {
		t.Errorf("monitor should hold the observation for svc-a, has %d", m.Len("svc-a"))
	}
	est, ok := m.Estimate("svc-a")
	if !ok || est[0] != 50 {
		t.Errorf("estimate = %v, %v", est, ok)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := &Executor{Invoker: newStub(), Binder: fixedBinder("svc")}
	if _, err := e.Run(ctx, simpleTask()); err == nil {
		t.Error("cancelled context should abort the run")
	}
}

func TestRunParallelIsConcurrent(t *testing.T) {
	// Two parallel 50ms invocations should finish well under 100ms.
	slow := &slowInvoker{delay: 50 * time.Millisecond}
	tk := &task.Task{Name: "t", Concept: "C", Root: task.Parallel(
		task.NewActivity(&task.Activity{ID: "b", Concept: "CB"}),
		task.NewActivity(&task.Activity{ID: "c", Concept: "CC"}),
	)}
	e := &Executor{Invoker: slow, Binder: fixedBinder("svc")}
	start := time.Now()
	if _, err := e.Run(context.Background(), tk); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 90*time.Millisecond {
		t.Errorf("parallel branches ran serially: %v", elapsed)
	}
}

type slowInvoker struct{ delay time.Duration }

func (s *slowInvoker) Invoke(ctx context.Context, _ registry.ServiceID, _ *task.Activity) (InvokeResult, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return InvokeResult{}, ctx.Err()
	}
	return InvokeResult{Measured: qos.Vector{1}, Latency: s.delay, Success: true}, nil
}

func TestBinderError(t *testing.T) {
	e := &Executor{
		Invoker: newStub(),
		Binder: BinderFunc(func(act *task.Activity) (registry.Candidate, error) {
			return registry.Candidate{}, fmt.Errorf("nothing bound")
		}),
	}
	if _, err := e.Run(context.Background(), simpleTask()); err == nil {
		t.Error("binder error should abort")
	}
}

// TestZeroCandidateRejected: a binder or failure handler that returns
// the zero candidate without an error has bound no service; the run
// fails instead of reading through the nil description.
func TestZeroCandidateRejected(t *testing.T) {
	zero := func(*task.Activity) (registry.Candidate, error) { return registry.Candidate{}, nil }
	e := &Executor{Invoker: newStub(), Binder: BinderFunc(zero)}
	if _, err := e.Run(context.Background(), simpleTask()); err == nil || !strings.Contains(err.Error(), "no service") {
		t.Errorf("zero binding: err = %v, want a no-service error", err)
	}
	stub := newStub()
	stub.fail["svc-a"] = 1
	e = &Executor{
		Invoker: stub,
		Binder:  fixedBinder("svc"),
		OnFailure: func(act *task.Activity, _ registry.Candidate, _ int, _ resilience.Class) (registry.Candidate, error) {
			return zero(act)
		},
	}
	if _, err := e.Run(context.Background(), simpleTask()); err == nil || !strings.Contains(err.Error(), "no service") {
		t.Errorf("zero substitute: err = %v, want a no-service error", err)
	}
}

func TestRunRetryableFailureBacksOffSameBinding(t *testing.T) {
	// A marked-retryable invoker error (a transient link drop) retries
	// the SAME binding after a backoff; the terminal-failure handler is
	// never consulted and the retry counter moves.
	var calls atomic.Int64
	var handlerCalls atomic.Int64
	hub := obs.NewHub()
	e := &Executor{
		Invoker: invokerFunc(func(context.Context, registry.ServiceID, *task.Activity) (InvokeResult, error) {
			if calls.Add(1) < 3 {
				return InvokeResult{}, resilience.AsRetryable(fmt.Errorf("link dropped"))
			}
			return InvokeResult{Success: true, Latency: time.Millisecond}, nil
		}),
		Binder: fixedBinder("svc"),
		OnFailure: func(_ *task.Activity, failed registry.Candidate, _ int, _ resilience.Class) (registry.Candidate, error) {
			handlerCalls.Add(1)
			return failed, nil
		},
		Options: Options{
			Policy: resilience.Policy{MaxAttempts: 3, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond},
		},
	}
	trace, err := e.Run(obs.WithHub(context.Background(), hub), simpleTask())
	if err != nil {
		t.Fatalf("Run with transient failures: %v", err)
	}
	// Activity "a" runs first (sequence): two retryable failures, then
	// success; the remaining three activities succeed first try.
	if got := calls.Load(); got != 6 {
		t.Errorf("invocations = %d, want 6 (two retryable failures then 4 successes)", got)
	}
	if got := handlerCalls.Load(); got != 0 {
		t.Errorf("terminal-failure handler consulted %d times for retryable failures", got)
	}
	if trace.Substitutions() != 0 {
		t.Errorf("retryable path must not count substitutions: %d", trace.Substitutions())
	}
	if got := hub.Metrics.Counter("qasom_exec_retries_total", "").Value(); got != 2 {
		t.Errorf("qasom_exec_retries_total = %d, want 2", got)
	}
}

func TestRunTerminalFailureSkipsBackoff(t *testing.T) {
	// An unmarked invoker error classifies terminal: the handler runs on
	// the first failure, no backoff retry on the dead binding.
	var handlerClass resilience.Class = -1
	stub := newStub()
	stub.fail["primary-a"] = 99
	e := &Executor{
		Invoker: stub,
		Binder:  fixedBinder("primary"),
		OnFailure: func(act *task.Activity, failed registry.Candidate, _ int, class resilience.Class) (registry.Candidate, error) {
			handlerClass = class
			return registry.Candidate{
				Service: &registry.Description{ID: registry.ServiceID("backup-" + act.ID), Concept: act.Concept},
				Vector:  qos.Vector{60},
			}, nil
		},
	}
	if _, err := e.Run(context.Background(), simpleTask()); err != nil {
		t.Fatalf("Run with substitution: %v", err)
	}
	if handlerClass != resilience.Terminal {
		t.Errorf("handler saw class %v, want Terminal", handlerClass)
	}
}
