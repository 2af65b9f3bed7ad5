package adapt

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"qasom/internal/core"
	"qasom/internal/exec"
	"qasom/internal/monitor"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/resilience"
	"qasom/internal/semantics"
	"qasom/internal/task"
)

func stdPS() *qos.PropertySet { return qos.StandardSet() }

func offers(rt, price, avail, rel, tput float64) []registry.QoSOffer {
	return []registry.QoSOffer{
		{Property: semantics.ResponseTime, Value: rt},
		{Property: semantics.Price, Value: price},
		{Property: semantics.Availability, Value: avail},
		{Property: semantics.Reliability, Value: rel},
		{Property: semantics.Throughput, Value: tput},
	}
}

// publish registers n services for a concept, rt split around 50ms.
func publish(t *testing.T, reg *registry.Registry, concept semantics.ConceptID, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		d := registry.Description{
			ID:      registry.ServiceID(fmt.Sprintf("%s-%d", prefix, i)),
			Concept: concept,
			Offers:  offers(40+float64(5*i), 5, 0.95, 0.9, 40),
		}
		if err := reg.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
}

// shoppingBehaviours builds the task class used across the tests:
//
//	b1 = seq(browse, order, pay)
//	b2 = seq(par(seq(bundle, mpay), promo)) — a different granularity
func shoppingBehaviours() *task.Class {
	b1 := &task.Task{Name: "b1", Concept: semantics.ShoppingService, Root: task.Sequence(
		task.NewActivity(&task.Activity{ID: "browse", Concept: semantics.BrowseCatalog}),
		task.NewActivity(&task.Activity{ID: "order", Concept: semantics.OrderItem}),
		task.NewActivity(&task.Activity{ID: "pay", Concept: semantics.PaymentService}),
	)}
	b2 := &task.Task{Name: "b2", Concept: semantics.ShoppingService, Root: task.Parallel(
		task.Sequence(
			task.NewActivity(&task.Activity{ID: "bundle", Concept: semantics.BundleOrder}),
			task.NewActivity(&task.Activity{ID: "mpay", Concept: semantics.MobilePayment}),
		),
		task.NewActivity(&task.Activity{ID: "promo", Concept: semantics.NotifyService}),
	)}
	return &task.Class{Name: "shopping", Concept: semantics.ShoppingService, Behaviours: []*task.Task{b1, b2}}
}

// fixture wires registry, selector, runtime and manager for behaviour b1.
func fixture(t *testing.T) (*Manager, *Runtime, *registry.Registry) {
	t.Helper()
	onto := semantics.PervasiveWithScenarios()
	reg := registry.New(onto)
	publish(t, reg, semantics.BrowseCatalog, "browse", 4)
	publish(t, reg, semantics.OrderItem, "order", 4)
	publish(t, reg, semantics.CardPayment, "pay", 4)
	publish(t, reg, semantics.BundleOrder, "bundle", 4)
	publish(t, reg, semantics.MobilePayment, "mpay", 4)
	publish(t, reg, semantics.NotifyService, "promo", 4)

	class := shoppingBehaviours()
	repo := task.NewRepository(onto)
	if err := repo.Register(class); err != nil {
		t.Fatal(err)
	}

	req := &core.Request{
		Task:        class.Behaviours[0],
		Properties:  stdPS(),
		Constraints: qos.Constraints{{Property: "responseTime", Bound: 400}},
	}
	cands := make(map[string][]registry.Candidate)
	for _, a := range req.Task.Activities() {
		cands[a.ID] = reg.CandidatesForActivity(a, req.Properties)
		if len(cands[a.ID]) == 0 {
			t.Fatalf("no candidates for %s", a.ID)
		}
	}
	sel := core.NewSelector(core.Options{})
	res, err := sel.Select(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("fixture selection should be feasible")
	}
	rt := NewRuntime(req, res)
	m := &Manager{Registry: reg, Repo: repo, Selector: sel}
	return m, rt, reg
}

func TestRuntimeBindAndProgress(t *testing.T) {
	_, rt, _ := fixture(t)
	browse := rt.Req.Task.ActivityByID("browse")
	c, err := rt.Bind(browse)
	if err != nil || c.Service.ID == "" {
		t.Fatalf("Bind: %v %v", c, err)
	}
	if _, err := rt.Bind(&task.Activity{ID: "ghost"}); err == nil {
		t.Error("binding unknown activity should error")
	}
	if rt.Completed("browse") {
		t.Error("browse should not be completed yet")
	}
	rt.MarkCompleted("browse", qos.Vector{80, 5, 0.95, 0.9, 40})
	if !rt.Completed("browse") || rt.CompletedCount() != 1 {
		t.Error("completion not tracked")
	}
	consumed := rt.Consumed()
	if consumed[0] != 80 {
		t.Errorf("consumed rt = %g, want 80", consumed[0])
	}
}

func TestSubstituteHappyPath(t *testing.T) {
	m, rt, _ := fixture(t)
	orig := rt.Result().Assignment["order"]
	sub, err := m.Substitute(rt, "order", nil)
	if err != nil {
		t.Fatalf("Substitute: %v", err)
	}
	if sub.Service.ID == orig.Service.ID {
		t.Error("substitute should differ from the original")
	}
	if rt.Result().Assignment["order"].Service.ID != sub.Service.ID {
		t.Error("assignment not updated")
	}
	if rt.Substitutions() != 1 {
		t.Error("substitution not counted")
	}
	// The displaced service is kept as a later alternate.
	found := false
	for _, alt := range rt.Result().Alternates()["order"] {
		if alt.Service.ID == orig.Service.ID {
			found = true
		}
	}
	if !found {
		t.Error("displaced service should rejoin the alternates")
	}
}

// TestSubstituteUnboundActivity rotates an activity that has alternates
// but no binding. Its displaced candidate is the zero value, whose
// Service is nil: nothing may rejoin the rotation for it, and reading
// through it must not panic.
func TestSubstituteUnboundActivity(t *testing.T) {
	m, rt, _ := fixture(t)
	res := rt.Result()
	alts := res.Alternates()["order"]
	if len(alts) < 2 {
		t.Fatalf("fixture has %d alternates for order, want at least 2", len(alts))
	}
	delete(res.Assignment, "order")
	rt = NewRuntime(rt.Req, res)
	sub, err := m.Substitute(rt, "order", nil)
	if err != nil {
		t.Fatalf("Substitute: %v", err)
	}
	if sub.Service != alts[0].Service {
		t.Errorf("bound %v, want the first alternate %v", sub.Service.ID, alts[0].Service.ID)
	}
	after := rt.Result()
	if after.Assignment["order"].Service != alts[0].Service {
		t.Error("assignment not updated")
	}
	if got := len(after.Alternates()["order"]); got != len(alts)-1 {
		t.Errorf("rotation has %d members, want %d", got, len(alts)-1)
	}
	for i, c := range after.Alternates()["order"] {
		if c.Service == nil {
			t.Errorf("rotation position %d holds the zero candidate", i)
		}
	}
}

func TestSubstituteSkipsWithdrawnAndExcluded(t *testing.T) {
	m, rt, reg := fixture(t)
	alts := rt.Result().Alternates()["order"]
	if len(alts) < 2 {
		t.Fatalf("need ≥2 alternates, have %d", len(alts))
	}
	// Withdraw the first alternate; exclude the second.
	reg.Withdraw(alts[0].Service.ID)
	exclude := map[registry.ServiceID]bool{alts[1].Service.ID: true}
	sub, err := m.Substitute(rt, "order", exclude)
	if err != nil {
		t.Fatalf("Substitute: %v", err)
	}
	if sub.Service.ID == alts[0].Service.ID || sub.Service.ID == alts[1].Service.ID {
		t.Errorf("substitute %s should skip withdrawn and excluded", sub.Service.ID)
	}
}

func TestSubstituteSkipsUnhealthy(t *testing.T) {
	m, rt, _ := fixture(t)
	mon := monitor.New(stdPS(), monitor.Options{})
	m.Monitor = mon
	alts := rt.Result().Alternates()["order"]
	// First alternate observed failing constantly.
	for i := 0; i < 5; i++ {
		if err := mon.Report(monitor.Observation{
			Service: alts[0].Service.ID, Vector: stdPS().NewVector(), Success: false,
		}); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := m.Substitute(rt, "order", nil)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Service.ID == alts[0].Service.ID {
		t.Error("unhealthy alternate should be skipped")
	}
}

func TestSubstituteExhaustion(t *testing.T) {
	m, rt, _ := fixture(t)
	exclude := map[registry.ServiceID]bool{}
	for _, alt := range rt.Result().Alternates()["order"] {
		exclude[alt.Service.ID] = true
	}
	_, err := m.Substitute(rt, "order", exclude)
	if !errors.Is(err, ErrNoSubstitute) {
		t.Errorf("expected ErrNoSubstitute, got %v", err)
	}
}

// failingInvoker fails a fixed set of services, succeeds otherwise.
type failingInvoker struct {
	dead map[registry.ServiceID]bool
}

func (f *failingInvoker) Invoke(_ context.Context, svc registry.ServiceID, _ *task.Activity) (exec.InvokeResult, error) {
	ok := !f.dead[svc]
	return exec.InvokeResult{Measured: qos.Vector{50, 5, 0.95, 0.9, 40}, Success: ok}, nil
}

func TestFailureHandlerDrivesSubstitution(t *testing.T) {
	m, rt, _ := fixture(t)
	dead := map[registry.ServiceID]bool{rt.Result().Assignment["order"].Service.ID: true}
	e := &exec.Executor{
		Invoker:    &failingInvoker{dead: dead},
		Binder:     rt,
		OnFailure:  m.FailureHandler(rt),
		OnComplete: m.CompletionHook(rt),
	}
	trace, err := e.Run(context.Background(), rt.Req.Task)
	if err != nil {
		t.Fatalf("run with substitution: %v", err)
	}
	if trace.Substitutions() == 0 {
		t.Error("substitution should have occurred")
	}
	if rt.CompletedCount() != 3 {
		t.Errorf("completed = %d, want 3", rt.CompletedCount())
	}
}

// TestFailureHandlerExclusionByClass pins the handler's class rule: a
// terminal failure excludes the service for the rest of the run, a
// retryable one only from the substitution it triggers.
func TestFailureHandlerExclusionByClass(t *testing.T) {
	m, rt, reg := fixture(t)
	h := m.FailureHandler(rt)
	act := rt.Req.Task.ActivityByID("order")
	b0 := rt.Result().Assignment["order"]
	alts := rt.Result().Alternates()["order"]
	if len(alts) < 3 {
		t.Fatalf("fixture rotation has %d alternates, want ≥ 3", len(alts))
	}
	a0, a1, a2 := alts[0], alts[1], alts[2]
	// Only b0 and the first three alternates stay eligible; the withdrawn
	// rest keep their rotation slots but are never picked.
	for _, alt := range alts[3:] {
		reg.Withdraw(alt.Service.ID)
	}
	step := func(failed registry.Candidate, class resilience.Class, want registry.Candidate) {
		t.Helper()
		got, err := h(act, failed, 1, class)
		if err != nil {
			t.Fatalf("failure of %s: %v", failed.Service.ID, err)
		}
		if got.Service.ID != want.Service.ID {
			t.Fatalf("failure of %s (class %v) bound %s, want %s", failed.Service.ID, class, got.Service.ID, want.Service.ID)
		}
	}
	// The comments give the eligible part of the rotation after each
	// step. The failed binding is never handed back, even on a retryable
	// failure.
	step(b0, resilience.Retryable, a0) // rotation [a1 a2 b0]
	step(a0, resilience.Terminal, a1)  // rotation [a2 b0 a0]; a0 out for the run
	step(a1, resilience.Retryable, a2) // rotation [b0 a0 a1]
	// b0's retryable exclusion was not remembered.
	step(a2, resilience.Retryable, b0) // rotation [a0 a1 a2]
	// a0's terminal exclusion was.
	step(b0, resilience.Retryable, a1) // rotation [a0 a2 b0]
	// A retryable failure of an already excluded service leaves it
	// excluded.
	step(a0, resilience.Retryable, a2) // rotation [a0 b0 a1]
	step(a2, resilience.Retryable, b0) // rotation [a0 a1 a2]
	if _, err := h(act, b0, 1, resilience.Terminal); err != nil {
		t.Fatal(err)
	}
	// a0 and b0 are terminally excluded; a1 and a2 are left.
	if _, err := h(act, a1, 1, resilience.Terminal); err != nil {
		t.Fatal(err)
	}
	if _, err := h(act, a2, 1, resilience.Terminal); !errors.Is(err, ErrNoSubstitute) {
		t.Fatalf("every service terminally failed: got %v, want ErrNoSubstitute", err)
	}
}

func TestResidualConstraints(t *testing.T) {
	ps := stdPS()
	cs := qos.Constraints{
		{Property: "responseTime", Bound: 300},
		{Property: "price", Bound: 20},
		{Property: "availability", Bound: 0.8},
		{Property: "throughput", Bound: 30},
	}
	consumed := qos.Vector{120, 8, 0.9, 0, 45}
	res := ResidualConstraints(ps, cs, consumed)
	want := map[string]float64{
		"responseTime": 180,       // 300 − 120
		"price":        12,        // 20 − 8
		"availability": 0.8 / 0.9, // divided
		"throughput":   30,        // bottleneck unchanged
	}
	for _, c := range res {
		if w, ok := want[c.Property]; ok {
			if diff := c.Bound - w; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s residual = %g, want %g", c.Property, c.Bound, w)
			}
		}
	}
	// Over-consumption floors at zero.
	res = ResidualConstraints(ps, qos.Constraints{{Property: "responseTime", Bound: 100}}, qos.Vector{500, 0, 1, 1, 1})
	if res[0].Bound != 0 {
		t.Errorf("over-consumed bound = %g, want 0", res[0].Bound)
	}
	// Probability bound caps at 1.
	res = ResidualConstraints(ps, qos.Constraints{{Property: "availability", Bound: 0.9}}, qos.Vector{0, 0, 0.5, 1, 1})
	if res[0].Bound != 1 {
		t.Errorf("probability residual = %g, want capped 1", res[0].Bound)
	}
}

func TestAdaptBehaviourSwitchesToAlternative(t *testing.T) {
	m, rt, _ := fixture(t)
	// browse finished; order/pay remain but (say) no substitutes help.
	rt.MarkCompleted("browse", qos.Vector{80, 5, 0.95, 0.9, 40})

	plan, err := m.AdaptBehaviour(rt)
	if err != nil {
		t.Fatalf("AdaptBehaviour: %v", err)
	}
	if plan.Alternative.Name != "b2" {
		t.Fatalf("alternative = %s, want b2", plan.Alternative.Name)
	}
	// The matched part is bundle+mpay; promo is off every matched path
	// and must be pruned from the new task.
	ids := plan.NewTask.ActivityIDs()
	if len(ids) != 2 || ids[0] != "bundle" || ids[1] != "mpay" {
		t.Fatalf("new task activities = %v, want [bundle mpay]", ids)
	}
	if !plan.Selection.Feasible {
		t.Error("re-selection should be feasible under residual constraints")
	}
	// Residual responseTime bound = 400 − 80.
	var resRT float64
	for _, c := range plan.Residual {
		if c.Property == "responseTime" {
			resRT = c.Bound
		}
	}
	if resRT != 320 {
		t.Errorf("residual rt bound = %g, want 320", resRT)
	}
	// Runtime switched: behaviour replaced, promo marked completed.
	if rt.Behaviour().Name != "b2" {
		t.Errorf("runtime behaviour = %s, want b2", rt.Behaviour().Name)
	}
	if !rt.Completed("promo") {
		t.Error("unscheduled activity promo should be marked completed")
	}
	if rt.Completed("bundle") {
		t.Error("bundle should be pending")
	}
	// The new assignment binds the new activities.
	if _, err := rt.Bind(plan.NewTask.ActivityByID("bundle")); err != nil {
		t.Errorf("bind after switch: %v", err)
	}
}

func TestAdaptBehaviourFreshStart(t *testing.T) {
	// Nothing completed: the class behaviours are equivalent by
	// definition, so the alternative replaces the task wholesale without
	// homeomorphism matching (b2 even has fewer activities than the
	// remaining b1 — unembeddable, but irrelevant on a fresh start).
	m, rt, _ := fixture(t)
	plan, err := m.AdaptBehaviour(rt)
	if err != nil {
		t.Fatalf("fresh-start AdaptBehaviour: %v", err)
	}
	if plan.Alternative.Name != "b2" {
		t.Errorf("alternative = %s", plan.Alternative.Name)
	}
	if plan.NewTask.Size() != plan.Alternative.Size() {
		t.Errorf("fresh start should run the whole alternative: %d vs %d",
			plan.NewTask.Size(), plan.Alternative.Size())
	}
	if plan.MatchSteps != 0 {
		t.Errorf("fresh start should skip matching, steps = %d", plan.MatchSteps)
	}
	if rt.Behaviour().Name != "b2" {
		t.Errorf("runtime behaviour = %s", rt.Behaviour().Name)
	}
}

func TestAdaptBehaviourNothingRemaining(t *testing.T) {
	m, rt, _ := fixture(t)
	for _, id := range []string{"browse", "order", "pay"} {
		rt.MarkCompleted(id, nil)
	}
	if _, err := m.AdaptBehaviour(rt); err == nil {
		t.Error("completed task should not adapt")
	}
}

func TestAdaptBehaviourNoClass(t *testing.T) {
	m, rt, _ := fixture(t)
	m.Repo = task.NewRepository(nil) // empty repository
	rt.MarkCompleted("browse", nil)
	if _, err := m.AdaptBehaviour(rt); err == nil {
		t.Error("missing task class should error")
	}
}

func TestAdaptBehaviourNoServicesForAlternative(t *testing.T) {
	m, rt, reg := fixture(t)
	rt.MarkCompleted("browse", nil)
	// Remove all bundle services: the only alternative cannot be staffed.
	for _, d := range reg.All() {
		if d.Concept == semantics.BundleOrder {
			reg.Withdraw(d.ID)
		}
	}
	if _, err := m.AdaptBehaviour(rt); !errors.Is(err, ErrNoAlternative) {
		t.Errorf("expected ErrNoAlternative, got %v", err)
	}
}

func TestAdaptBehaviourRequireFeasible(t *testing.T) {
	m, rt, _ := fixture(t)
	m.Options.RequireFeasible = true
	rt.MarkCompleted("browse", qos.Vector{399.9, 5, 0.95, 0.9, 40}) // consumed almost everything
	_, err := m.AdaptBehaviour(rt)
	if err == nil {
		t.Error("infeasible residual with RequireFeasible should error")
	}
	// Without RequireFeasible a best-effort plan is returned.
	m.Options.RequireFeasible = false
	plan, err := m.AdaptBehaviour(rt)
	if err != nil {
		t.Fatalf("best-effort plan expected: %v", err)
	}
	if plan.Selection.Feasible {
		t.Error("plan should be the infeasible best-effort one")
	}
}

func TestAdaptBehaviourClassByConceptFallback(t *testing.T) {
	m, rt, _ := fixture(t)
	// Rename the running behaviour so ClassOf misses and the concept
	// lookup has to find the class.
	rt.behaviour = rt.behaviour.Clone()
	rt.behaviour.Name = "renamed"
	rt.MarkCompleted("browse", nil)
	plan, err := m.AdaptBehaviour(rt)
	if err != nil {
		t.Fatalf("concept fallback failed: %v", err)
	}
	if plan.Alternative == nil {
		t.Error("plan missing alternative")
	}
}

func TestAdaptBehaviourMergedGranularity(t *testing.T) {
	// The alternative behaviour is coarser than the remaining work: one
	// one-stop activity replaces order+pay. Matching needs AllowMerge.
	onto := semantics.PervasiveWithScenarios()
	reg := registry.New(onto)
	publish(t, reg, semantics.BrowseCatalog, "browse", 3)
	publish(t, reg, semantics.BookSale, "book", 3)
	publish(t, reg, semantics.DVDSale, "dvd", 3)
	publish(t, reg, semantics.CardPayment, "pay", 3)
	publish(t, reg, semantics.ShoppingService, "onestop", 3)
	publish(t, reg, semantics.MobilePayment, "mpay", 3)

	b1 := &task.Task{Name: "fine", Concept: semantics.ShoppingService, Root: task.Sequence(
		task.NewActivity(&task.Activity{ID: "browse", Concept: semantics.BrowseCatalog}),
		task.NewActivity(&task.Activity{ID: "book", Concept: semantics.BookSale}),
		task.NewActivity(&task.Activity{ID: "dvd", Concept: semantics.DVDSale}),
		task.NewActivity(&task.Activity{ID: "pay", Concept: semantics.PaymentService}),
	)}
	// coarse merges the two sale activities into one one-stop kiosk.
	coarse := &task.Task{Name: "coarse", Concept: semantics.ShoppingService, Root: task.Sequence(
		task.NewActivity(&task.Activity{ID: "onestop", Concept: semantics.ShoppingService}),
		task.NewActivity(&task.Activity{ID: "mpay2", Concept: semantics.MobilePayment}),
	)}
	repo := task.NewRepository(onto)
	if err := repo.Register(&task.Class{
		Name: "granularity", Concept: semantics.ShoppingService,
		Behaviours: []*task.Task{b1, coarse},
	}); err != nil {
		t.Fatal(err)
	}

	req := &core.Request{Task: b1, Properties: stdPS(),
		Constraints: qos.Constraints{{Property: "responseTime", Bound: 500}}}
	cands := make(map[string][]registry.Candidate)
	for _, a := range b1.Activities() {
		cands[a.ID] = reg.CandidatesForActivity(a, stdPS())
	}
	sel := core.NewSelector(core.Options{})
	res, err := sel.Select(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(req, res)
	m := &Manager{Registry: reg, Repo: repo, Selector: sel}
	m.Options.Match.AllowSubsume = true
	rt.MarkCompleted("browse", qos.Vector{50, 5, 0.95, 0.9, 40})

	// Without merging the coarse behaviour cannot host order+pay.
	if _, err := m.AdaptBehaviour(rt); err == nil {
		t.Fatal("coarse alternative should not match without AllowMerge")
	}

	m.Options.Match.AllowMerge = true
	plan, err := m.AdaptBehaviour(rt)
	if err != nil {
		t.Fatalf("merged-granularity adaptation: %v", err)
	}
	if plan.Alternative.Name != "coarse" {
		t.Errorf("alternative = %s", plan.Alternative.Name)
	}
	if ids := plan.NewTask.ActivityIDs(); len(ids) != 2 || ids[0] != "mpay2" || ids[1] != "onestop" {
		t.Errorf("new task = %v, want [mpay2 onestop]", ids)
	}
	if !plan.Selection.Feasible {
		t.Error("one-stop re-selection should be feasible")
	}
}
