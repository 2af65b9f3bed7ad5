package qasom_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"qasom"
	"qasom/internal/obs"
)

const behaviourA = `<process name="shopA" concept="Shopping">
  <sequence>
    <invoke activity="browse" concept="BrowseCatalog"/>
    <invoke activity="order" concept="OrderItem"/>
    <invoke activity="pay" concept="Payment"/>
  </sequence>
</process>`

const behaviourB = `<process name="shopB" concept="Shopping">
  <sequence>
    <invoke activity="fulfil" concept="Shopping"/>
    <invoke activity="mpay" concept="MobilePayment"/>
  </sequence>
</process>`

func stdQoS(rt float64) map[string]float64 {
	return map[string]float64{
		"responseTime": rt,
		"price":        5,
		"availability": 0.95,
		"reliability":  0.9,
		"throughput":   40,
	}
}

// newMall publishes a small shopping environment through the public API.
func newMall(t *testing.T) *qasom.Middleware {
	t.Helper()
	mw, err := qasom.New()
	if err != nil {
		t.Fatal(err)
	}
	specs := []struct {
		prefix, capability string
	}{
		{"browse", "BrowseCatalog"},
		{"order", "OrderItem"},
		{"pay", "CardPayment"},
		{"fulfil", "Shopping"},
		{"mpay", "MobilePayment"},
	}
	for _, s := range specs {
		for i := 0; i < 4; i++ {
			err := mw.Publish(qasom.Service{
				ID:         fmt.Sprintf("%s-%d", s.prefix, i),
				Capability: s.capability,
				QoS:        stdQoS(40 + float64(5*i)),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := mw.RegisterTaskClass("shopping", behaviourA, behaviourB); err != nil {
		t.Fatal(err)
	}
	return mw
}

func TestNewDefaults(t *testing.T) {
	mw, err := qasom.New()
	if err != nil {
		t.Fatal(err)
	}
	props := mw.Properties()
	if len(props) != 5 || props[0] != "responseTime" {
		t.Errorf("Properties = %v", props)
	}
	ext, err := qasom.New(qasom.Options{ExtendedProperties: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.Properties()) != 8 {
		t.Errorf("extended properties = %d, want 8", len(ext.Properties()))
	}
	if _, err := qasom.New(qasom.Options{}, qasom.Options{}); err == nil {
		t.Error("two Options values should be rejected")
	}
}

func TestPublishValidationAndCount(t *testing.T) {
	mw, _ := qasom.New()
	if err := mw.Publish(qasom.Service{}); err == nil {
		t.Error("empty service should be rejected")
	}
	if err := mw.Publish(qasom.Service{ID: "x", Capability: "BookSale", QoS: stdQoS(50)}); err != nil {
		t.Fatal(err)
	}
	if mw.ServiceCount() != 1 {
		t.Errorf("ServiceCount = %d", mw.ServiceCount())
	}
	if !mw.Withdraw("x") || mw.Withdraw("x") {
		t.Error("Withdraw semantics wrong")
	}
}

// TestPublishRejectsNonFiniteQoS: the façade refuses a service with a
// NaN or infinite QoS value, and a composition over the capability
// still binds only the finite services.
func TestPublishRejectsNonFiniteQoS(t *testing.T) {
	mw := newMall(t)
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		q := stdQoS(1)
		q["price"] = v
		id := fmt.Sprintf("pay-bad-%d", i)
		if err := mw.Publish(qasom.Service{ID: id, Capability: "CardPayment", QoS: q}); err == nil {
			t.Errorf("price %v: Publish accepted it", v)
		}
	}
	if got := mw.ServiceCount(); got != 20 {
		t.Errorf("ServiceCount = %d, want the 20 finite services", got)
	}
	comp, err := mw.Compose(qasom.Request{Task: behaviourA})
	if err != nil {
		t.Fatal(err)
	}
	for act, id := range comp.Bindings() {
		if strings.HasPrefix(id, "pay-bad") {
			t.Errorf("activity %s bound to rejected service %s", act, id)
		}
	}
}

func TestPublishWithAliasVocabulary(t *testing.T) {
	mw, _ := qasom.New()
	// A provider using its own vocabulary ("Delay", "Uptime", "Fee").
	err := mw.Publish(qasom.Service{
		ID: "het", Capability: "BookSale",
		QoS: map[string]float64{
			"Delay": 50, "Fee": 5, "Uptime": 0.95, "SuccessRate": 0.9, "Rate": 40,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := mw.Compose(qasom.Request{Task: `<process name="p" concept="Shopping">
	  <invoke activity="buy" concept="BookSale"/>
	</process>`})
	if err != nil {
		t.Fatalf("Compose over alias vocabulary: %v", err)
	}
	if comp.Bindings()["buy"] != "het" {
		t.Errorf("bindings = %v", comp.Bindings())
	}
}

func TestComposeFeasible(t *testing.T) {
	mw := newMall(t)
	comp, err := mw.Compose(qasom.Request{
		Task: behaviourA,
		Constraints: []qasom.Constraint{
			{Property: "responseTime", Bound: 200},
			{Property: "availability", Bound: 0.8},
		},
	})
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	if !comp.Feasible() {
		t.Fatal("composition should be feasible")
	}
	b := comp.Bindings()
	if len(b) != 3 || b["browse"] == "" || b["order"] == "" || b["pay"] == "" {
		t.Errorf("bindings = %v", b)
	}
	agg := comp.AggregatedQoS()
	if agg["responseTime"] > 200 {
		t.Errorf("aggregated rt %g exceeds bound", agg["responseTime"])
	}
	if u := comp.Utility(); u < 0 || u > 1 {
		t.Errorf("utility %g outside [0,1]", u)
	}
	if len(comp.Alternates("order")) == 0 {
		t.Error("alternates should exist")
	}
	if comp.Behaviour() != "shopA" {
		t.Errorf("behaviour = %s", comp.Behaviour())
	}
}

func TestComposeByBehaviourName(t *testing.T) {
	mw := newMall(t)
	comp, err := mw.Compose(qasom.Request{Task: "shopB"})
	if err != nil {
		t.Fatalf("Compose by name: %v", err)
	}
	if len(comp.Bindings()) != 2 {
		t.Errorf("bindings = %v", comp.Bindings())
	}
}

func TestComposeErrors(t *testing.T) {
	mw := newMall(t)
	cases := []struct {
		name string
		req  qasom.Request
	}{
		{"empty task", qasom.Request{}},
		{"bad bpel", qasom.Request{Task: "<nope"}},
		{"unknown weight", qasom.Request{Task: behaviourA, Weights: map[string]float64{"zz": 1}}},
		{"unknown approach", qasom.Request{Task: behaviourA, Approach: "psychic"}},
		{"no services", qasom.Request{Task: `<process name="p" concept="X"><invoke activity="a" concept="LabAnalysis"/></process>`}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := mw.Compose(tt.req); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestComposeApproachesAndWeights(t *testing.T) {
	mw := newMall(t)
	for _, approach := range []string{"pessimistic", "optimistic", "mean-value"} {
		comp, err := mw.Compose(qasom.Request{
			Task:     behaviourA,
			Approach: approach,
			Weights:  map[string]float64{"responseTime": 3, "price": 1},
		})
		if err != nil {
			t.Fatalf("approach %s: %v", approach, err)
		}
		if len(comp.Bindings()) != 3 {
			t.Errorf("approach %s: bindings %v", approach, comp.Bindings())
		}
	}
}

func TestExecuteHappyPath(t *testing.T) {
	mw := newMall(t)
	comp, err := mw.Compose(qasom.Request{Task: behaviourA})
	if err != nil {
		t.Fatal(err)
	}
	report, err := mw.Execute(context.Background(), comp)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !report.Completed || report.Failures != 0 || report.Invocations != 3 {
		t.Errorf("report = %+v", report)
	}
}

func TestExecuteWithSubstitution(t *testing.T) {
	mw := newMall(t)
	comp, err := mw.Compose(qasom.Request{Task: behaviourA})
	if err != nil {
		t.Fatal(err)
	}
	mw.SetDown(comp.Bindings()["order"])
	report, err := mw.Execute(context.Background(), comp)
	if err != nil {
		t.Fatalf("Execute with a down service: %v", err)
	}
	if !report.Completed || report.Substitutions == 0 {
		t.Errorf("substitution expected: %+v", report)
	}
	if report.BehaviourSwitches != 0 {
		t.Errorf("no behaviour switch expected: %+v", report)
	}
}

// TestFailoverAfterCloseSkipsWithdrawn pins the Close contract: Close
// may be called more than once and the middleware stays usable, and
// failover still probes the registry, so a service withdrawn after
// Close is never handed out.
func TestFailoverAfterCloseSkipsWithdrawn(t *testing.T) {
	mw, err := qasom.New(qasom.Options{Obs: obs.NewHub()})
	if err != nil {
		t.Fatal(err)
	}
	seedMall(t, mw)
	comp, err := mw.Compose(qasom.Request{Task: behaviourA})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mw.Execute(context.Background(), comp); err != nil {
		t.Fatal(err)
	}
	mw.Close()
	mw.Close()
	head := comp.Alternates("order")[0]
	if !mw.Withdraw(head) {
		t.Fatalf("withdraw %s failed", head)
	}
	sub, err := comp.Substitute("order")
	if err != nil {
		t.Fatalf("Substitute after Close: %v", err)
	}
	if sub == head {
		t.Fatalf("Substitute after Close returned withdrawn %s", head)
	}
}

func TestExecuteWithBehaviouralAdaptation(t *testing.T) {
	mw := newMall(t)
	comp, err := mw.Compose(qasom.Request{Task: behaviourA})
	if err != nil {
		t.Fatal(err)
	}
	// Every OrderItem provider leaves the environment: substitution is
	// impossible, the composition must switch to behaviour shopB.
	for i := 0; i < 4; i++ {
		mw.Withdraw(fmt.Sprintf("order-%d", i))
	}
	report, err := mw.Execute(context.Background(), comp)
	if err != nil {
		t.Fatalf("Execute with lost capability: %v", err)
	}
	if !report.Completed {
		t.Fatal("composition should complete via behavioural adaptation")
	}
	if report.BehaviourSwitches == 0 {
		t.Error("behaviour switch expected")
	}
	if comp.Behaviour() != "shopB" {
		t.Errorf("behaviour = %s, want shopB", comp.Behaviour())
	}
}

func TestExecuteUnrecoverable(t *testing.T) {
	mw, _ := qasom.New()
	// Single always-failing service, no task class to fall back to.
	if err := mw.Publish(qasom.Service{ID: "s", Capability: "BookSale", QoS: stdQoS(50), FailProb: 1}); err != nil {
		t.Fatal(err)
	}
	comp, err := mw.Compose(qasom.Request{Task: `<process name="p" concept="Shopping">
	  <invoke activity="buy" concept="BookSale"/>
	</process>`})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mw.Execute(context.Background(), comp); err == nil {
		t.Error("unrecoverable execution should error")
	}
}

func TestDegradeThroughAPI(t *testing.T) {
	mw := newMall(t)
	if err := mw.Degrade("order-0", map[string]float64{"responseTime": 500}); err != nil {
		t.Fatal(err)
	}
	if err := mw.Degrade("order-0", map[string]float64{"nope": 1}); err == nil {
		t.Error("unknown property should error")
	}
	if err := mw.Degrade("ghost", map[string]float64{"responseTime": 1}); err == nil {
		t.Error("unknown service should error")
	}
}

func TestComposeDistributed(t *testing.T) {
	mw := newMall(t)
	central, err := mw.Compose(qasom.Request{Task: behaviourA,
		Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 200}}})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := mw.Compose(qasom.Request{Task: behaviourA, Distributed: true,
		Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 200}}})
	if err != nil {
		t.Fatalf("distributed Compose: %v", err)
	}
	if dist.Feasible() != central.Feasible() {
		t.Error("distributed and central feasibility differ")
	}
	for act, svc := range central.Bindings() {
		if dist.Bindings()[act] != svc {
			t.Errorf("activity %s: distributed chose %s, central %s", act, dist.Bindings()[act], svc)
		}
	}
}

func TestAssessAndProactiveSubstitute(t *testing.T) {
	mw := newMall(t)
	comp, err := mw.Compose(qasom.Request{
		Task:        behaviourA,
		Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 250}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fresh composition: healthy on advertised values.
	if a := comp.Assess(3); !a.Healthy() {
		t.Fatalf("fresh composition should be healthy: %+v", a)
	}
	// The bound order service degrades badly; executing a few times
	// feeds the monitor, and the assessment must flag responseTime.
	orderSvc := comp.Bindings()["order"]
	if err := mw.Degrade(orderSvc, map[string]float64{"responseTime": 400}); err != nil {
		t.Fatal(err)
	}
	if _, err := mw.Execute(context.Background(), comp); err != nil {
		t.Fatal(err)
	}
	a := comp.Assess(3)
	if len(a.Violated) == 0 {
		t.Fatalf("degraded service should violate: %+v", a)
	}
	// Proactive substitution repairs the binding.
	sub, err := comp.Substitute("order")
	if err != nil {
		t.Fatal(err)
	}
	if sub == orderSvc {
		t.Error("substitute should differ")
	}
	if comp.Bindings()["order"] != sub {
		t.Error("binding not updated")
	}
}

func TestExecutableBPEL(t *testing.T) {
	mw := newMall(t)
	comp, err := mw.Compose(qasom.Request{Task: behaviourA})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := comp.ExecutableBPEL()
	if err != nil {
		t.Fatalf("ExecutableBPEL: %v", err)
	}
	s := string(doc)
	if !strings.Contains(s, `executable="true"`) {
		t.Error("executable marker missing")
	}
	for act, svc := range comp.Bindings() {
		if !strings.Contains(s, fmt.Sprintf("partner=%q", svc)) {
			t.Errorf("binding for %s (%s) missing from document:\n%s", act, svc, s)
		}
	}
}

func TestContractsLifecycle(t *testing.T) {
	mw := newMall(t)
	comp, err := mw.Compose(qasom.Request{Task: behaviourA})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := mw.EstablishContracts(comp, 5)
	if err != nil {
		t.Fatalf("EstablishContracts: %v", err)
	}
	if len(ids) != 3 {
		t.Fatalf("contracts = %v", ids)
	}
	// Before any execution: compliant, no penalties.
	for _, r := range mw.CheckContracts() {
		if !r.Compliant || r.Penalty != 0 {
			t.Errorf("fresh contract should be compliant: %+v", r)
		}
	}
	// The order service degrades far past its advertised values; after an
	// execution the compliance check must flag it and accrue a penalty.
	orderSvc := comp.Bindings()["order"]
	if err := mw.Degrade(orderSvc, map[string]float64{"responseTime": 300}); err != nil {
		t.Fatal(err)
	}
	if _, err := mw.Execute(context.Background(), comp); err != nil {
		t.Fatal(err)
	}
	var flagged *qasom.ContractReport
	for _, r := range mw.CheckContracts() {
		r := r
		if r.Service == orderSvc {
			flagged = &r
		}
	}
	if flagged == nil {
		t.Fatal("no report for the degraded service")
	}
	if flagged.Compliant || flagged.Penalty <= 0 || len(flagged.Violations) == 0 {
		t.Errorf("degraded service should violate its contract: %+v", flagged)
	}
	if flagged.Tier == string("SatisfiedTier") || flagged.Tier == "" {
		t.Errorf("tier should reflect dissatisfaction: %q", flagged.Tier)
	}
	if mw.AccruedPenalty(flagged.ContractID) <= 0 {
		t.Error("penalty should accrue")
	}
	// No contracts → empty reports, zero penalties.
	fresh, _ := qasom.New()
	if got := fresh.CheckContracts(); got != nil {
		t.Errorf("no contracts should give nil reports, got %v", got)
	}
	if fresh.AccruedPenalty("nope") != 0 {
		t.Error("unknown penalty should be 0")
	}
}

func TestHealSubstitutesDegradedService(t *testing.T) {
	mw := newMall(t)
	comp, err := mw.Compose(qasom.Request{
		Task:        behaviourA,
		Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 250}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Degrade the bound order service far past the budget and execute so
	// the monitor observes it.
	victim := comp.Bindings()["order"]
	if err := mw.Degrade(victim, map[string]float64{"responseTime": 400}); err != nil {
		t.Fatal(err)
	}
	if _, err := mw.Execute(context.Background(), comp); err != nil {
		t.Fatal(err)
	}
	if comp.Assess(3).Healthy() {
		t.Fatal("composition should be unhealthy before healing")
	}
	report, err := comp.Heal(3)
	if err != nil {
		t.Fatalf("Heal: %v", err)
	}
	if len(report.Substitutions) == 0 {
		t.Fatalf("healing should substitute: %+v", report)
	}
	if comp.Bindings()["order"] == victim {
		t.Error("degraded service should be replaced")
	}
	if !report.Healthy {
		t.Errorf("composition should be healthy after healing: %+v", report)
	}
}

func TestHealBehaviouralFallback(t *testing.T) {
	// A mall with a SINGLE provider per behaviourA activity: when it
	// degrades there is no substitute, so Heal must switch behaviour.
	mw, err := qasom.New()
	if err != nil {
		t.Fatal(err)
	}
	singles := []struct{ id, capability string }{
		{"browse-0", "BrowseCatalog"},
		{"order-0", "OrderItem"},
		{"pay-0", "CardPayment"},
		{"fulfil-0", "Shopping"},
		{"fulfil-1", "Shopping"},
		{"mpay-0", "MobilePayment"},
	}
	for _, s := range singles {
		if err := mw.Publish(qasom.Service{ID: s.id, Capability: s.capability, QoS: stdQoS(40)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.RegisterTaskClass("shopping", behaviourA, behaviourB); err != nil {
		t.Fatal(err)
	}
	comp, err := mw.Compose(qasom.Request{
		Task:        behaviourA,
		Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 200}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// order-0 degrades: no substitutes exist (mpay/card are Payment, and
	// fulfil is more general than OrderItem, so none are alternates).
	if err := mw.Degrade("order-0", map[string]float64{"responseTime": 500}); err != nil {
		t.Fatal(err)
	}
	if _, err := mw.Execute(context.Background(), comp); err != nil {
		t.Fatal(err)
	}
	report, err := comp.Heal(3)
	if err != nil {
		t.Fatalf("Heal: %v", err)
	}
	if !report.BehaviourSwitched {
		t.Fatalf("behavioural fallback expected: %+v", report)
	}
	if comp.Behaviour() != "shopB" {
		t.Errorf("behaviour = %s, want shopB", comp.Behaviour())
	}
}

func TestHealNoopWhenHealthy(t *testing.T) {
	mw := newMall(t)
	comp, err := mw.Compose(qasom.Request{
		Task:        behaviourA,
		Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 400}},
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := comp.Heal(3)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Healthy || len(report.Substitutions) != 0 || report.BehaviourSwitched {
		t.Errorf("healthy composition should heal as a no-op: %+v", report)
	}
}

func TestMobilityThroughAPI(t *testing.T) {
	mw, _ := qasom.New()
	if err := mw.EnableMobility(100, 40, 2); err != nil {
		t.Fatal(err)
	}
	if err := mw.Publish(qasom.Service{
		ID: "s1", Capability: "BookSale", Device: "phone-1", QoS: stdQoS(50),
	}); err != nil {
		t.Fatal(err)
	}
	if err := mw.PlaceDevice("phone-1", 50, 80, 0); err != nil { // 30 units from the user
		t.Fatal(err)
	}
	comp, err := mw.Compose(qasom.Request{Task: `<process name="p" concept="Shopping">
	  <invoke activity="buy" concept="BookSale"/>
	</process>`})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mw.Execute(context.Background(), comp); err != nil {
		t.Fatal(err)
	}
	// Delivered rt = 50 + 30·2 = 110, visible through the assessment.
	a := comp.Assess(1)
	if a.Current["responseTime"] < 105 {
		t.Errorf("link latency not applied: rt %g", a.Current["responseTime"])
	}
	// Signal weakens as the user walks away; breaks beyond range.
	s1 := mw.SignalStrength("phone-1")
	mw.MoveUser(50, 120)
	if s2 := mw.SignalStrength("phone-1"); s2 != 0 {
		t.Errorf("signal beyond range = %g, want 0", s2)
	}
	if s1 <= 0 {
		t.Errorf("in-range signal = %g, want > 0", s1)
	}
	mw.Tick(1) // must not panic
}

func TestRegisterTaskClassValidation(t *testing.T) {
	mw, _ := qasom.New()
	if err := mw.RegisterTaskClass("x"); err == nil {
		t.Error("class without behaviours should fail")
	}
	if err := mw.RegisterTaskClass("x", "<bad"); err == nil {
		t.Error("malformed behaviour should fail")
	}
	if err := mw.RegisterTaskClass("shopping", behaviourA, behaviourB); err != nil {
		t.Fatal(err)
	}
	if got := mw.TaskClasses(); len(got) != 1 || got[0] != "shopping" {
		t.Errorf("TaskClasses = %v", got)
	}
}
