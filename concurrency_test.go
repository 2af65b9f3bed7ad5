// Tests for the concurrent composition pipeline: context cancellation
// through ComposeContext and many concurrent compositions against one
// Middleware while the service population churns (run with -race).
package qasom_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"qasom"
	"qasom/internal/obs"
)

// newChurnMall publishes 5 stable services per capability (these never
// leave, so compositions always find candidates) and returns the
// middleware.
func newChurnMall(t *testing.T) *qasom.Middleware {
	t.Helper()
	mw, err := qasom.New()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []struct{ prefix, capability string }{
		{"browse", "BrowseCatalog"}, {"order", "OrderItem"}, {"pay", "CardPayment"},
	} {
		for i := 0; i < 5; i++ {
			err := mw.Publish(qasom.Service{
				ID:         fmt.Sprintf("%s-%d", spec.prefix, i),
				Capability: spec.capability,
				QoS: map[string]float64{
					"responseTime": 40 + float64(5*i), "price": 5,
					"availability": 0.95, "reliability": 0.9, "throughput": 40,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return mw
}

const churnTask = `<process name="churn-shopping" concept="Shopping">
  <sequence>
    <invoke activity="browse" concept="BrowseCatalog"/>
    <invoke activity="order" concept="OrderItem"/>
    <invoke activity="pay" concept="Payment"/>
  </sequence>
</process>`

func TestComposeContextCancelled(t *testing.T) {
	mw := newChurnMall(t)
	before := struct {
		services        int
		ontologyVersion uint64
		ontologyLen     int
	}{mw.ServiceCount(), mw.Ontology().Version(), mw.Ontology().Len()}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := mw.ComposeContext(ctx, qasom.Request{
		Task:        churnTask,
		Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 300}},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ComposeContext on cancelled ctx = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled compose took %v, want prompt return", elapsed)
	}
	// A cancelled compose must leave registry and ontology unmutated.
	if mw.ServiceCount() != before.services {
		t.Errorf("registry mutated by cancelled compose: %d services, want %d",
			mw.ServiceCount(), before.services)
	}
	if v := mw.Ontology().Version(); v != before.ontologyVersion {
		t.Errorf("ontology mutated by cancelled compose: version %d, want %d", v, before.ontologyVersion)
	}
	if n := mw.Ontology().Len(); n != before.ontologyLen {
		t.Errorf("ontology concept count changed: %d, want %d", n, before.ontologyLen)
	}
	// The middleware still composes normally afterwards.
	comp, err := mw.Compose(qasom.Request{Task: churnTask})
	if err != nil || comp == nil {
		t.Fatalf("compose after cancellation: %v", err)
	}
}

func TestConcurrentComposeWithChurn(t *testing.T) {
	mw := newChurnMall(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const composers = 8
	const iterations = 25
	var churnWG, composeWG sync.WaitGroup
	stop := make(chan struct{})

	// Churners publish and withdraw extra services while selections run.
	for c := 0; c < 2; c++ {
		churnWG.Add(1)
		go func(c int) {
			defer churnWG.Done()
			caps := []string{"BrowseCatalog", "OrderItem", "CardPayment"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("churn%d-%d", c, i%6)
				err := mw.Publish(qasom.Service{
					ID:         id,
					Capability: caps[i%len(caps)],
					QoS: map[string]float64{
						"responseTime": 30 + float64(i%20), "price": 4,
						"availability": 0.96, "reliability": 0.92, "throughput": 45,
					},
				})
				if err != nil {
					t.Error(err)
					return
				}
				mw.Withdraw(id)
			}
		}(c)
	}

	errc := make(chan error, composers)
	for g := 0; g < composers; g++ {
		composeWG.Add(1)
		go func() {
			defer composeWG.Done()
			for i := 0; i < iterations; i++ {
				comp, err := mw.ComposeContext(ctx, qasom.Request{
					Task:        churnTask,
					Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 500}},
				})
				if err != nil {
					errc <- err
					return
				}
				if len(comp.Bindings()) != 3 {
					errc <- fmt.Errorf("composition with %d bindings", len(comp.Bindings()))
					return
				}
			}
		}()
	}

	// Composers run a bounded number of iterations; wait for them, then
	// stop the churners and surface any error.
	composersDone := make(chan struct{})
	go func() {
		composeWG.Wait()
		close(composersDone)
	}()
	select {
	case <-composersDone:
	case <-ctx.Done():
		close(stop)
		churnWG.Wait()
		t.Fatal("composers did not finish before the test deadline")
	}
	close(stop)
	churnWG.Wait()
	close(errc)
	for err := range errc {
		t.Errorf("concurrent compose failed: %v", err)
	}
}

// TestConcurrentExecuteAndSubstitute runs the first Execute of a
// composition concurrently with a manual Substitute on the same
// composition. Both paths read and write the runtime's failover state,
// so under -race this pins that it is only touched under the runtime
// lock.
func TestConcurrentExecuteAndSubstitute(t *testing.T) {
	mw, err := qasom.New(qasom.Options{Obs: obs.NewHub()})
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Close()
	seedMall(t, mw)
	for round := 0; round < 20; round++ {
		comp, err := mw.Compose(qasom.Request{Task: behaviourA})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var execErr, subErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, execErr = mw.Execute(context.Background(), comp)
		}()
		go func() {
			defer wg.Done()
			_, subErr = comp.Substitute("order")
		}()
		wg.Wait()
		if execErr != nil {
			t.Fatalf("round %d: Execute: %v", round, execErr)
		}
		if subErr != nil {
			t.Fatalf("round %d: Substitute: %v", round, subErr)
		}
	}
}

// TestConcurrentBehaviourReadDuringSwitch reads the composition's
// behaviour (and the accessors built on it) while Execute switches it:
// every OrderItem provider is gone, so substitution is exhausted and
// behavioural adaptation installs shopB mid-run. Under -race this pins
// that the behaviour is only read under the runtime lock.
func TestConcurrentBehaviourReadDuringSwitch(t *testing.T) {
	for round := 0; round < 5; round++ {
		mw := newMall(t)
		comp, err := mw.Compose(qasom.Request{Task: behaviourA})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			mw.Withdraw(fmt.Sprintf("order-%d", i))
		}
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if b := comp.Behaviour(); b != "shopA" && b != "shopB" {
					t.Errorf("round %d: behaviour %q", round, b)
				}
				if _, err := comp.ExecutableBPEL(); err != nil {
					t.Errorf("round %d: ExecutableBPEL: %v", round, err)
				}
				comp.Assess(1)
			}
		}()
		report, err := mw.Execute(context.Background(), comp)
		close(done)
		wg.Wait()
		if err != nil {
			t.Fatalf("round %d: Execute: %v", round, err)
		}
		if report.BehaviourSwitches == 0 || comp.Behaviour() != "shopB" {
			t.Fatalf("round %d: switches=%d behaviour=%s, want a switch to shopB",
				round, report.BehaviourSwitches, comp.Behaviour())
		}
	}
}

// TestConcurrentContracts races the first EstablishContracts calls of a
// middleware against CheckContracts: the contract manager must exist
// before either runs, so no contract is lost to a second manager and the
// race detector sees no unsynchronised install.
func TestConcurrentContracts(t *testing.T) {
	mw := newMall(t)
	comp, err := mw.Compose(qasom.Request{Task: behaviourA})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	var wg sync.WaitGroup
	ids := make([]map[string]string, writers)
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			ids[w], errs[w] = mw.EstablishContracts(comp, 1)
		}(w)
		go func() {
			defer wg.Done()
			for _, r := range mw.CheckContracts() {
				if r.ContractID == "" {
					t.Error("report without a contract ID")
				}
			}
		}()
	}
	wg.Wait()
	want := make(map[string]bool)
	for w := 0; w < writers; w++ {
		if errs[w] != nil {
			t.Fatalf("EstablishContracts: %v", errs[w])
		}
		for _, id := range ids[w] {
			want[id] = true
		}
	}
	if len(want) != writers*len(comp.Bindings()) {
		t.Fatalf("%d distinct contract IDs, want %d", len(want), writers*len(comp.Bindings()))
	}
	reports := mw.CheckContracts()
	if len(reports) != len(want) {
		t.Fatalf("CheckContracts returned %d reports, want %d", len(reports), len(want))
	}
	for _, r := range reports {
		if !want[r.ContractID] {
			t.Errorf("report for unknown contract %s", r.ContractID)
		}
	}
}
