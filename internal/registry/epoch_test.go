package registry

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"qasom/internal/qos"
	"qasom/internal/semantics"
)

// TestEpochBumpsOnMutation checks the capability epoch moves on every
// Publish/Withdraw (including QoS-only re-publishes) and stays still
// otherwise.
func TestEpochBumpsOnMutation(t *testing.T) {
	r := newTestRegistry()
	epoch := func() uint64 { return r.CapabilityEpochs(nil, semantics.BookSale)[0] }
	if e := epoch(); e != 0 {
		t.Fatalf("fresh registry BookSale epoch = %d, want 0", e)
	}

	if err := r.Publish(bookService("b1", 40)); err != nil {
		t.Fatal(err)
	}
	if epoch() == 0 {
		t.Error("Publish did not bump the BookSale capability epoch")
	}

	// QoS-only update (same ID, same capability) must bump too: cached
	// selections over the old vector are stale.
	e := epoch()
	if err := r.Publish(bookService("b1", 55)); err != nil {
		t.Fatal(err)
	}
	if epoch() == e {
		t.Error("re-publish did not bump the capability epoch")
	}

	// A lookup moves nothing.
	e = epoch()
	if got := r.Candidates(semantics.BookSale, qos.StandardSet()); len(got) != 1 {
		t.Fatalf("lookup returned %d candidates, want 1", len(got))
	}
	if epoch() != e {
		t.Error("a lookup bumped the capability epoch")
	}

	// Withdraw bumps; withdrawing an absent service does not.
	if !r.Withdraw("b1") {
		t.Fatal("withdraw failed")
	}
	if epoch() == e {
		t.Error("Withdraw did not bump the capability epoch")
	}
	e = epoch()
	if r.Withdraw("b1") {
		t.Fatal("second withdraw should report absence")
	}
	if epoch() != e {
		t.Error("no-op Withdraw bumped the capability epoch")
	}
}

// TestEpochCoversCapabilityClosure: publishing a CDSale service must
// move the epoch of every ancestor capability (MediaSale, Shopping) —
// a request asking for the general concept sees the new candidate — but
// leave unrelated capabilities untouched.
func TestEpochCoversCapabilityClosure(t *testing.T) {
	r := newTestRegistry()
	before := r.CapabilityEpochs(nil,
		semantics.CDSale, semantics.MediaSale, semantics.ShoppingService, semantics.CardPayment)
	cd := Description{ID: "cd1", Concept: semantics.CDSale, Offers: stdOffers(80, 5, 0.9, 0.9, 40)}
	if err := r.Publish(cd); err != nil {
		t.Fatal(err)
	}
	after := r.CapabilityEpochs(nil,
		semantics.CDSale, semantics.MediaSale, semantics.ShoppingService, semantics.CardPayment)
	for i, name := range []string{"CDSale", "MediaSale", "Shopping"} {
		if after[i] == before[i] {
			t.Errorf("%s epoch unchanged by a CDSale publish", name)
		}
	}
	if after[3] != before[3] {
		t.Error("CardPayment epoch moved on an unrelated publish")
	}
}

// TestEpochOntologyVersionAppended: CapabilityEpochs appends the
// ontology version, so concept-hierarchy mutations invalidate epoch
// snapshots even without registry churn.
func TestEpochOntologyVersionAppended(t *testing.T) {
	onto := semantics.PervasiveWithScenarios()
	r := New(onto)
	s1 := r.CapabilityEpochs(nil, semantics.BookSale)
	if len(s1) != 2 {
		t.Fatalf("snapshot length %d, want 2 (capability + ontology version)", len(s1))
	}
	if err := onto.AddConcept("EpochTestConcept", semantics.ShoppingService); err != nil {
		t.Fatal(err)
	}
	s2 := r.CapabilityEpochs(nil, semantics.BookSale)
	if s2[1] == s1[1] {
		t.Error("ontology mutation did not move the appended version component")
	}
}

// TestEpochRepublishAcrossCapabilities: moving a service to a different
// capability must stale both the old and the new capability's epoch.
func TestEpochRepublishAcrossCapabilities(t *testing.T) {
	r := newTestRegistry()
	if err := r.Publish(bookService("s1", 40)); err != nil {
		t.Fatal(err)
	}
	// Build the index so the stored index keys (old ancestry) are in play.
	ps := qos.StandardSet()
	if got := r.Candidates(semantics.BookSale, ps); len(got) != 1 {
		t.Fatalf("warm-up lookup returned %d candidates", len(got))
	}
	before := r.CapabilityEpochs(nil, semantics.BookSale, semantics.CardPayment)
	moved := Description{ID: "s1", Concept: semantics.CardPayment, Offers: stdOffers(30, 1, 0.99, 0.95, 10)}
	if err := r.Publish(moved); err != nil {
		t.Fatal(err)
	}
	after := r.CapabilityEpochs(nil, semantics.BookSale, semantics.CardPayment)
	if after[0] == before[0] {
		t.Error("old capability (BookSale) epoch unchanged after the service moved away")
	}
	if after[1] == before[1] {
		t.Error("new capability (CardPayment) epoch unchanged after the service moved in")
	}
}

// TestLookupsShareFrozenDescription: every lookup of one publish points
// at the same frozen description, each with its own fresh vector, and a
// re-publish freezes a new description without touching the old one.
func TestLookupsShareFrozenDescription(t *testing.T) {
	r := newTestRegistry()
	if err := r.Publish(sliceService("b1", 40)); err != nil {
		t.Fatal(err)
	}
	ps := qos.StandardSet()
	c1, c2 := r.Candidates(semantics.BookSale, ps), r.Candidates(semantics.BookSale, ps)
	if len(c1) != 1 || len(c2) != 1 {
		t.Fatalf("got %d and %d candidates", len(c1), len(c2))
	}
	if c1[0].Service != c2[0].Service {
		t.Error("two lookups of one publish hold different descriptions")
	}
	if &c1[0].Vector[0] == &c2[0].Vector[0] {
		t.Error("two lookups share one vector; each must build its own")
	}
	if err := r.Publish(sliceService("b1", 50)); err != nil {
		t.Fatal(err)
	}
	c3 := r.Candidates(semantics.BookSale, ps)
	if len(c3) != 1 || c3[0].Service == c1[0].Service {
		t.Fatal("a re-publish must freeze a new description")
	}
	if !reflect.DeepEqual(*c1[0].Service, sliceService("b1", 40)) || c1[0].Vector[0] != 40 {
		t.Errorf("re-publish changed an earlier candidate: %+v %v", *c1[0].Service, c1[0].Vector)
	}
	if c3[0].Service.Offers[0].Value != 50 {
		t.Errorf("re-published candidate offers %v, want 50", c3[0].Service.Offers[0].Value)
	}
}

// TestDifferentialEpochProbe checks EpochProbe.Epochs against the
// CapabilityEpochs reference after every kind of change that moves an
// epoch or re-resolves a concept: publish, withdraw, QoS update, an
// alias added and retargeted, a concept added to the ontology, the first publish of a
// capability a probe already asked for (whose missing entry must not
// pin epoch 0), another tenant's churn, a lookup that refiles the store
// after the ontology moved, and raced concurrent publishes.
func TestDifferentialEpochProbe(t *testing.T) {
	concepts := []semantics.ConceptID{
		semantics.BookSale, semantics.ShoppingService, semantics.CashPayment,
		"Bookshop", "VinylSale", semantics.PaymentService, semantics.BookSale,
	}

	t.Run("sequence", func(t *testing.T) {
		onto := semantics.PervasiveWithScenarios()
		store := NewStore(onto, StoreOptions{})
		r, other := store.Tenant("env-a"), store.Tenant("env-b")
		// One probe over every concept, one over the concepts published
		// from the start (its resolution is cached early), one per
		// concept, and one in the other tenant.
		type probeCase struct {
			r        *Registry
			concepts []semantics.ConceptID
			p        *EpochProbe
		}
		var probes []probeCase
		add := func(r *Registry, cs ...semantics.ConceptID) {
			probes = append(probes, probeCase{r, cs, r.NewEpochProbe(cs...)})
		}
		add(r, concepts...)
		add(r, semantics.BookSale, semantics.ShoppingService)
		for _, c := range concepts {
			add(r, c)
		}
		add(other, concepts...)
		buf := make([]uint64, 3, 16) // stale contents: Epochs must overwrite them
		check := func(step string) {
			t.Helper()
			for _, pc := range probes {
				want := pc.r.CapabilityEpochs(nil, pc.concepts...)
				for _, dst := range [][]uint64{nil, buf} {
					if got := pc.p.Epochs(dst); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: tenant %q probe %v = %v, CapabilityEpochs = %v",
							step, pc.r.TenantID(), pc.concepts, got, want)
					}
				}
			}
		}
		publish := func(r *Registry, d Description) {
			t.Helper()
			if err := r.Publish(d); err != nil {
				t.Fatal(err)
			}
		}

		check("empty store")
		publish(r, bookService("b1", 40))
		check("publish")
		publish(r, bookService("b1", 55))
		check("QoS update")
		publish(r, bookService("b2", 60))
		if !r.Withdraw("b1") {
			t.Fatal("withdraw failed")
		}
		check("withdraw")
		publish(r, Description{ID: "card", Concept: semantics.CardPayment, Offers: stdOffers(30, 1, 0.99, 0.95, 10)})
		check("ancestor bumped by a child capability")
		publish(r, Description{ID: "cash", Concept: semantics.CashPayment, Offers: stdOffers(20, 0, 0.99, 0.99, 10)})
		check("first publish of a probed capability")
		if err := onto.AddAlias("Bookshop", semantics.BookSale); err != nil {
			t.Fatal(err)
		}
		check("alias added")
		publish(r, bookService("b3", 45))
		check("publish after alias")
		publish(r, Description{ID: "cd", Concept: semantics.CDSale, Offers: stdOffers(80, 5, 0.9, 0.9, 40)})
		if err := onto.AddAlias("Bookshop", semantics.MediaSale); err != nil {
			t.Fatal(err)
		}
		check("alias retargeted")
		if err := onto.AddConcept("VinylSale", semantics.MediaSale); err != nil {
			t.Fatal(err)
		}
		check("concept added")
		publish(r, Description{ID: "vinyl", Concept: "VinylSale", Offers: stdOffers(70, 8, 0.9, 0.9, 20)})
		check("first publish under the new concept")
		publish(other, bookService("b1", 35))
		publish(other, Description{ID: "cash", Concept: semantics.CashPayment, Offers: stdOffers(20, 0, 0.99, 0.99, 10)})
		other.Withdraw("b1")
		check("other tenant's churn")
		publish(r, bookService("b4", 50))
		check("publish after the ontology moved")
		if got := r.Candidates(semantics.BookSale, qos.StandardSet()); len(got) != 3 {
			t.Fatalf("lookup after the refile returned %d candidates, want 3", len(got))
		}
		r.Withdraw("b4")
		check("withdraw after the refile")
	})

	t.Run("raced", func(t *testing.T) {
		onto := semantics.PervasiveWithScenarios()
		if err := onto.AddAlias("Bookshop", semantics.BookSale); err != nil {
			t.Fatal(err)
		}
		onto.MustAddConcept("VinylSale", semantics.MediaSale)
		store := NewStore(onto, StoreOptions{})
		tenants := []*Registry{store.Tenant("env-a"), store.Tenant("env-b")}
		churn := []semantics.ConceptID{semantics.BookSale, semantics.CashPayment, "VinylSale", semantics.CardPayment}

		stop := make(chan struct{})
		var churnWG, sampleWG sync.WaitGroup
		for ti, r := range tenants {
			for g := 0; g < 2; g++ {
				churnWG.Add(1)
				go func(r *Registry, g int) {
					defer churnWG.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						id := ServiceID(fmt.Sprintf("g%d-s%d", g, i%8))
						d := Description{ID: id, Concept: churn[(g+i)%len(churn)], Offers: stdOffers(40+float64(i%20), 5, 0.95, 0.9, 40)}
						if err := r.Publish(d); err != nil {
							t.Error(err)
							return
						}
						if i%3 == 0 {
							r.Withdraw(id)
						}
					}
				}(r, g+2*ti)
			}
		}
		// Ontology churn that moves the version but no probed concept's
		// canonical key, so every position stays monotonic.
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for i := 0; i < 64; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := onto.AddConcept(semantics.ConceptID(fmt.Sprintf("Raced%d", i)), semantics.ShoppingService); err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched()
			}
		}()

		// A probe read between two reference reads lies between them,
		// position by position.
		for _, r := range tenants {
			sampleWG.Add(1)
			go func(r *Registry) {
				defer sampleWG.Done()
				p := r.NewEpochProbe(concepts...)
				var before, got, after []uint64
				for n := 0; n < 2000; n++ {
					before = r.CapabilityEpochs(before, concepts...)
					got = p.Epochs(got)
					after = r.CapabilityEpochs(after, concepts...)
					for i := range got {
						if got[i] < before[i] || got[i] > after[i] {
							t.Errorf("position %d: probe read %d outside [%d, %d]", i, got[i], before[i], after[i])
							return
						}
					}
				}
			}(r)
		}
		sampleWG.Wait()
		close(stop)
		churnWG.Wait()
		for _, r := range tenants {
			want := r.CapabilityEpochs(nil, concepts...)
			if got := r.NewEpochProbe(concepts...).Epochs(nil); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("tenant %q after churn: fresh probe %v, CapabilityEpochs %v", r.TenantID(), got, want)
			}
		}
	})
}
