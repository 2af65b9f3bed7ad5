// The raced ownership test for shared service descriptions: every
// candidate points at the description the registry froze at publish, so
// lookups, compositions, substitutions and re-publishes all read the
// same memory and none may write it.
package qasom

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"qasom/internal/adapt"
	"qasom/internal/core"
	"qasom/internal/registry"
	"qasom/internal/semantics"
	"qasom/internal/task"
)

const sharedDescTask = `<process name="shared-desc" concept="Shopping">
  <sequence>
    <invoke activity="browse" concept="BrowseCatalog"/>
    <invoke activity="order" concept="OrderItem"/>
    <invoke activity="pay" concept="Payment"/>
  </sequence>
</process>`

var sharedDescCaps = []struct{ prefix, capability string }{
	{"browse", "BrowseCatalog"}, {"order", "OrderItem"}, {"pay", "CardPayment"},
}

// publishSharedDesc (re-)publishes service i of one capability at
// generation gen. Its name records its response time, so a reader can
// tell that a description it holds is one whole publish.
func publishSharedDesc(mw *Middleware, prefix, capability string, i, gen int) error {
	id := fmt.Sprintf("%s-%d", prefix, i)
	rt := 40 + float64(5*i) + float64(gen%7)
	return mw.Publish(Service{
		ID: id, Name: fmt.Sprintf("%s@%g", id, rt), Capability: capability,
		Inputs: []string{"Query"}, Outputs: []string{"Receipt"},
		QoS: map[string]float64{
			"responseTime": rt, "price": 5,
			"availability": 0.95, "reliability": 0.9, "throughput": 40,
		},
	})
}

// wholePublish reports whether d reads as one publish of
// publishSharedDesc: its name matches its response-time offer and its
// slices hold what every publish puts there.
func wholePublish(d *registry.Description) error {
	if d == nil {
		return errors.New("candidate without a description")
	}
	rt := -1.0
	for _, o := range d.Offers {
		if o.Property == semantics.ResponseTime {
			rt = o.Value
		}
	}
	if want := fmt.Sprintf("%s@%g", d.ID, rt); d.Name != want || len(d.Offers) != 5 {
		return fmt.Errorf("description %+v: name %q, want %q", *d, d.Name, want)
	}
	if len(d.Inputs) != 1 || d.Inputs[0] != "Query" || len(d.Outputs) != 1 || d.Outputs[0] != "Receipt" {
		return fmt.Errorf("description %+v: data concepts changed", *d)
	}
	return nil
}

// wholeResult checks every candidate a selection result holds.
func wholeResult(res *core.Result) error {
	for act, c := range res.Assignment {
		if err := wholePublish(c.Service); err != nil {
			return fmt.Errorf("binding of %s: %w", act, err)
		}
	}
	for act, alts := range res.Alternates() {
		for _, c := range alts {
			if err := wholePublish(c.Service); err != nil {
				return fmt.Errorf("alternate of %s: %w", act, err)
			}
		}
	}
	return nil
}

// TestRacedSharedDescriptions runs registry lookups, composes,
// substitutions and re-publishes of the same service IDs together.
// Under -race it shows that nothing writes a shared description; every
// reader also checks that each description it holds is one whole
// publish.
func TestRacedSharedDescriptions(t *testing.T) {
	mw, err := New()
	if err != nil {
		t.Fatal(err)
	}
	const services, rounds = 5, 50
	for _, c := range sharedDescCaps {
		for i := 0; i < services; i++ {
			if err := publishSharedDesc(mw, c.prefix, c.capability, i, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	acts := []*task.Activity{
		{ID: "browse", Concept: "BrowseCatalog"}, {ID: "order", Concept: "OrderItem"}, {ID: "pay", Concept: "Payment"},
	}

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	run := func(f func(round int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := f(r); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	for p := 0; p < 2; p++ {
		run(func(r int) error { // re-publish every ID
			for _, c := range sharedDescCaps {
				for i := 0; i < services; i++ {
					if err := publishSharedDesc(mw, c.prefix, c.capability, i, 1+2*r+p); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
	for l := 0; l < 2; l++ {
		run(func(int) error { // registry lookups
			for _, a := range acts {
				for _, c := range mw.reg.CandidatesForActivity(a, mw.props) {
					if err := wholePublish(c.Service); err != nil {
						return fmt.Errorf("lookup of %s: %w", a.ID, err)
					}
				}
			}
			return nil
		})
	}
	for c := 0; c < 2; c++ {
		run(func(int) error { // compose, then substitute twice
			comp, err := mw.Compose(Request{Task: sharedDescTask})
			if err != nil {
				return err
			}
			for s := 0; s < 2; s++ {
				cand, err := mw.manager.Substitute(comp.runtime, "order", nil)
				if errors.Is(err, adapt.ErrNoSubstitute) {
					break
				}
				if err != nil {
					return err
				}
				if err := wholePublish(cand.Service); err != nil {
					return fmt.Errorf("substitute: %w", err)
				}
			}
			return wholeResult(comp.runtime.Result())
		})
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
