// The raced first read of a shared plan's failover rotation: a plan-cache
// entry is built without its rotation, and the first reader builds it.
package qasom

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"qasom/internal/registry"
)

// rotationIDs renders a composition's rotations as service IDs per
// activity, through Composition.Alternates.
func rotationIDs(c *Composition, acts []string) map[string][]string {
	out := make(map[string][]string, len(acts))
	for _, act := range acts {
		out[act] = c.Alternates(act)
	}
	return out
}

// idsOf renders a result's rotations as service IDs per activity.
func idsOf(alts map[string][]registry.Candidate) map[string][]string {
	out := make(map[string][]string, len(alts))
	for act, list := range alts {
		ids := make([]string, len(list))
		for i, c := range list {
			ids[i] = string(c.Service.ID)
		}
		out[act] = ids
	}
	return out
}

// TestRacedFirstRotationRead starts several readers on one freshly
// cached plan at once, each taking the plan's first rotation read a
// different way: Composition.Alternates, Execute with the bound order
// service down (its failover walks the rotation), and the runtime's
// Result copy. Every reader must see the rotation an uncached middleware
// returns for the same request, and the cached plan must stay unwritten
// by the substitutions. Each round uses new constraints, so each round
// races the first read of a new plan.
func TestRacedFirstRotationRead(t *testing.T) {
	cached, err := New()
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := New(Options{SelectionCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	const services = 8
	for _, mw := range []*Middleware{cached, uncached} {
		for _, c := range sharedDescCaps {
			for i := 0; i < services; i++ {
				if err := publishSharedDesc(mw, c.prefix, c.capability, i, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	acts := []string{"browse", "order", "pay"}
	const rounds, readersPerKind = 6, 2
	for round := 0; round < rounds; round++ {
		req := Request{Task: sharedDescTask,
			Constraints: []Constraint{{Property: "responseTime", Bound: float64(400 - 20*round)}}}
		ref, err := uncached.Compose(req)
		if err != nil {
			t.Fatal(err)
		}
		want := rotationIDs(ref, acts)
		if len(want["order"]) == 0 {
			t.Fatalf("round %d: empty order rotation", round)
		}
		first, err := cached.Compose(req)
		if err != nil {
			t.Fatal(err)
		}
		if first.SelectionStats().CacheHit {
			t.Fatalf("round %d: the first compose hit the plan cache", round)
		}
		bindings := first.Bindings()
		if !reflect.DeepEqual(bindings, ref.Bindings()) {
			t.Fatalf("round %d: cached bindings %v, uncached %v", round, bindings, ref.Bindings())
		}
		cached.SetDown(bindings["order"])

		start := make(chan struct{})
		var wg sync.WaitGroup
		errc := make(chan error, 3*readersPerKind)
		reader := func(read func(c *Composition) error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				c, err := cached.Compose(req)
				if err == nil && !c.SelectionStats().CacheHit {
					err = fmt.Errorf("round %d: a reader missed the plan cache", round)
				}
				if err == nil {
					err = read(c)
				}
				if err != nil {
					errc <- err
				}
			}()
		}
		for r := 0; r < readersPerKind; r++ {
			reader(func(c *Composition) error {
				if got := rotationIDs(c, acts); !reflect.DeepEqual(got, want) {
					return fmt.Errorf("round %d: Alternates read %v, want %v", round, got, want)
				}
				return nil
			})
			reader(func(c *Composition) error {
				rep, err := cached.Execute(context.Background(), c)
				if err != nil {
					return err
				}
				if rep.Substitutions != 1 {
					return fmt.Errorf("round %d: Execute made %d substitutions, want 1", round, rep.Substitutions)
				}
				if got := c.Bindings()["order"]; got != want["order"][0] {
					return fmt.Errorf("round %d: failover bound %s, want the rotation head %s", round, got, want["order"][0])
				}
				return nil
			})
			reader(func(c *Composition) error {
				if got := idsOf(c.runtime.Result().Alternates()); !reflect.DeepEqual(got, want) {
					return fmt.Errorf("round %d: Result copy holds %v, want %v", round, got, want)
				}
				return nil
			})
		}
		close(start)
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
		cached.SetUp(bindings["order"])

		again, err := cached.Compose(req)
		if err != nil {
			t.Fatal(err)
		}
		if !again.SelectionStats().CacheHit {
			t.Fatalf("round %d: the final compose missed the plan cache", round)
		}
		if got := again.Bindings(); !reflect.DeepEqual(got, bindings) {
			t.Fatalf("round %d: substitutions leaked into the cached bindings: %v, want %v", round, got, bindings)
		}
		if got := rotationIDs(again, acts); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: substitutions leaked into the cached rotation: %v, want %v", round, got, want)
		}
	}
}
