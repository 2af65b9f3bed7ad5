// Mutex-profile assertion for the serving hot paths. The scale-out
// design promises that a warm plan-cache hit through Compose and the
// registry's candidate/epoch read paths acquire zero mutexes: reads go
// through atomically published snapshots (RCU-style capability lists,
// the plan cache's copy-on-write entry map, whose hits share the cached
// Result without copying it), so contention can only ever appear on the
// write/repair paths. This test turns the runtime mutex profiler
// on, hammers the warm paths from several goroutines, and fails if any
// contention sample's stack passes through a hot-path function.
package qasom_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"qasom"
	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/semantics"
)

// forbiddenHotPathFrames are the lock-free read paths: any mutex
// contention recorded inside them means a lock crept back in.
var forbiddenHotPathFrames = []string{
	"registry.(*Store).candidates",
	"registry.(*Store).collect",
	"registry.(*Store).capabilityEpochs",
	"registry.(*EpochProbe)",
	"qasom.(*planCache).get",
	"qasom.(*planCache).lookup",
	"qasom.(*genTable[...]).lookup",
}

func TestHotPathsAcquireNoMutexes(t *testing.T) {
	// Warm a middleware until the request is a plan-cache hit.
	mw, err := qasom.New(qasom.Options{Obs: obs.NewHub()})
	if err != nil {
		t.Fatal(err)
	}
	seedMall(t, mw)
	req := qasom.Request{Task: behaviourA,
		Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 300}}}
	if _, err := mw.Compose(req); err != nil {
		t.Fatal(err)
	}
	if c, err := mw.Compose(req); err != nil {
		t.Fatal(err)
	} else if !c.SelectionStats().CacheHit {
		t.Fatal("warm compose should be a plan-cache hit")
	}

	// Warm a direct store until the capability list is published.
	reg := registry.NewStore(semantics.PervasiveWithScenarios(),
		registry.StoreOptions{}).Tenant(registry.DefaultTenant)
	ps := qos.StandardSet()
	for i := 0; i < 12; i++ {
		err := reg.Publish(registry.Description{
			ID:      registry.ServiceID(fmt.Sprintf("hot-%d", i)),
			Concept: semantics.BookSale,
			Offers: []registry.QoSOffer{
				{Property: semantics.ResponseTime, Value: 40 + float64(i)},
				{Property: semantics.Price, Value: 5},
				{Property: semantics.Availability, Value: 0.95},
				{Property: semantics.Reliability, Value: 0.9},
				{Property: semantics.Throughput, Value: 40},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Candidates(semantics.BookSale, ps); len(got) != 12 {
		t.Fatalf("warm lookup returned %d candidates, want 12", len(got))
	}

	// Profile only the hammer phase: every mutex wait from here on is
	// sampled (fraction 1 = all contention events).
	prev := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(prev)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var epochs []uint64
			for i := 0; i < 300; i++ {
				if _, err := mw.Compose(req); err != nil {
					t.Error(err)
					return
				}
				if cands := reg.Candidates(semantics.BookSale, ps); len(cands) != 12 {
					t.Errorf("lookup returned %d candidates mid-hammer", len(cands))
					return
				}
				epochs = reg.CapabilityEpochs(epochs[:0], semantics.BookSale)
			}
		}()
	}
	wg.Wait()

	var recs []runtime.BlockProfileRecord
	n, _ := runtime.MutexProfile(nil)
	for {
		recs = make([]runtime.BlockProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MutexProfile(recs)
		if ok {
			recs = recs[:n]
			break
		}
	}
	for _, rec := range recs {
		frames := runtime.CallersFrames(rec.Stack())
		var stack []string
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		for _, fn := range stack {
			for _, bad := range forbiddenHotPathFrames {
				if strings.Contains(fn, bad) {
					t.Errorf("mutex contention inside hot path %s\nstack:\n  %s",
						bad, strings.Join(stack, "\n  "))
				}
			}
		}
	}
}
