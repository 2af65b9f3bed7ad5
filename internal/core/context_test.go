package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"qasom/internal/qos"
)

func TestSelectContextCancelled(t *testing.T) {
	tk := seqTask("a", "b", "c")
	cands := genCandidates(tk, 20)
	req := &Request{
		Task:        tk,
		Properties:  twoProps(),
		Constraints: qos.Constraints{{Property: "rt", Bound: 80}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := NewSelector(Options{}).SelectContext(ctx, req, cands)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SelectContext on cancelled ctx = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled select took %v, want prompt return", elapsed)
	}
}

func TestSelectContextDeadlineMidSelection(t *testing.T) {
	// A deadline that expires while the global phase runs: the selection
	// must surface DeadlineExceeded from a level/repair boundary rather
	// than running to completion.
	tk := seqTask("a", "b", "c", "d", "e", "f", "g", "h")
	cands := genCandidates(tk, 60)
	req := &Request{
		Task:        tk,
		Properties:  twoProps(),
		Constraints: qos.Constraints{{Property: "rt", Bound: 1}}, // infeasible: maximum repair work
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	_, err := NewSelector(Options{}).SelectContext(ctx, req, cands)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SelectContext past deadline = %v, want context.DeadlineExceeded", err)
	}
}

func TestSelectDeterministicAcrossWorkerCounts(t *testing.T) {
	tk := seqTask("a", "b", "c", "d", "e")
	cands := genCandidates(tk, 40)
	req := &Request{
		Task:        tk,
		Properties:  twoProps(),
		Constraints: qos.Constraints{{Property: "rt", Bound: 200}},
	}
	fingerprint := func(workers int, seed int64) string {
		res, err := NewSelector(Options{Workers: workers, Seed: seed}).Select(req, cands)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Stats.Workers != workers && !(workers == 0 && res.Stats.Workers == runtime.GOMAXPROCS(0)) {
			t.Errorf("Stats.Workers = %d, want %d", res.Stats.Workers, workers)
		}
		out := ""
		for _, a := range tk.Activities() {
			out += fmt.Sprintf("%s=%s;alts=[", a.ID, res.Assignment[a.ID].Service.ID)
			for _, alt := range res.Alternates()[a.ID] {
				out += string(alt.Service.ID) + ","
			}
			out += "]\n"
		}
		return out
	}
	for _, seed := range []int64{1, 7, 42} {
		sequential := fingerprint(1, seed)
		parallel := fingerprint(runtime.GOMAXPROCS(0), seed)
		if sequential != parallel {
			t.Errorf("seed %d: selections differ between 1 and %d workers:\nsequential:\n%s\nparallel:\n%s",
				seed, runtime.GOMAXPROCS(0), sequential, parallel)
		}
		if again := fingerprint(runtime.GOMAXPROCS(0), seed); again != parallel {
			t.Errorf("seed %d: repeated parallel run not reproducible", seed)
		}
	}
}

func TestLocalPhaseReportsOccupancy(t *testing.T) {
	tk := seqTask("a", "b", "c", "d")
	cands := genCandidates(tk, 30)
	req := &Request{Task: tk, Properties: twoProps()}
	res, err := NewSelector(Options{Workers: 2}).Select(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PeakWorkersBusy < 1 || res.Stats.PeakWorkersBusy > 2 {
		t.Errorf("PeakWorkersBusy = %d, want within [1,2]", res.Stats.PeakWorkersBusy)
	}
}

// TestSelectReusing supplies some activities' local results from an
// earlier run: the decision must equal a fresh selection, supplied
// results come back as they were given, and the pool occupancy counts
// only the activities left to cluster.
func TestSelectReusing(t *testing.T) {
	tk := seqTask("a", "b", "c", "d")
	cands := genCandidates(tk, 30)
	req := &Request{Task: tk, Properties: twoProps()}
	sel := NewSelector(Options{Workers: 2})
	fresh, all, err := sel.SelectReusing(context.Background(), req, cands, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("returned %d local results, want 4", len(all))
	}
	for _, c := range []struct {
		known    []string
		wantPeak int
	}{
		{[]string{"a", "b", "c", "d"}, 0},
		{[]string{"a", "b", "d"}, 1},
		{[]string{"a", "c"}, 2},
	} {
		known := make(map[string]*LocalResult, len(c.known))
		for _, id := range c.known {
			known[id] = all[id]
		}
		res, locals, err := sel.SelectReusing(context.Background(), req, cands, known)
		if err != nil {
			t.Fatal(err)
		}
		sameDecision(t, fresh, res)
		for id, lr := range known {
			if locals[id] != lr {
				t.Errorf("known %v: activity %s's supplied result was not returned as given", c.known, id)
			}
		}
		if len(locals) != 4 {
			t.Errorf("known %v: returned %d local results, want 4", c.known, len(locals))
		}
		// Two pooled activities may or may not overlap on the workers.
		got := res.Stats.PeakWorkersBusy
		if c.wantPeak < 2 && got != c.wantPeak || c.wantPeak == 2 && (got < 1 || got > 2) {
			t.Errorf("known %v: PeakWorkersBusy = %d, want %d", c.known, got, c.wantPeak)
		}
	}
}
