package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// short is a run small enough for a unit test: one set-up, a second of
// quarter-second windows.
func short(workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     3,
		seconds:  1,
		trace:    trace,
		window:   250 * time.Millisecond,
		warmup:   100 * time.Millisecond,
		setups:   1,
	}
}

func mustRun(t *testing.T, cfg config) *outcome {
	t.Helper()
	out, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatalf("run %s trace=%v: %v", cfg.workload, cfg.trace, err)
	}
	return out
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestEveryBenchmarkMetricIsEmitted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(specs))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			out := mustRun(t, short(w.Name, trace))
			if !out.result.Correct || out.result.Failed != 0 || out.result.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace,
					out.result.Correct, out.result.Attempted, out.result.Failed)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(out.result.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(out.result.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.result.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

func TestSpansOfARequestShareItsID(t *testing.T) {
	for _, w := range []string{"warm_compose", "execute_adapt"} {
		out := mustRun(t, short(w, true))
		byID := make(map[uint64]span)
		for _, c := range out.clients {
			for _, s := range c.spans {
				byID[s.id] = s
			}
		}
		if len(byID) == 0 {
			t.Fatalf("%s: no spans recorded", w)
		}
		roots := 0
		for _, s := range byID {
			if s.parent == 0 {
				roots++
				if s.req != s.id {
					t.Errorf("%s: root span %s has request id %x, want its own id %x", w, spanNames[s.name], s.req, s.id)
				}
				continue
			}
			p, ok := byID[s.parent]
			if !ok {
				t.Errorf("%s: span %s has unknown parent %x", w, spanNames[s.name], s.parent)
				continue
			}
			if p.req != s.req {
				t.Errorf("%s: span %s belongs to request %x, its parent %s to %x", w, spanNames[s.name], s.req, spanNames[p.name], p.req)
			}
		}
		if roots == 0 {
			t.Errorf("%s: no root spans", w)
		}
	}
}

func TestReplaySpansAreChildrenOfTheirFacadeSpan(t *testing.T) {
	wantParent := map[int]int{
		spParse:      spCompose,
		spEpochs:     spCompose,
		spClone:      spCompose,
		spNewRuntime: spCompose,
		spGather:     spCompose,
		spSelect:     spCompose,
		spCandidates: spGather,
		spLocal:      spSelect,
		spGlobal:     spSelect,
		spSubstitute: spExecute,
	}
	seen := make(map[int]int)
	for _, w := range []string{"warm_compose", "execute_adapt"} {
		out := mustRun(t, short(w, true))
		byID := make(map[uint64]span)
		for _, c := range out.clients {
			for _, s := range c.spans {
				byID[s.id] = s
			}
		}
		for _, s := range byID {
			want, isReplay := wantParent[int(s.name)]
			if s.name == spExecute {
				// Execute is the request's own call on execute_adapt and a
				// sampled replay on the compose-only workloads.
				if s.replay == (w == "execute_adapt") || byID[s.parent].name != spRequest {
					t.Errorf("%s: execute span replay=%v under %s", w, s.replay, spanNames[byID[s.parent].name])
				}
				continue
			}
			if s.replay != isReplay {
				t.Errorf("%s: span %s replay=%v, want %v", w, spanNames[s.name], s.replay, isReplay)
			}
			if !isReplay {
				continue
			}
			seen[int(s.name)]++
			if p := byID[s.parent]; int(p.name) != want {
				t.Errorf("%s: replay span %s has parent %s, want %s", w, spanNames[s.name], spanNames[p.name], spanNames[want])
			}
		}
	}
	for name := range wantParent {
		if seen[name] == 0 {
			t.Errorf("no %s replay span recorded", spanNames[name])
		}
	}
}

func TestCorruptedReferenceCountsAsFailed(t *testing.T) {
	cfg := short("warm_compose", false)
	cfg.corrupt = func(ref []decision) {
		for k := range ref {
			for act := range ref[k].bindings {
				ref[k].bindings[act] = "no-such-service"
				break
			}
		}
	}
	out := mustRun(t, cfg)
	if out.result.Correct || out.result.Failed == 0 {
		t.Fatalf("corrupted reference: correct=%v failed=%d of %d, want failures",
			out.result.Correct, out.result.Failed, out.result.Attempted)
	}
}

func TestSeedDrivesOnlyTheStream(t *testing.T) {
	for _, sp := range specs {
		a, err := newScenario(sp)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newScenario(sp)
		if err != nil {
			t.Fatal(err)
		}
		if a.populationDigest() != b.populationDigest() || a.keysDigest() != b.keysDigest() {
			t.Errorf("%s: population or key set is not fixed", sp.name)
		}
		same1, same2 := streamDigest(a.streams(7, 2)), streamDigest(b.streams(7, 2))
		if same1 != same2 {
			t.Errorf("%s: seed 7 gave stream digests %x and %x", sp.name, same1, same2)
		}
		s7, s8 := a.streams(7, 2), a.streams(8, 2)
		if streamDigest(s7) == streamDigest(s8) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", sp.name)
		}
		// Same shape: writes and faults sit at the same positions, and
		// every target is drawn from the same key set and population.
		for c := range s7 {
			for i := range s7[c] {
				if s7[c][i].kind != s8[c][i].kind {
					t.Fatalf("%s: op %d of client %d differs in kind across seeds", sp.name, i, c)
				}
				if int(s8[c][i].key) >= len(a.keys) || (s8[c][i].kind == opWrite && int(s8[c][i].slot) >= len(a.writable()[s8[c][i].cap].slots)) {
					t.Fatalf("%s: op %d of client %d targets outside the fixed inputs", sp.name, i, c)
				}
				if s8[c][i].kind == opWrite && int(s8[c][i].slot)%2 != c {
					t.Fatalf("%s: client %d writes slot %d it does not own", sp.name, c, s8[c][i].slot)
				}
			}
		}
	}
	out := mustRun(t, short("warm_compose", false))
	sc, err := newScenario(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	want := streamDigest(sc.streams(3, len(out.clients)))
	if got := out.validity["stream_digest"]; got != fmtDigest(want) {
		t.Errorf("run printed stream digest %v, want %s", got, fmtDigest(want))
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if code := cli([]string{"--workload", "nope", "--seconds", "1"}, io.Discard, io.Discard); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
}
