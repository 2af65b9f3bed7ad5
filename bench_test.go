// Benchmarks mirroring the paper's evaluation artefacts, one per table
// and figure (see DESIGN.md §4 for the index). `go test -bench=.
// -benchmem` reports the raw per-operation costs; the richer sweeps with
// optimality measurements live in cmd/qasombench / internal/bench.
package qasom_test

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"qasom"
	"qasom/internal/baseline"
	"qasom/internal/bench"
	"qasom/internal/bpel"
	"qasom/internal/core"
	"qasom/internal/graph"
	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/resilience"
	"qasom/internal/semantics"
	"qasom/internal/simenv"
	"qasom/internal/task"
	"qasom/internal/workload"
)

// benchInstance generates one selection problem.
func benchInstance(n, services, constraints int, shape workload.TaskShape,
	tight workload.Tightness, approach qos.Approach) (*core.Request, map[string][]registry.Candidate) {
	ps := qos.StandardSet()
	if constraints > ps.Len() {
		ps = qos.ExtendedSet()
	}
	g := workload.NewGenerator(1)
	laws := workload.DefaultLaws(ps)
	tk := g.Task("B", n, shape)
	cands := g.Candidates(tk, services, ps, laws)
	req := &core.Request{
		Task:        tk,
		Properties:  ps,
		Constraints: g.Constraints(tk, ps, laws, tight, constraints),
		Approach:    approach,
	}
	return req, cands
}

// BenchmarkAggregation covers Table IV.1: one full aggregation of a
// mixed-pattern task tree per iteration.
func BenchmarkAggregation(b *testing.B) {
	ps := qos.StandardSet()
	g := workload.NewGenerator(1)
	laws := workload.DefaultLaws(ps)
	tk := g.Task("Agg", 10, workload.ShapeMixed)
	assign := make(map[string]qos.Vector, tk.Size())
	for _, a := range tk.Activities() {
		assign[a.ID] = g.Vector(ps, laws)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := tk.AggregateQoS(ps, assign, qos.Pessimistic)
		if v[0] <= 0 {
			b.Fatal("degenerate aggregate")
		}
	}
}

// BenchmarkQASSA_Services covers Fig. VI.5(a).
func BenchmarkQASSA_Services(b *testing.B) {
	for _, services := range []int{10, 50, 100, 300} {
		b.Run(fmt.Sprintf("l=%d", services), func(b *testing.B) {
			req, cands := benchInstance(10, services, 3, workload.ShapeMixed,
				workload.AtMeanPlusSigma, qos.Pessimistic)
			sel := core.NewSelector(core.Options{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sel.Select(req, cands); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQASSA_Constraints covers Fig. VI.5(b).
func BenchmarkQASSA_Constraints(b *testing.B) {
	for _, c := range []int{1, 3, 5, 8} {
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			req, cands := benchInstance(10, 50, c, workload.ShapeMixed,
				workload.AtMeanPlusSigma, qos.Pessimistic)
			sel := core.NewSelector(core.Options{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sel.Select(req, cands); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQASSA_Aggregation covers Figs. VI.7/VI.8 (per-approach cost).
func BenchmarkQASSA_Aggregation(b *testing.B) {
	for _, approach := range qos.Approaches() {
		b.Run(approach.String(), func(b *testing.B) {
			req, cands := benchInstance(10, 50, 3, workload.ShapeChoiceHeavy,
				workload.AtMeanPlusSigma, approach)
			sel := core.NewSelector(core.Options{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sel.Select(req, cands); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQASSA_Tightness covers Figs. VI.10/VI.11.
func BenchmarkQASSA_Tightness(b *testing.B) {
	for _, tight := range []workload.Tightness{workload.AtMean, workload.AtMeanPlusSigma} {
		b.Run(tight.String(), func(b *testing.B) {
			req, cands := benchInstance(10, 50, 3, workload.ShapeMixed, tight, qos.Pessimistic)
			sel := core.NewSelector(core.Options{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sel.Select(req, cands); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQASSA_RepairHeavy pins the global constraints at the
// workload mean (the tight Fig. VI.10 setting), forcing the global
// phase through repair swaps — each one an aggregated-QoS probe. This is
// the evaluation-kernel stress test: selection cost is dominated by
// probe evaluations, not by clustering.
func BenchmarkQASSA_RepairHeavy(b *testing.B) {
	for _, services := range []int{100, 300} {
		for _, naive := range []bool{false, true} {
			mode := "incremental"
			if naive {
				mode = "naive"
			}
			b.Run(fmt.Sprintf("l=%d/eval=%s", services, mode), func(b *testing.B) {
				req, cands := benchInstance(10, services, 3, workload.ShapeMixed,
					workload.AtMean, qos.Pessimistic)
				sel := core.NewSelector(core.Options{NaiveEvaluation: naive})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sel.Select(req, cands); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEvalProbe isolates one global-phase probe — swap one
// activity's candidate, re-check the constraint violation — on a
// 10-activity mixed tree. The incremental engine re-folds only the
// swapped leaf's root path; the naive route re-aggregates the whole tree
// through a fresh assignment map, exactly as the global phase did before
// the engine existed.
func BenchmarkEvalProbe(b *testing.B) {
	req, cands := benchInstance(10, 50, 3, workload.ShapeMixed,
		workload.AtMean, qos.Pessimistic)
	eval, err := core.NewEvaluator(req, cands)
	if err != nil {
		b.Fatal(err)
	}
	acts := req.Task.Activities()

	b.Run("incremental", func(b *testing.B) {
		eng, err := core.NewEvalEngine(eval, cands)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := i % eng.Activities()
			eng.Assign(a, i%eng.PoolSize(a))
			if v := eng.Violation(); v < 0 {
				b.Fatal("negative violation")
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		assign := make(core.Assignment, len(acts))
		for _, a := range acts {
			assign[a.ID] = cands[a.ID][0]
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := acts[i%len(acts)]
			assign[a.ID] = cands[a.ID][i%len(cands[a.ID])]
			if v := eval.Violation(assign); v < 0 {
				b.Fatal("negative violation")
			}
		}
	})
}

// BenchmarkParetoProbe isolates one vector probe — what a candidate
// swap would do to the whole aggregated QoS vector, not just the scalar
// violation — against the committed-swap scalar probe of
// BenchmarkEvalProbe. Both refold only the swapped leaf's root path;
// the probe budget is zero allocations (the caller owns the buffer).
func BenchmarkParetoProbe(b *testing.B) {
	req, cands := benchInstance(10, 50, 3, workload.ShapeMixed,
		workload.AtMean, qos.Pessimistic)
	eval, err := core.NewEvaluator(req, cands)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEvalEngine(eval, cands)
	if err != nil {
		b.Fatal(err)
	}
	buf := req.Properties.NewVector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := i % eng.Activities()
		buf = eng.ProbeVector(a, i%eng.PoolSize(a), buf)
		if buf[0] <= 0 {
			b.Fatal("degenerate probe vector")
		}
	}
}

// BenchmarkParetoSelect measures the Pareto-front selection mode in both
// regimes: exact enumeration on a small instance (pool product under the
// exhaustive bound) and the archive-guided sweep on a QASSA-sized one.
// The front-size metric documents how much of the cost is archive
// maintenance versus probing.
func BenchmarkParetoSelect(b *testing.B) {
	for _, mode := range []struct {
		name           string
		acts, services int
	}{
		{"regime=exhaustive", 5, 4},
		{"regime=sweep", 10, 50},
	} {
		b.Run(mode.name, func(b *testing.B) {
			req, cands := benchInstance(mode.acts, mode.services, 3,
				workload.ShapeMixed, workload.AtMeanPlusSigma, qos.Pessimistic)
			req.Objectives = []string{"responseTime", "price"}
			sel := core.NewSelector(core.Options{ParetoMode: true})
			b.ReportAllocs()
			b.ResetTimer()
			var frontSum int
			for i := 0; i < b.N; i++ {
				res, err := sel.Select(req, cands)
				if err != nil {
					b.Fatal(err)
				}
				frontSum += res.Stats.FrontSize
			}
			b.ReportMetric(float64(frontSum)/float64(b.N), "front-size")
		})
	}
}

// BenchmarkQASSA_Distributed covers Fig. VI.12 (in-process transport, no
// artificial link latency so the benchmark measures computation).
func BenchmarkQASSA_Distributed(b *testing.B) {
	req, cands := benchInstance(10, 50, 3, workload.ShapeMixed,
		workload.AtMeanPlusSigma, qos.Pessimistic)
	devices := make(map[string]core.LocalSelector, len(cands))
	for id, list := range cands {
		dev := core.NewDeviceNode("dev-"+id, 0)
		dev.Host(id, list)
		devices[id] = dev
	}
	sel := core.NewDistributedSelector(core.Options{}, devices)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sel.Select(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributedChurn measures availability-under-churn: 20% of
// the coordinator devices are failed (drop every exchange), every
// activity has two replicas, and the requester's registry view backs the
// degraded fallback. Each iteration must still return a selection —
// retries rescue activities with a live replica, fallback rescues the
// rest — so ns/op is the price of selecting through coordinator failure.
func BenchmarkDistributedChurn(b *testing.B) {
	req, cands := benchInstance(10, 50, 3, workload.ShapeMixed,
		workload.AtMeanPlusSigma, qos.Pessimistic)
	fi := simenv.NewFaultInjector(1)
	replicas := make(map[string][]core.Transport, len(cands))
	var peers []string
	for _, a := range req.Task.Activities() {
		primary := core.NewDeviceNode("primary-"+a.ID, 0)
		primary.Host(a.ID, cands[a.ID])
		secondary := core.NewDeviceNode("secondary-"+a.ID, 0)
		secondary.Host(a.ID, cands[a.ID])
		replicas[a.ID] = []core.Transport{
			fi.Wrap(&core.InProcessTransport{Name: primary.Name, Selector: primary}),
			fi.Wrap(&core.InProcessTransport{Name: secondary.Name, Selector: secondary}),
		}
		peers = append(peers, primary.Name, secondary.Name)
	}
	for i := 0; i < len(peers)/5; i++ { // 20% of the coordinators down
		fi.Set(peers[i], simenv.Fault{DropProb: 1})
	}
	sel := core.NewResilientDistributedSelector(core.Options{}, replicas, core.DistConfig{
		Policy: resilience.Policy{
			MaxAttempts: 3,
			BaseBackoff: 100 * time.Microsecond,
			MaxBackoff:  time.Millisecond,
		},
		Fallback: cands,
	})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sel.Select(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Assignment) != len(replicas) {
			b.Fatalf("incomplete selection under churn: %d of %d activities",
				len(res.Assignment), len(replicas))
		}
	}
}

// BenchmarkQASSA_LocalPhaseWorkers compares the sequential (1 worker)
// and parallel (GOMAXPROCS workers) centralized local phase on a large
// instance (20 activities × 500 candidates). Selections are identical
// for every worker count. The custom local-ns/op metric isolates the
// local phase from the (identical) global-phase cost included in ns/op.
func BenchmarkQASSA_LocalPhaseWorkers(b *testing.B) {
	req, cands := benchInstance(20, 500, 3, workload.ShapeMixed,
		workload.AtMeanPlusSigma, qos.Pessimistic)
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	seen := make(map[int]bool, len(counts))
	for _, workers := range counts {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sel := core.NewSelector(core.Options{Workers: workers})
			b.ReportAllocs()
			b.ResetTimer()
			var localNS int64
			for i := 0; i < b.N; i++ {
				res, err := sel.Select(req, cands)
				if err != nil {
					b.Fatal(err)
				}
				localNS += int64(res.Stats.LocalDuration)
			}
			b.ReportMetric(float64(localNS)/float64(b.N), "local-ns/op")
		})
	}
}

// BenchmarkQASSA_Telemetry compares the selection path without a hub in
// the context (every span/metric handle is a nil no-op) against the
// fully instrumented path (spans recorded, counters and histograms
// updated) — the overhead budget of the telemetry layer.
func BenchmarkQASSA_Telemetry(b *testing.B) {
	req, cands := benchInstance(10, 50, 3, workload.ShapeMixed,
		workload.AtMeanPlusSigma, qos.Pessimistic)
	sel := core.NewSelector(core.Options{})
	for _, mode := range []struct {
		name string
		ctx  context.Context
	}{
		{"off", context.Background()},
		{"on", obs.WithHub(context.Background(), obs.NewHub())},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sel.SelectContext(mode.ctx, req, cands); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRegistryCandidates measures the capability-indexed candidate
// lookup on a 5000-service registry spread over 50 capabilities (100
// matching descriptions per lookup).
func BenchmarkRegistryCandidates(b *testing.B) {
	const services = 5000
	const capabilities = 50
	ps := qos.StandardSet()
	build := func() (*registry.Registry, []semantics.ConceptID) {
		onto := semantics.PervasiveWithScenarios()
		caps := make([]semantics.ConceptID, capabilities)
		for i := range caps {
			caps[i] = semantics.ConceptID(fmt.Sprintf("BenchCap%02d", i))
			if err := onto.AddConcept(caps[i], semantics.BookSale); err != nil {
				b.Fatal(err)
			}
		}
		r := registry.New(onto)
		for i := 0; i < services; i++ {
			d := registry.Description{
				ID:      registry.ServiceID(fmt.Sprintf("s%04d", i)),
				Concept: caps[i%capabilities],
				Offers: []registry.QoSOffer{
					{Property: semantics.ResponseTime, Value: 40 + float64(i%100)},
					{Property: semantics.Price, Value: 5},
					{Property: semantics.Availability, Value: 0.95},
					{Property: semantics.Reliability, Value: 0.9},
					{Property: semantics.Throughput, Value: 40},
				},
			}
			if err := r.Publish(d); err != nil {
				b.Fatal(err)
			}
		}
		return r, caps
	}
	// The sub-benchmark name keys the recorded BENCH_qassa.json row.
	b.Run("indexed", func(b *testing.B) {
		r, caps := build()
		if got := r.Candidates(caps[0], ps); len(got) != services/capabilities {
			b.Fatalf("warm-up lookup returned %d candidates", len(got))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got := r.Candidates(caps[i%capabilities], ps)
			if len(got) != services/capabilities {
				b.Fatalf("lookup returned %d candidates", len(got))
			}
		}
	})
}

// BenchmarkExhaustiveBaseline shows the cost wall QASSA avoids
// (reference for Figs. VI.6/VI.8/VI.11; note the tiny instance).
func BenchmarkExhaustiveBaseline(b *testing.B) {
	req, cands := benchInstance(5, 10, 3, workload.ShapeMixed,
		workload.AtMeanPlusSigma, qos.Pessimistic)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.Exhaustive(req, cands, baseline.ExhaustiveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyBaseline is the thesis's low-cost comparison point.
func BenchmarkGreedyBaseline(b *testing.B) {
	req, cands := benchInstance(10, 50, 3, workload.ShapeMixed,
		workload.AtMeanPlusSigma, qos.Pessimistic)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.Greedy(req, cands); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBPELToGraph covers Fig. VI.13.
func BenchmarkBPELToGraph(b *testing.B) {
	for _, n := range []int{10, 100, 500} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := workload.NewGenerator(1)
			tk := g.Task("T", n, workload.ShapeMixed)
			doc, err := bpel.Marshal(tk)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				parsed, err := bpel.Parse(doc)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := graph.FromTask(parsed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHomeomorphism covers the Chapter V §7 matcher cost.
func BenchmarkHomeomorphism(b *testing.B) {
	onto := semantics.Scenarios()
	for _, n := range []int{8, 16, 24} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pattern := lineGraph(b, n, semantics.ShoppingService)
			host := interleavedHost(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, found, err := graph.FindHomeomorphism(pattern, host, graph.MatchOptions{Ontology: onto})
				if err != nil || !found {
					b.Fatalf("match failed: %v %v", found, err)
				}
			}
		})
	}
}

func lineGraph(b *testing.B, n int, concept semantics.ConceptID) *graph.Graph {
	b.Helper()
	nodes := make([]*task.Node, n)
	for i := range nodes {
		nodes[i] = task.NewActivity(&task.Activity{ID: fmt.Sprintf("p%d", i), Concept: concept})
	}
	tk := &task.Task{Name: "p", Concept: "C", Root: task.Sequence(nodes...)}
	g, err := graph.FromTask(tk)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func interleavedHost(b *testing.B, n int) *graph.Graph {
	b.Helper()
	nodes := make([]*task.Node, 2*n)
	for i := range nodes {
		c := semantics.ShoppingService
		if i%2 == 1 {
			c = semantics.NotifyService
		}
		nodes[i] = task.NewActivity(&task.Activity{ID: fmt.Sprintf("h%d", i), Concept: c})
	}
	tk := &task.Task{Name: "h", Concept: "C", Root: task.Sequence(nodes...)}
	g, err := graph.FromTask(tk)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkAdaptation measures one substitution-driven recovery through
// the public API (Ch. V end-to-end).
func BenchmarkAdaptation(b *testing.B) {
	mw := newBenchMall(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		comp, err := mw.Compose(qasom.Request{Task: benchTask})
		if err != nil {
			b.Fatal(err)
		}
		victim := comp.Bindings()["order"]
		mw.SetDown(victim)
		b.StartTimer()
		report, err := mw.Execute(context.Background(), comp)
		if err != nil {
			b.Fatal(err)
		}
		if !report.Completed || report.Substitutions == 0 {
			b.Fatalf("recovery failed: %+v", report)
		}
		b.StopTimer()
		mw.SetUp(victim)
		b.StartTimer()
	}
}

const benchTask = `<process name="bench-shopping" concept="Shopping">
  <sequence>
    <invoke activity="browse" concept="BrowseCatalog"/>
    <invoke activity="order" concept="OrderItem"/>
    <invoke activity="pay" concept="Payment"/>
  </sequence>
</process>`

func newBenchMall(b *testing.B) *qasom.Middleware {
	b.Helper()
	return newBenchMallWith(b, qasom.Options{})
}

func newBenchMallWith(b *testing.B, opts qasom.Options) *qasom.Middleware {
	b.Helper()
	mw, err := qasom.New(opts)
	if err != nil {
		b.Fatal(err)
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
				b.Fatal(err)
			}
		}
	}
	return mw
}

// BenchmarkFailover measures one service-death recovery per iteration
// at ℓ=300 with 50-candidate alternate sets, 80% of them dead (60%
// withdrawn, 20% health-demoted — the prefix every failover must get
// past). ns/op is the whole steady-state round (kill the binding,
// substitute, redeploy); the sub-p50-us/sub-p99-us metrics isolate the
// Substitute call itself. The sub-benchmark keeps the name
// mode=reactive so its committed budget in BENCH_qassa.json gates it.
func BenchmarkFailover(b *testing.B) {
	b.Run("mode=reactive", func(b *testing.B) {
		rig, err := bench.NewFailoverRig(bench.FailoverConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		res, err := rig.Rounds(b.N)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		b.ReportMetric(float64(res.P50)/float64(time.Microsecond), "sub-p50-us")
		b.ReportMetric(float64(res.P99)/float64(time.Microsecond), "sub-p99-us")
	})
}

// BenchmarkThroughput is the closed-loop serving benchmark: GOMAXPROCS
// concurrent clients compose the same task against one middleware with a
// warm selection-plan cache while the registry churns underneath (mostly
// unrelated capabilities, periodically one the task touches so epochs
// invalidate and a fresh selection runs). ns/op is the per-composition
// wall cost of the whole loop; the custom metrics report throughput,
// latency quantiles and the cache hit rate.
func BenchmarkThroughput(b *testing.B) {
	rig, err := bench.NewThroughputRig(bench.ThroughputConfig{
		Clients: runtime.GOMAXPROCS(0),
		Churn:   true,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := rig.Warm(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := rig.Run(b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(res.OpsPerSec, "ops/sec")
	b.ReportMetric(float64(res.P50)/float64(time.Millisecond), "p50-ms")
	b.ReportMetric(float64(res.P99)/float64(time.Millisecond), "p99-ms")
	b.ReportMetric(res.HitRate*100, "hit%")
	b.ReportMetric(res.SLOAttainment*100, "slo%")
}

// BenchmarkOpenLoop is the open-loop serving benchmark: arrivals are
// scheduled from a clock at a fixed rate (10k/s, constant process, no
// churn) and every latency is measured from the scheduled arrival — the
// coordinated-omission-safe regime. ns/op is pinned near the arrival
// period by construction, so the gated signal is B/op and allocs/op
// (the per-arrival cost of the whole open-loop path); the custom
// metrics report goodput, shed arrivals and the tail quantiles.
func BenchmarkOpenLoop(b *testing.B) {
	rig, err := bench.NewOpenLoopRig(bench.OpenLoopConfig{
		Rate:    10000,
		Process: bench.OpenLoopConstant,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := rig.Warm(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := rig.Run(b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(res.Achieved, "arrv/sec")
	b.ReportMetric(float64(res.Dropped), "ol-drops")
	b.ReportMetric(float64(res.P50)/float64(time.Microsecond), "ol-p50-us")
	b.ReportMetric(float64(res.P99)/float64(time.Microsecond), "ol-p99-us")
	b.ReportMetric(float64(res.P999)/float64(time.Microsecond), "ol-p999-us")
}

// BenchmarkComposeFacade measures the public-API composition path for
// one inline document composed over and over: after the first call
// (parse, registry resolution, QASSA) every iteration is the warm hit
// path of intern lookup, plan key, epoch probe, cache probe and wrap.
func BenchmarkComposeFacade(b *testing.B) {
	mw := newBenchMall(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp, err := mw.Compose(qasom.Request{
			Task:        benchTask,
			Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 300}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if !comp.Feasible() {
			b.Fatal("should be feasible")
		}
	}
}

// BenchmarkComposeMiss measures a plan-cache miss served by the
// local-phase memo: one inline document alternates between two
// constraint sets under a one-entry plan cache, so every call evicts
// the other's plan and misses, while every activity's candidates and
// ranked shortlist come from the memo. What remains is the epoch
// snapshot, the memo probes, the evaluator build and the global phase.
func BenchmarkComposeMiss(b *testing.B) {
	mw := newBenchMallWith(b, qasom.Options{SelectionCacheSize: 1})
	reqs := [2]qasom.Request{
		{Task: benchTask, Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 300}}},
		{Task: benchTask, Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 250}}},
	}
	for _, req := range reqs {
		if _, err := mw.Compose(req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp, err := mw.Compose(reqs[i%2])
		if err != nil {
			b.Fatal(err)
		}
		if comp.SelectionStats().CacheHit {
			b.Fatal("an alternating request should miss the one-entry plan cache")
		}
	}
}

// regOpsRig is one fully-populated store. BenchmarkRegistryOps reuses it
// across sub-benchmark invocations: Go re-enters each closure with a
// growing b.N, and the lookup/churn pair shares one population per size.
// Churn operations are publish-new/withdraw pairs, so the store's
// population is invariant between runs.
type regOpsRig struct {
	reg  *registry.Registry
	caps []semantics.ConceptID
}

func newRegistryOpsRig(b *testing.B, services int) *regOpsRig {
	b.Helper()
	const perCap = 50 // candidates per capability, matching the paper's mall density
	onto := semantics.PervasiveWithScenarios()
	caps := make([]semantics.ConceptID, services/perCap)
	for i := range caps {
		caps[i] = semantics.ConceptID(fmt.Sprintf("OpsCap%06d", i))
		if err := onto.AddConcept(caps[i], semantics.BookSale); err != nil {
			b.Fatal(err)
		}
	}
	reg := registry.NewStore(onto, registry.StoreOptions{}).Tenant(registry.DefaultTenant)
	for i := 0; i < services; i++ {
		err := reg.Publish(registry.Description{
			ID:      registry.ServiceID(fmt.Sprintf("svc-%07d", i)),
			Concept: caps[i%len(caps)],
			Offers: []registry.QoSOffer{
				{Property: semantics.ResponseTime, Value: 40 + float64(i%100)},
				{Property: semantics.Price, Value: 5},
				{Property: semantics.Availability, Value: 0.95},
				{Property: semantics.Reliability, Value: 0.9},
				{Property: semantics.Throughput, Value: 40},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return &regOpsRig{reg: reg, caps: caps}
}

// BenchmarkRegistryOps measures raw registry throughput: concurrent
// capability lookups and publish/withdraw churn from 4 goroutines per
// CPU against 100k- and 1M-service stores. Rigs are built lazily inside
// each sub-benchmark so a -bench filter (the benchcmp gate takes only
// the n=100k sizes) never pays for the 1M populations. Each size's rig
// lives only for its own iteration of the size loop, so the 100k store
// is garbage before the 1M one is built and nothing outlives the
// benchmark.
func BenchmarkRegistryOps(b *testing.B) {
	ps := qos.StandardSet()
	var churnSeq atomic.Int64
	for _, size := range []struct {
		label string
		n     int
	}{{"100k", 100_000}, {"1M", 1_000_000}} {
		suffix := "n=" + size.label
		var cached *regOpsRig
		sizeRig := func(b *testing.B) *regOpsRig {
			if cached == nil {
				cached = newRegistryOpsRig(b, size.n)
			}
			return cached
		}
		b.Run("op=lookup/"+suffix, func(b *testing.B) {
			rig := sizeRig(b)
			if got := rig.reg.Candidates(rig.caps[0], ps); len(got) == 0 {
				b.Fatal("warm-up lookup found no candidates")
			}
			b.ReportAllocs()
			b.SetParallelism(4)
			var next, empty atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1)
					if got := rig.reg.Candidates(rig.caps[int(i)%len(rig.caps)], ps); len(got) == 0 {
						empty.Add(1)
					}
				}
			})
			b.StopTimer()
			if empty.Load() != 0 {
				b.Fatalf("%d lookups found no candidates", empty.Load())
			}
		})
		b.Run("op=churn/"+suffix, func(b *testing.B) {
			rig := sizeRig(b)
			b.ReportAllocs()
			b.SetParallelism(4)
			var failed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := churnSeq.Add(1)
					id := registry.ServiceID(fmt.Sprintf("churn-%d", i))
					err := rig.reg.Publish(registry.Description{
						ID:      id,
						Concept: rig.caps[int(i)%len(rig.caps)],
						Offers: []registry.QoSOffer{
							{Property: semantics.ResponseTime, Value: 30},
							{Property: semantics.Price, Value: 4},
							{Property: semantics.Availability, Value: 0.96},
							{Property: semantics.Reliability, Value: 0.92},
							{Property: semantics.Throughput, Value: 45},
						},
					})
					if err != nil || !rig.reg.Withdraw(id) {
						failed.Add(1)
					}
				}
			})
			b.StopTimer()
			if failed.Load() != 0 {
				b.Fatalf("%d churn cycles failed", failed.Load())
			}
		})
	}
}
