package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
)

// Units of every metric the benchmark reports, by name.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"req_p50_us":       "us",
	"cpu_us_per_req":   "us",
	"alloc_kb_per_req": "KiB",
	"heap_inuse_mb":    "MiB",
	"write_us":         "us",
}

var perLayerUnits = map[string]string{
	"bpel.parse_us":                  "us",
	"bpel.parses_per_req":            "count",
	"registry.epochs_us":             "us",
	"core.clone_us":                  "us",
	"adapt.new_runtime_us":           "us",
	"qasom.compose_us":               "us",
	"qasom.compose_self_us":          "us",
	"plancache.hit_ratio":            "ratio",
	"plancache.invalidations_per_1k": "count",
	"plancache.evictions_per_1k":     "count",
	"plancache.dup_miss_ratio":       "ratio",
	"registry.candidates_us":         "us",
	"core.gather_us":                 "us",
	"semantics.match_hit_ratio":      "ratio",
	"core.select_us":                 "us",
	"core.local_us":                  "us",
	"core.global_us":                 "us",
	"registry.publish_us":            "us",
	"registry.withdraw_us":           "us",
	"qasom.execute_us":               "us",
	"qasom.substitute_us":            "us",
	"exec.invocations_per_req":       "count",
	"exec.failures_per_req":          "count",
	"monitor.observations_per_req":   "count",
	"adapt.substitutions_per_req":    "count",
	"adapt.index_hit_ratio":          "ratio",
	"adapt.fallbacks_per_1k":         "count",
	"obs.flight_dropped_per_1k":      "count",
	"runtime.gc_cpu_fraction":        "ratio",
	"runtime.gc_per_1k_req":          "count",
	"runtime.allocs_per_req":         "count",
	"runtime.mutex_wait_us_per_req":  "us",
	"runtime.sched_latency_p99_us":   "us",
	"harness.check_us":               "us",
	"harness.window_iqr_ratio":       "ratio",
	"trace.overhead_pct":             "%",
	"host.steal_pct":                 "%",
}

// windowStats are the per-window figures of a run.
type windowStats struct {
	rates, p50, p99, writeMean []float64
	requests, writes           int
	minCount                   int
}

// stats reduces the clients' windows; only windows for which keep
// returns true count.
func (r *runner) stats(keep func(w int) bool) windowStats {
	var s windowStats
	s.minCount = -1
	secs := float64(r.winNs) / 1e9
	var lat []int64
	for w := 0; w < r.nwin; w++ {
		if !keep(w) {
			continue
		}
		lat = lat[:0]
		writes, writeNs := 0, int64(0)
		for _, c := range r.clients {
			lat = append(lat, c.wins[w].lat...)
			writes += c.wins[w].writes
			writeNs += c.wins[w].writeNs
		}
		s.requests += len(lat)
		s.writes += writes
		if s.minCount < 0 || len(lat) < s.minCount {
			s.minCount = len(lat)
		}
		s.rates = append(s.rates, float64(len(lat))/secs)
		if len(lat) > 0 {
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			s.p50 = append(s.p50, float64(lat[len(lat)/2])/1e3)
			s.p99 = append(s.p99, float64(lat[int(0.99*float64(len(lat)-1))])/1e3)
		}
		if writes > 0 {
			s.writeMean = append(s.writeMean, float64(writeNs)/float64(writes)/1e3)
		}
	}
	return s
}

func all(int) bool { return true }

// endToEnd fills the end-to-end metrics of an untraced run.
// setup_s is filled by the caller once the set-ups after the run are
// done.
func (r *runner) endToEnd(probes []probe, out map[string]metric) windowStats {
	s := r.stats(all)
	first, last := probes[0].v, probes[len(probes)-1].v
	n := float64(s.requests)
	put := func(name string, v float64) { out[name] = metric{Value: v, Unit: endToEndUnits[name]} }
	put("req_p50_us", median(s.p50))
	put("cpu_us_per_req", (last[pCPU]-first[pCPU])*1e6/n)
	put("alloc_kb_per_req", (last[pAllocBytes]-first[pAllocBytes])/1024/n)
	put("write_us", median(s.writeMean))
	// Release the harness's own buffers before reading the heap, so
	// what remains is the middleware and the fixed inputs.
	for _, c := range r.clients {
		c.wins = nil
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	put("heap_inuse_mb", float64(ms.HeapInuse)/(1<<20))
	return s
}

// layerMetrics fills the per-layer metrics of a traced run. Counters of
// the program and of the Go runtime are taken over the untraced
// windows; span timings over the traced ones.
func (r *runner) layerMetrics(probes []probe, out map[string]metric) {
	put := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[name] = metric{Value: v, Unit: perLayerUnits[name]}
	}
	untraced := func(w int) bool { return w%2 == 0 }
	traced := func(w int) bool { return w%2 == 1 }

	var d [numProbe]float64
	var sched []uint64
	for w := 0; w < r.nwin; w += 2 {
		for i := range d {
			d[i] += probes[w+1].v[i] - probes[w].v[i]
		}
		sched = histDelta(sched, probes[w].sched, probes[w+1].sched)
	}
	perReq := func(i int) float64 { return d[i] / d[pDone] }
	put("plancache.hit_ratio", d[pPlanHits]/(d[pPlanHits]+d[pPlanMisses]))
	put("plancache.invalidations_per_1k", 1000*perReq(pPlanInvalidations))
	put("plancache.evictions_per_1k", 1000*perReq(pPlanEvictions))
	put("plancache.dup_miss_ratio", r.dupMissRatio())
	put("monitor.observations_per_req", perReq(pMonitorObs))
	put("adapt.index_hit_ratio", d[pIndexHits]/(d[pIndexHits]+d[pFallbacks]))
	put("adapt.fallbacks_per_1k", 1000*perReq(pFallbacks))
	put("obs.flight_dropped_per_1k", 1000*perReq(pFlightDropped))
	put("runtime.gc_cpu_fraction", d[pGCCPU]/d[pTotalCPU])
	put("runtime.gc_per_1k_req", 1000*perReq(pGCCycles))
	put("runtime.allocs_per_req", perReq(pAllocObjects))
	put("runtime.mutex_wait_us_per_req", 1e6*perReq(pMutexWait))
	put("runtime.sched_latency_p99_us", 1e6*histQuantile(sched, probes[0].sched.Buckets, 0.99))

	first, last := probes[0].v, probes[len(probes)-1].v
	hits, misses := last[pMatchHits]-first[pMatchHits], last[pMatchMisses]-first[pMatchMisses]
	put("semantics.match_hit_ratio", hits/(hits+misses))
	put("host.steal_pct", 100*(last[pSteal]-first[pSteal])/math.Max(1, last[pJiffies]-first[pJiffies]))

	us := r.stats(untraced)
	ts := r.stats(traced)
	put("harness.window_iqr_ratio", iqr(us.rates)/median(us.rates))
	put("trace.overhead_pct", 100*(1-median(ts.rates)/median(us.rates)))

	var acc [numSpans]accum
	var self accum
	var noParse [2]accum
	var hitReqs [2]int
	var executed, invocations, execFailures, substitutions int
	for _, c := range r.clients {
		for i := range acc {
			acc[i].merge(c.acc[i])
		}
		self.merge(c.self)
		noParse[0].merge(c.noParse[0])
		noParse[1].merge(c.noParse[1])
		hitReqs[0] += c.hitReqs[0]
		hitReqs[1] += c.hitReqs[1]
		executed += c.executed
		invocations += c.invocations
		execFailures += c.execFailures
		substitutions += c.substitutions
	}
	spanUs := map[string]int{
		"bpel.parse_us":        spParse,
		"registry.epochs_us":   spEpochs,
		"core.clone_us":        spClone,
		"adapt.new_runtime_us": spNewRuntime,
		"qasom.compose_us":     spCompose,
		"core.gather_us":       spGather,
		"core.select_us":       spSelect,
		"core.local_us":        spLocal,
		"core.global_us":       spGlobal,
		"registry.publish_us":  spPublish,
		"registry.withdraw_us": spWithdraw,
		"qasom.execute_us":     spExecute,
		"qasom.substitute_us":  spSubstitute,
		"harness.check_us":     spCheck,
	}
	for name, sp := range spanUs {
		put(name, acc[sp].meanUs())
	}
	put("qasom.compose_self_us", self.meanUs())
	put("registry.candidates_us", float64(acc[spCandidates].ns)/float64(acc[spGather].n)/1e3)
	// The facade parses inline documents and resolves registered names
	// without parsing; the difference of their hit costs, net of every
	// replayed layer but the parse, is the parse work Compose does.
	inlineShare := float64(hitReqs[0]) / float64(hitReqs[0]+hitReqs[1])
	put("bpel.parses_per_req", inlineShare*(noParse[0].meanUs()-noParse[1].meanUs())/acc[spParse].meanUs())
	put("exec.invocations_per_req", float64(invocations)/float64(executed))
	put("exec.failures_per_req", float64(execFailures)/float64(executed))
	put("adapt.substitutions_per_req", float64(substitutions)/float64(executed))
}

// dupMissRatio is the share of plan-cache misses in untraced windows
// whose Compose overlapped another miss on the same key.
func (r *runner) dupMissRatio() float64 {
	var all []miss
	for _, c := range r.clients {
		all = append(all, c.misses...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].key != all[j].key {
			return all[i].key < all[j].key
		}
		return all[i].start < all[j].start
	})
	var total, dup int
	for i, m := range all {
		if !m.untraced {
			continue
		}
		total++
		overlaps := false
		for j := i - 1; j >= 0 && all[j].key == m.key && !overlaps; j-- {
			overlaps = all[j].end > m.start
		}
		for j := i + 1; j < len(all) && all[j].key == m.key && all[j].start < m.end; j++ {
			overlaps = true
		}
		if overlaps {
			dup++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(dup) / float64(total)
}

// validity is printed beside the metrics of every run so that an
// outlier can be explained from its own output.
func (r *runner) validity(probes []probe, s windowStats, digest uint64, setupTimes setupTimes) map[string]any {
	first, last := probes[0].v, probes[len(probes)-1].v
	if s.rates == nil {
		s = r.stats(func(w int) bool { return !r.cfg.trace || w%2 == 0 })
	}
	tail := 0
	if s.minCount > 0 {
		tail = s.minCount / 100
	}
	// The request rate and p99 move with host steal by more than any
	// bound (README, Calibration), so they are reported here, not among
	// the gated metrics.
	return map[string]any{
		"workload":                 r.sc.name,
		"seed":                     r.cfg.seed,
		"clients":                  len(r.clients),
		"host.steal_pct":           100 * (last[pSteal] - first[pSteal]) / math.Max(1, last[pJiffies]-first[pJiffies]),
		"gc_count":                 last[pGCCycles] - first[pGCCycles],
		"harness.window_iqr_ratio": iqr(s.rates) / median(s.rates),
		"req_per_s":                median(s.rates),
		"req_p99_us":               median(s.p99),
		"window_rates":             s.rates,
		"windows":                  len(s.rates),
		"requests":                 s.requests,
		"writes":                   s.writes,
		"min_window_requests":      s.minCount,
		"p99_tail_samples_min":     tail,
		"window_steal_pct":         windowSteal(probes),
		"setup_s_samples":          setupTimes.cpu,
		"setup_wall_s_samples":     setupTimes.wall,
		"stream_digest":            fmtDigest(digest),
		"population_digest":        fmtDigest(r.sc.populationDigest()),
		"keys_digest":              fmtDigest(r.sc.keysDigest()),
	}
}

// windowSteal is the host steal of each window, in per cent.
func windowSteal(probes []probe) []float64 {
	out := make([]float64, 0, len(probes)-1)
	for w := 1; w < len(probes); w++ {
		a, b := probes[w-1].v, probes[w].v
		out = append(out, 100*(b[pSteal]-a[pSteal])/math.Max(1, b[pJiffies]-a[pJiffies]))
	}
	return out
}

func fmtDigest(d uint64) string { return fmt.Sprintf("%016x", d) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles follows Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := float64(i*(n+1)) / 4
		j := int(m)
		frac := m - float64(j)
		if j < 1 {
			j, frac = 1, 0
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(3)
}

func iqr(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return q3 - q1
}
