package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Probe fields: cumulative counters sampled at every window edge, so
// any window's (or set of windows') share is a difference.
const (
	pDone    = iota // requests completed by all clients
	pCPU            // process user+sys seconds
	pSteal          // host steal jiffies
	pJiffies        // host total jiffies
	pPlanHits
	pPlanMisses
	pPlanEvictions
	pPlanInvalidations
	pMonitorObs
	pIndexHits
	pFallbacks
	pFlightDropped
	pMatchHits
	pMatchMisses
	pGCCycles
	pAllocBytes
	pAllocObjects
	pGCCPU
	pTotalCPU
	pMutexWait
	numProbe
)

// hubCounters maps probe fields to the hub metric families they sum.
var hubCounters = map[string]int{
	"qasom_plan_cache_hits_total":                pPlanHits,
	"qasom_plan_cache_misses_total":              pPlanMisses,
	"qasom_plan_cache_evictions_total":           pPlanEvictions,
	"qasom_plan_cache_epoch_invalidations_total": pPlanInvalidations,
	"qasom_monitor_observations_total":           pMonitorObs,
	"qasom_adapt_failover_index_hits_total":      pIndexHits,
	"qasom_adapt_failover_fallbacks_total":       pFallbacks,
}

var runtimeSamples = map[string]int{
	"/gc/cycles/total:gc-cycles":        pGCCycles,
	"/gc/heap/allocs:bytes":             pAllocBytes,
	"/gc/heap/allocs:objects":           pAllocObjects,
	"/cpu/classes/gc/total:cpu-seconds": pGCCPU,
	"/cpu/classes/total:cpu-seconds":    pTotalCPU,
	"/sync/mutex/wait/total:seconds":    pMutexWait,
}

const schedLatencies = "/sched/latencies:seconds"

type probe struct {
	v     [numProbe]float64
	sched *metrics.Float64Histogram
}

func (r *runner) probe() probe {
	var p probe
	var done uint64
	for _, c := range r.clients {
		done += c.done.Load()
	}
	p.v[pDone] = float64(done)
	p.v[pCPU] = processCPU()
	p.v[pSteal], p.v[pJiffies] = hostSteal()
	for _, m := range r.in.hub.Metrics.Snapshot() {
		if i, ok := hubCounters[m.Name]; ok {
			for _, s := range m.Series {
				p.v[i] += s.Value
			}
		}
	}
	p.v[pFlightDropped] = float64(r.in.hub.Flight.Dropped())
	st := r.in.store.Ontology().Stats()
	p.v[pMatchHits], p.v[pMatchMisses] = float64(st.MatchHits), float64(st.MatchMisses)
	samples := make([]metrics.Sample, 0, len(runtimeSamples)+1)
	for name := range runtimeSamples {
		samples = append(samples, metrics.Sample{Name: name})
	}
	samples = append(samples, metrics.Sample{Name: schedLatencies})
	metrics.Read(samples)
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			p.v[runtimeSamples[s.Name]] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			p.v[runtimeSamples[s.Name]] = s.Value.Float64()
		case metrics.KindFloat64Histogram:
			p.sched = s.Value.Float64Histogram()
		}
	}
	return p
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return (tv(ru.Utime) + tv(ru.Stime)).Seconds()
}

// hostSteal reads the steal and total jiffies of the aggregate cpu line
// of /proc/stat; both are 0 where the file is unavailable.
func hostSteal() (steal, total float64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// histDelta is the per-bucket count difference b - a of two snapshots
// of one runtime histogram, accumulated into acc.
func histDelta(acc []uint64, a, b *metrics.Float64Histogram) []uint64 {
	if acc == nil {
		acc = make([]uint64, len(b.Counts))
	}
	for i := range b.Counts {
		acc[i] += b.Counts[i] - a.Counts[i]
	}
	return acc
}

// histQuantile returns the upper bucket bound below which a share q of
// the counts lie.
func histQuantile(counts []uint64, buckets []float64, q float64) float64 {
	var total uint64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	var seen uint64
	for i, n := range counts {
		seen += n
		if seen > rank {
			if math.IsInf(buckets[i+1], 1) {
				return buckets[i]
			}
			return buckets[i+1]
		}
	}
	return buckets[len(buckets)-1]
}
