// Command qasomnode runs a standalone QASSA coordinator device: it hosts
// the candidate services of one or more activities (loaded from a JSON
// catalog) and serves the local selection phase over TCP, so a requester
// running the distributed selector (see core.TCPClient) can compose
// against a fleet of nodes — the ad hoc deployment of Fig. IV.4.
//
// Usage:
//
//	qasomnode -listen 127.0.0.1:9001 -catalog services.json [-latency 2ms] [-debug-addr 127.0.0.1:8080]
//
// With -debug-addr the node serves its telemetry over HTTP: /metrics
// (Prometheus text format, e.g. qasom_device_localselect_total),
// /healthz, /debug/spans, /debug/requests and /debug/pprof. Remote
// LocalSelect spans adopt the requester's trace ID from the wire, so a
// node's /debug/spans stitches into the requester's trace. The -slo
// flags attach a burn-rate engine: /healthz degrades to 503 when the
// fast-burn window exceeds its threshold.
//
// Catalog format (one entry per service):
//
//	[
//	  {"activity": "book", "id": "bookshop-1", "capability": "BookSale",
//	   "qos": {"responseTime": 80, "price": 6, "availability": 0.95,
//	           "reliability": 0.9, "throughput": 40}}
//	]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"qasom/internal/core"
	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/randx"
	"qasom/internal/registry"
	"qasom/internal/resilience"
	"qasom/internal/semantics"
)

// catalogEntry is one service in the JSON catalog.
type catalogEntry struct {
	Activity   string             `json:"activity"`
	ID         string             `json:"id"`
	Name       string             `json:"name"`
	Capability string             `json:"capability"`
	QoS        map[string]float64 `json:"qos"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		listen      = flag.String("listen", "127.0.0.1:0", "TCP address to serve LocalSelect on")
		catalog     = flag.String("catalog", "", "JSON catalog of hosted services (required)")
		name        = flag.String("name", "qasomnode", "device name (diagnostics)")
		latency     = flag.Duration("latency", 0, "simulated wireless round-trip added per request")
		debugAddr   = flag.String("debug-addr", "", "HTTP address for /metrics, /healthz, /debug/spans and /debug/pprof (empty: disabled)")
		idleTimeout = flag.Duration("idle-timeout", core.DefaultIdleTimeout, "per-connection read/write deadline (<=0: no deadline)")
		faultDrop   = flag.Float64("fault-drop", 0, "fault injection: probability of dropping a request without replying (the client sees a truncated exchange)")
		faultStall  = flag.Duration("fault-stall", 0, "fault injection: extra delay before every reply")
		faultSeed   = flag.Int64("fault-seed", 1, "fault injection: seed for the drop draws")
		sloTarget   = flag.Float64("slo-availability", 0, "SLO availability target in (0,1) for served LocalSelects (0: SLO engine disabled)")
		sloLatency  = flag.Duration("slo-latency", 50*time.Millisecond, "SLO per-request latency objective (with -slo-availability)")
	)
	flag.Parse()
	if *catalog == "" {
		fmt.Fprintln(os.Stderr, "qasomnode: -catalog is required")
		return 2
	}
	doc, err := os.ReadFile(*catalog)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var entries []catalogEntry
	if err := json.Unmarshal(doc, &entries); err != nil {
		fmt.Fprintf(os.Stderr, "qasomnode: bad catalog: %v\n", err)
		return 1
	}
	dev, count, err := buildDevice(*name, *latency, entries)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	hub := obs.Default()
	obs.RegisterBuildInfo(hub.Metrics)
	if *sloTarget > 0 {
		hub.SLO = obs.NewSLOEngine(obs.SLOConfig{
			Name:             "localselect",
			Availability:     *sloTarget,
			LatencyObjective: *sloLatency,
		}, hub.Metrics)
	}
	// The hub rides the serve context, so every LocalSelect handled by
	// the TCP server reports spans and counters into it.
	ctx = obs.WithHub(ctx, hub)
	if *debugAddr != "" {
		dbgAddr, stopDebug, err := obs.ServeDebug(ctx, *debugAddr, hub)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer stopDebug()
		fmt.Printf("qasomnode: debug endpoints on http://%s (/metrics /healthz /debug/spans /debug/pprof)\n", dbgAddr)
	}
	var sel core.LocalSelector = dev
	if *faultDrop > 0 || *faultStall > 0 {
		sel = &faultySelector{
			inner: dev,
			drop:  *faultDrop,
			stall: *faultStall,
			rng:   randx.New(*faultSeed),
		}
		fmt.Printf("qasomnode: fault injection enabled (drop=%.2f stall=%s seed=%d)\n",
			*faultDrop, *faultStall, *faultSeed)
	}
	if hub.SLO != nil {
		sel = &sloSelector{inner: sel, slo: hub.SLO}
		fmt.Printf("qasomnode: SLO engine enabled (availability=%.4f latency=%s)\n",
			*sloTarget, *sloLatency)
	}
	idle := *idleTimeout
	if idle <= 0 {
		idle = -1 // ServeTCPOptions: negative disables the deadline
	}
	addr, stop, err := core.ServeTCPOptions(ctx, *listen, sel, core.ServeOptions{IdleTimeout: idle})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stop()
	fmt.Printf("qasomnode %q serving %d services for activities %v on %s\n",
		*name, count, dev.Activities(), addr)
	<-ctx.Done()
	fmt.Println("qasomnode: shutting down")
	return 0
}

// faultySelector wraps the device's local phase with server-side fault
// injection: a drop makes the TCP server sever the connection without a
// reply (core.ErrDropExchange), so a remote requester exercises its
// retry/fallback path exactly as against a crashing coordinator; a stall
// delays the reply.
type faultySelector struct {
	inner core.LocalSelector
	drop  float64
	stall time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

func (f *faultySelector) LocalSelect(ctx context.Context, req core.LocalRequest) (*core.LocalResult, error) {
	f.mu.Lock()
	dropped := f.drop > 0 && f.rng.Float64() < f.drop
	f.mu.Unlock()
	if f.stall > 0 {
		if !resilience.Sleep(ctx, f.stall) {
			return nil, resilience.CauseErr(ctx)
		}
	}
	if dropped {
		return nil, core.ErrDropExchange
	}
	return f.inner.LocalSelect(ctx, req)
}

// sloSelector feeds every served LocalSelect into the node's SLO
// engine, so /healthz degrades when the error or latency budget burns
// too fast.
type sloSelector struct {
	inner core.LocalSelector
	slo   *obs.SLOEngine
}

func (s *sloSelector) LocalSelect(ctx context.Context, req core.LocalRequest) (*core.LocalResult, error) {
	start := time.Now()
	res, err := s.inner.LocalSelect(ctx, req)
	s.slo.Observe(time.Since(start), err)
	return res, err
}

// buildDevice converts catalog entries into a hosted DeviceNode. The
// standard property set names are accepted in qos keys, as are ontology
// concepts/aliases.
func buildDevice(name string, latency time.Duration, entries []catalogEntry) (*core.DeviceNode, int, error) {
	ps := qos.StandardSet()
	onto := semantics.PervasiveWithScenarios()
	dev := core.NewDeviceNode(name, latency)
	byActivity := make(map[string][]registry.Candidate)
	for i, e := range entries {
		if e.Activity == "" || e.ID == "" || e.Capability == "" {
			return nil, 0, fmt.Errorf("qasomnode: catalog entry %d needs activity, id and capability", i)
		}
		offers := make([]registry.QoSOffer, 0, len(e.QoS))
		for key, value := range e.QoS {
			concept := semantics.ConceptID(key)
			if j, ok := ps.Index(key); ok {
				concept = ps.At(j).Concept
			}
			offers = append(offers, registry.QoSOffer{Property: concept, Value: value})
		}
		desc := registry.Description{
			ID:      registry.ServiceID(e.ID),
			Name:    e.Name,
			Concept: semantics.ConceptID(e.Capability),
			Offers:  offers,
		}
		vec, err := desc.VectorFor(ps, onto)
		if err != nil {
			return nil, 0, fmt.Errorf("qasomnode: catalog entry %d (%s): %w", i, e.ID, err)
		}
		byActivity[e.Activity] = append(byActivity[e.Activity], registry.Candidate{
			Service: &desc, Vector: vec, Match: semantics.MatchExact,
		})
	}
	for act, cands := range byActivity {
		dev.Host(act, cands)
	}
	return dev, len(entries), nil
}
