package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"qasom"
	"qasom/internal/core"
	"qasom/internal/semantics"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is everything one run produced.
type outcome struct {
	result   result
	validity map[string]any
	clients  []*client // kept for tests (spans)
}

// run executes one benchmark invocation. Progress and diagnostics go to
// log; the caller prints the outcome.
func run(cfg config, log io.Writer) (*outcome, error) {
	sp, ok := specByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	sc, err := newScenario(sp)
	if err != nil {
		return nil, err
	}
	nclients := runtime.GOMAXPROCS(0)
	setups := cfg.setups
	if setups <= 0 {
		setups = sp.setups
	}
	streams := sc.streams(cfg.seed, nclients)

	// An untraced run makes half its set-ups before the measurement and
	// the rest after it, so that setup_s is not taken from one moment of
	// the host.
	before := setups
	if !cfg.trace {
		before = (setups + 1) / 2
	}
	var setupTimes setupTimes
	in, err := sc.setup(before, true, &setupTimes)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if in != nil {
			in.close()
		}
	}()

	if cfg.window <= 0 {
		cfg.window = sp.window
	}
	if cfg.warmup <= 0 {
		cfg.warmup = sp.warmup
	}
	r := &runner{cfg: cfg, sc: sc, in: in}
	r.winNs = int64(cfg.window)
	r.nwin = int((time.Duration(cfg.seconds)*time.Second + cfg.window - 1) / cfg.window)
	if cfg.trace && r.nwin < 2 {
		r.nwin = 2 // at least one untraced and one traced window
	}
	if !sc.hotWrites {
		if r.ref, err = sc.referenceDecisions(sc.initialPopulation()); err != nil {
			return nil, err
		}
	}
	if cfg.trace {
		r.sel = core.NewSelector(core.Options{Seed: middlewareSeed})
		if r.results, err = sc.replayResults(in, r.sel, r.ref); err != nil {
			return nil, err
		}
		r.concepts = make([][]semantics.ConceptID, len(sc.keys))
		for k := range sc.keys {
			r.concepts[k] = sc.keys[k].concepts()
		}
	}
	if cfg.corrupt != nil && r.ref != nil {
		cfg.corrupt(r.ref)
	}
	if sc.hotWrites {
		for ci, c := range sc.caps {
			for _, s := range c.slots {
				r.live.Store(s.ID, &life{capIdx: ci})
			}
		}
	}
	for i := 0; i < nclients; i++ {
		r.clients = append(r.clients, &client{
			r:     r,
			id:    i,
			ops:   streams[i],
			wins:  make([]window, r.nwin),
			owned: make(map[[2]int]*slotState),
		})
	}

	probes := r.measure(cfg.warmup)

	out := &outcome{clients: r.clients}
	res := &out.result
	res.Metrics = make(map[string]metric)
	for _, c := range r.clients {
		res.Attempted += c.attempted
		res.Failed += c.failed
	}
	var e2e windowStats
	if cfg.trace {
		r.layerMetrics(probes, res.Metrics)
	} else {
		e2e = r.endToEnd(probes, res.Metrics)
	}

	if sc.hotWrites {
		attempted, failed, err := r.finalCheck(log)
		if err != nil {
			return nil, err
		}
		res.Attempted += attempted
		res.Failed += failed
	}
	if !cfg.trace {
		// Drop the measured instance, so that the set-ups after the run
		// start from the same live heap as the ones before it.
		in.close()
		in, r.in = nil, nil
		if _, err := sc.setup(setups-before, false, &setupTimes); err != nil {
			return nil, fmt.Errorf("set-up after the run: %w", err)
		}
		res.Metrics["setup_s"] = metric{Value: median(setupTimes.cpu), Unit: endToEndUnits["setup_s"]}
	}
	fmt.Fprintf(log, "perfbench: %s seed=%d set-ups: CPU %v s, wall %v s\n", sc.name, cfg.seed, setupTimes.cpu, setupTimes.wall)
	out.validity = r.validity(probes, e2e, streamDigest(streams), setupTimes)
	res.Correct = res.Failed == 0
	for _, c := range r.clients {
		for _, f := range c.failures {
			fmt.Fprintln(log, "perfbench: FAILED", f)
		}
	}
	if cfg.trace && cfg.spans != "" {
		if err := writeSpans(cfg.spans, r.clients); err != nil {
			return nil, err
		}
		dropped := 0
		for _, c := range r.clients {
			dropped += c.dropped
		}
		fmt.Fprintf(log, "perfbench: spans written to %s (%d more not kept)\n", cfg.spans, dropped)
	}
	return out, nil
}

// measure runs the clients' closed loops: a warm-up, then nwin windows,
// sampling a probe at every window edge. It returns nwin+1 probes.
func (r *runner) measure(warmup time.Duration) []probe {
	runtime.GC()
	r.base = time.Now()
	r.start = int64(warmup)
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop()
		}(c)
	}
	probes := make([]probe, 0, r.nwin+1)
	for w := 0; w <= r.nwin; w++ {
		time.Sleep(time.Until(r.base.Add(time.Duration(r.start + int64(w)*r.winNs))))
		probes = append(probes, r.probe())
	}
	r.stop.Store(true)
	wg.Wait()
	return probes
}

// finalCheck recomposes every key after the run and compares each
// decision with an uncached reference middleware over the final
// population (churn_select).
func (r *runner) finalCheck(log io.Writer) (attempted, failed int, err error) {
	sc := r.sc
	caps := make([]capability, len(sc.caps))
	for ci, c := range sc.caps {
		caps[ci] = capability{concept: c.concept, slots: append([]qasom.Service(nil), c.slots...)}
	}
	for _, c := range r.clients {
		for k, st := range c.owned {
			caps[k[0]].slots[k[1]] = st.svc
		}
	}
	var pop []qasom.Service
	for _, c := range caps {
		pop = append(pop, c.slots...)
	}
	for _, c := range sc.idle {
		pop = append(pop, c.slots...)
	}
	ref, err := sc.referenceDecisions(pop)
	if err != nil {
		return 0, 0, err
	}
	for k := range sc.keys {
		attempted++
		comp, err := r.in.mw.Compose(sc.keys[k].req)
		if err != nil {
			failed++
			fmt.Fprintf(log, "perfbench: FAILED final compose key %d: %v\n", k, err)
			continue
		}
		if got := decisionOf(comp); !got.equal(ref[k]) {
			failed++
			fmt.Fprintf(log, "perfbench: FAILED final key %d: %v, reference %v\n", k, got, ref[k])
		}
	}
	return attempted, failed, nil
}
