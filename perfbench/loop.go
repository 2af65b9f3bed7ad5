package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qasom"
	"qasom/internal/adapt"
	"qasom/internal/bpel"
	"qasom/internal/core"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/semantics"
	"qasom/internal/task"
)

// runner drives one measured run: the clients' closed loops over one
// middleware instance, cut into windows of equal wall time.
type runner struct {
	cfg      config
	sc       *scenario
	in       *instance
	ref      []decision     // expected decision per key (warm_compose, execute_adapt)
	results  []*core.Result // traced run: per-key inputs of the Clone/NewRuntime replays
	concepts [][]semantics.ConceptID
	sel      *core.Selector

	base  time.Time
	start int64 // measurement start, ns from base
	winNs int64
	nwin  int
	stop  atomic.Bool

	// seq orders provider writes for the churn_select liveness check:
	// a service is visible at most between its pub and wd sequence numbers.
	seq  atomic.Uint64
	live sync.Map // service ID -> *life

	clients []*client
}

// life is the visibility interval of one service, in write sequence
// numbers. pub is taken before Publish starts and wd after Withdraw
// returns, so the interval can only over-approximate visibility.
type life struct {
	capIdx int
	pub    uint64
	wd     atomic.Uint64 // 0 while published
}

// since is a monotonic clock reading in nanoseconds from base.
func since(base time.Time) int64 { return int64(time.Since(base)) }

func (r *runner) end() int64 { return r.start + int64(r.nwin)*r.winNs }

// tracedAt reports whether an operation starting at t is traced: the
// traced run alternates untraced and traced windows, so both see the
// same host conditions and their rate ratio is the tracing overhead.
func (r *runner) tracedAt(t int64) bool {
	return r.cfg.trace && t >= r.start && t < r.end() && ((t-r.start)/r.winNs)%2 == 1
}

func (r *runner) windowOf(t int64) int {
	if t < r.start {
		return -1
	}
	w := int((t - r.start) / r.winNs)
	if w >= r.nwin {
		return -1
	}
	return w
}

// window is one client's share of one measurement window.
type window struct {
	lat     []int64 // latencies (ns) of requests completed in the window
	writes  int
	writeNs int64
}

// accum is a running sum of durations.
type accum struct {
	ns int64
	n  int64
}

func (a *accum) add(ns int64)  { a.ns += ns; a.n++ }
func (a *accum) merge(o accum) { a.ns += o.ns; a.n += o.n }

// meanUs is the mean in microseconds (0 when nothing was recorded).
func (a accum) meanUs() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.n) / 1e3
}

// miss is one plan-cache miss as seen from outside: the key and the
// interval of the Compose call that missed.
type miss struct {
	key        int
	start, end int64
	untraced   bool
}

type slotState struct {
	svc qasom.Service
	gen int
}

// client is one closed-loop caller: it sends its next operation only
// after the previous one returned. Everything here is owned by the
// client's goroutine except done, which the coordinator samples.
type client struct {
	r    *runner
	id   int
	ops  []op
	wins []window
	done atomic.Uint64 // completed requests, sampled at window edges

	owned map[[2]int]*slotState // (capability, slot) -> current service
	down  string                // service this client last took down

	attempted, failed int
	failures          []string

	// Execute reports of measured executions (requests on execute_adapt,
	// traced replays elsewhere).
	executed, invocations, execFailures, substitutions int

	// Traced-run state.
	nextID   uint64
	spans    []span
	dropped  int
	acc      [numSpans]accum
	self     accum    // compose self time on cache hits
	noParse  [2]accum // compose minus every replayed child but parse, on hits: [inline, class]
	hitReqs  [2]int   // traced cache hits: [inline, class]
	traced   int
	misses   []miss
	epochBuf []uint64
}

const maxFailureNotes = 5

func (c *client) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < maxFailureNotes {
		c.failures = append(c.failures, fmt.Sprintf("client %d: ", c.id)+fmt.Sprintf(format, args...))
	}
}

func (c *client) loop() {
	for i := 0; !c.r.stop.Load(); i++ {
		o := c.ops[i%len(c.ops)]
		switch o.kind {
		case opWrite:
			c.write(o)
		case opFault:
			c.fault(o)
		default:
			c.request(int(o.key))
		}
	}
}

func (c *client) slot(o op) *slotState {
	k := [2]int{int(o.cap), int(o.slot)}
	st := c.owned[k]
	if st == nil {
		st = &slotState{svc: c.r.sc.writable()[o.cap].slots[o.slot]}
		c.owned[k] = st
	}
	return st
}

// write is one provider write: the slot's service is withdrawn and a
// replacement with fresh QoS is published.
func (c *client) write(o op) {
	r := c.r
	st := c.slot(o)
	next := r.sc.replacement(r.cfg.seed, int(o.cap), int(o.slot), st.gen+1)
	c.attempted++
	t0 := since(r.base)
	ok := r.in.mw.Withdraw(st.svc.ID)
	t1 := since(r.base)
	if r.sc.hotWrites {
		if l, found := r.live.Load(st.svc.ID); found {
			l.(*life).wd.Store(r.seq.Add(1))
		}
		r.live.Store(next.ID, &life{capIdx: int(o.cap), pub: r.seq.Add(1)})
	}
	t2 := since(r.base)
	err := r.in.mw.Publish(next)
	t3 := since(r.base)
	if !ok {
		c.fail("withdraw %s: not published", st.svc.ID)
	}
	if err != nil {
		c.fail("publish %s: %v", next.ID, err)
	}
	st.svc = next
	st.gen++
	if w := r.windowOf(t3); w >= 0 {
		c.wins[w].writes++
		c.wins[w].writeNs += (t1 - t0) + (t3 - t2)
	}
	if r.tracedAt(t0) {
		id := c.newID()
		c.span(id, 0, id, spWrite, t0, t3, false)
		c.span(c.newID(), id, id, spWithdraw, t0, t1, false)
		c.span(c.newID(), id, id, spPublish, t2, t3, false)
	}
}

// fault takes the service a key binds at one activity down and brings
// back the one this client took down before.
func (c *client) fault(o op) {
	r := c.r
	target := r.ref[o.key].bindings[r.sc.keys[o.key].acts[o.act]]
	r.in.mw.SetDown(target)
	if c.down != "" && c.down != target {
		r.in.mw.SetUp(c.down)
	}
	c.down = target
}

// request is one Compose (and, on execute_adapt, Execute), timed from
// outside and checked after the clock stops.
func (c *client) request(k int) {
	r := c.r
	key := &r.sc.keys[k]
	c.attempted++
	s0 := r.seq.Load()
	t0 := since(r.base)
	comp, err := r.in.mw.Compose(key.req)
	t1 := since(r.base)
	s1 := r.seq.Load()
	if err != nil {
		c.fail("compose key %d: %v", k, err)
		c.finish(t1, t1-t0)
		return
	}
	// Hits and misses are only told apart in the traced run.
	hit := r.cfg.trace && comp.SelectionStats().CacheHit
	tc0 := since(r.base)
	c.check(k, comp, s0, s1)
	tc1 := since(r.base)
	end, lat := t1, t1-t0
	var te0 int64
	if r.sc.execute {
		te0, end = c.execute(k, comp, t0 >= r.start)
		lat += end - te0
	}
	c.finish(end, lat)
	traced := r.tracedAt(t0)
	if r.cfg.trace && !hit && t0 >= r.start {
		c.misses = append(c.misses, miss{key: k, start: t0, end: t1, untraced: !traced})
	}
	if !traced {
		return
	}
	sampled := c.traced%r.sc.sampleEvery == 0
	c.traced++
	id := c.newID()
	composeID := c.newID()
	c.span(id, 0, id, spRequest, t0, end, false)
	c.span(composeID, id, id, spCompose, t0, t1, false)
	c.span(c.newID(), id, id, spCheck, tc0, tc1, false)
	children, parse := c.replayCompose(k, id, composeID, sampled)
	if hit {
		class := 0
		if !key.inline {
			class = 1
		}
		c.self.add(t1 - t0 - children)
		c.noParse[class].add(t1 - t0 - (children - parse))
		c.hitReqs[class]++
	}
	if !r.sc.execute && !sampled {
		return
	}
	// Compose-only workloads replay Execute on the sampled requests, so
	// the execution layers are timed on every workload.
	execID := c.newID()
	if r.sc.execute {
		c.span(execID, id, id, spExecute, te0, end, false)
	} else {
		s, e := c.execute(k, comp, true)
		c.span(execID, id, id, spExecute, s, e, true)
	}
	if sampled {
		act := key.acts[(c.traced/r.sc.sampleEvery)%len(key.acts)]
		s := since(r.base)
		_, _ = comp.Substitute(act) // an exhausted alternate list is a valid answer
		c.span(c.newID(), execID, id, spSubstitute, s, since(r.base), true)
	}
}

// execute runs a composition and checks that it completed; measured
// executions feed the per-request execution counts.
func (c *client) execute(k int, comp *qasom.Composition, measured bool) (start, end int64) {
	r := c.r
	start = since(r.base)
	rep, err := r.in.mw.Execute(context.Background(), comp)
	end = since(r.base)
	switch {
	case err != nil:
		c.fail("execute key %d: %v", k, err)
	case !rep.Completed:
		c.fail("execute key %d: not completed", k)
	}
	if rep != nil && measured {
		c.executed++
		c.invocations += rep.Invocations
		c.execFailures += rep.Failures
		c.substitutions += rep.Substitutions
	}
	return start, end
}

// finish files a completed request under the window it completed in.
func (c *client) finish(end, lat int64) {
	if w := c.r.windowOf(end); w >= 0 {
		c.wins[w].lat = append(c.wins[w].lat, lat)
	}
	c.done.Add(1)
}

// check is the correctness gate for one answer.
func (c *client) check(k int, comp *qasom.Composition, s0, s1 uint64) {
	r := c.r
	if r.ref != nil {
		if got := decisionOf(comp); !got.equal(r.ref[k]) {
			c.fail("key %d: decision %v, reference %v", k, got, r.ref[k])
		}
		return
	}
	// churn_select: every binding names a service of the activity's
	// capability that was published at some point during the request.
	key := &r.sc.keys[k]
	for act, id := range comp.Bindings() {
		want, ok := key.capIdx[act]
		if !ok {
			c.fail("key %d: binding for unknown activity %q", k, act)
			continue
		}
		l, found := r.live.Load(id)
		if !found {
			c.fail("key %d: %s bound to unknown service %s", k, act, id)
			continue
		}
		lf := l.(*life)
		wd := lf.wd.Load()
		switch {
		case lf.capIdx != want:
			c.fail("key %d: %s bound to %s of the wrong capability", k, act, id)
		case lf.pub > s1 || (wd != 0 && wd <= s0):
			c.fail("key %d: %s bound to %s, which was not published during the request", k, act, id)
		}
	}
}

// replayCompose re-runs, right after a traced Compose, the public
// functions of the layers inside it on the same input, as child spans
// of the compose span. It returns the summed duration of the children
// that a cache hit executes, and the parse share of it.
func (c *client) replayCompose(k int, reqID, composeID uint64, sampled bool) (children, parse int64) {
	r := c.r
	key := &r.sc.keys[k]
	if key.inline {
		s := since(r.base)
		if _, err := bpel.ParseString(key.doc); err != nil {
			c.fail("replay parse key %d: %v", k, err)
		}
		e := since(r.base)
		c.span(c.newID(), composeID, reqID, spParse, s, e, true)
		parse = e - s
	}
	s := since(r.base)
	c.epochBuf = r.in.reg.CapabilityEpochs(c.epochBuf[:0], r.concepts[k]...)
	e := since(r.base)
	c.span(c.newID(), composeID, reqID, spEpochs, s, e, true)
	children = parse + e - s
	s = since(r.base)
	res := r.results[k].Clone()
	e = since(r.base)
	c.span(c.newID(), composeID, reqID, spClone, s, e, true)
	children += e - s
	s = since(r.base)
	_ = adapt.NewRuntime(key.core, res)
	e = since(r.base)
	c.span(c.newID(), composeID, reqID, spNewRuntime, s, e, true)
	children += e - s
	if !sampled {
		return children, parse
	}
	gatherID := c.newID()
	src := &timedSource{c: c, parent: gatherID, req: reqID, reg: r.in.reg}
	s = since(r.base)
	cands, err := core.GatherCandidates(context.Background(), key.task, src, r.sc.ps)
	e = since(r.base)
	c.span(gatherID, composeID, reqID, spGather, s, e, true)
	if err != nil {
		c.fail("replay gather key %d: %v", k, err)
		return children, parse
	}
	selectID := c.newID()
	s = since(r.base)
	sel, err := r.sel.SelectContext(context.Background(), key.core, cands)
	e = since(r.base)
	c.span(selectID, composeID, reqID, spSelect, s, e, true)
	if err != nil {
		c.fail("replay select key %d: %v", k, err)
		return children, parse
	}
	// The selector reports its phase split; the phases run back to back.
	local, global := int64(sel.Stats.LocalDuration), int64(sel.Stats.GlobalDuration)
	c.span(c.newID(), selectID, reqID, spLocal, s, s+local, true)
	c.span(c.newID(), selectID, reqID, spGlobal, s+local, s+local+global, true)
	return children, parse
}

// timedSource is the registry as a core.CandidateSource whose every
// lookup is a registry.candidates span under the gather span.
type timedSource struct {
	c           *client
	parent, req uint64
	reg         *registry.Registry
}

func (s *timedSource) CandidatesForActivity(a *task.Activity, ps *qos.PropertySet) []registry.Candidate {
	t0 := since(s.c.r.base)
	out := s.reg.CandidatesForActivity(a, ps)
	s.c.span(s.c.newID(), s.parent, s.req, spCandidates, t0, since(s.c.r.base), true)
	return out
}
