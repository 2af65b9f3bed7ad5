package obs

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Hub bundles the telemetry backends one process (or one middleware
// instance) shares: the metrics registry, the span tracer, the
// per-request flight recorder, and (optionally) an SLO engine. Hubs
// travel through context.Context so every layer of the pipeline —
// candidate lookup, QASSA phases, execution, adaptation — reports into
// the same place without threading handles through every signature.
type Hub struct {
	Metrics *Registry
	Tracer  *Tracer
	// Flight records per-request decision records (see FlightRecorder);
	// nil disables recording.
	Flight *FlightRecorder
	// SLO, when non-nil, drives /healthz degradation on fast error-budget
	// burn (see SLOEngine).
	SLO *SLOEngine
}

// NewHub creates a hub with a fresh registry, tracer and flight
// recorder (no SLO engine — attach one explicitly).
func NewHub() *Hub {
	return &Hub{
		Metrics: NewRegistry(),
		Tracer:  NewTracer(0),
		Flight:  NewFlightRecorder(0),
	}
}

var defaultHub = NewHub()

// Default returns the process-wide hub. Middleware instances use it
// unless configured with their own, so command-line tools (qasomnode,
// qasombench) can expose one coherent /metrics for the whole process.
func Default() *Hub { return defaultHub }

type hubKey struct{}
type spanKey struct{}
type remoteKey struct{}

// WithHub attaches a hub to the context.
func WithHub(ctx context.Context, h *Hub) context.Context {
	return context.WithValue(ctx, hubKey{}, h)
}

// EnsureHub attaches h unless the context already carries a hub (a
// caller-supplied hub wins over the instance default).
func EnsureHub(ctx context.Context, h *Hub) context.Context {
	if HubFrom(ctx) != nil {
		return ctx
	}
	return WithHub(ctx, h)
}

// HubFrom returns the context's hub, or nil.
func HubFrom(ctx context.Context) *Hub {
	h, _ := ctx.Value(hubKey{}).(*Hub)
	return h
}

// --- trace identity ------------------------------------------------------

// idCounter seeds span/trace IDs: a process-unique monotonic counter
// seeded from the wall clock at start-up, passed through a splitmix64
// finalizer. The finalizer is a bijection, so distinct counter values
// give distinct IDs; the mixing spreads consecutive IDs across the
// 64-bit space so truncated renderings still look distinct.
var idCounter atomic.Uint64

func init() {
	idCounter.Store(uint64(time.Now().UnixNano()))
}

func nextID() uint64 {
	x := idCounter.Add(1)
	// splitmix64 finalizer (Steele et al.): invertible 64-bit mix.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1 // 0 means "no trace" on the wire
	}
	return x
}

// SpanContext identifies a span within its trace: the TraceID shared by
// every span of one request, and the SpanID of the specific span. It is
// the unit of wire propagation — the TCP transport carries it in the
// exchange envelope so coordinator-side spans stitch into the
// requester's trace. The zero value means "no trace".
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context identifies a real span.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 && sc.SpanID != 0 }

// TraceIDString renders the trace ID as fixed-width hex ("" when zero).
func (sc SpanContext) TraceIDString() string {
	if sc.TraceID == 0 {
		return ""
	}
	return HexID(sc.TraceID)
}

// HexID renders v as 16 zero-padded lowercase hex digits (what "%016x"
// prints) without going through fmt: trace IDs and task fingerprints
// are rendered on every request.
func HexID(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// WithRemoteParent marks the context as the continuation of a trace
// started in another process: the next root span started under it
// adopts sc's TraceID and records sc.SpanID as its remote parent, so
// Tracer.Snapshot can stitch the two trees together. Invalid contexts
// are ignored.
func WithRemoteParent(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey{}, sc)
}

// ContextFrom returns the span context of the context's current span,
// falling back to a remote-parent context attached by WithRemoteParent
// (so propagation chains survive hops where tracing is off), or the
// zero SpanContext.
func ContextFrom(ctx context.Context) SpanContext {
	if s, _ := ctx.Value(spanKey{}).(*Span); s != nil {
		return s.Context()
	}
	if sc, ok := ctx.Value(remoteKey{}).(SpanContext); ok {
		return sc
	}
	return SpanContext{}
}

// maxChildren bounds the span-tree fan-out per parent so a pathological
// run (a loop of thousands of invocations) cannot grow memory without
// bound; further children are counted, not stored.
const maxChildren = 512

// maxRenderDepth bounds the depth of a rendered span tree: deeper
// subtrees are folded into the Dropped count of the span at the limit,
// so a runaway recursion cannot produce an unbounded /debug/spans
// document.
const maxRenderDepth = 32

// Span is one timed operation in a trace tree. Spans are created with
// StartSpan and finished with End; both are nil-safe, so instrumented
// code needs no "is tracing on" branches. Safe for concurrent use:
// parallel branches attach children to one parent concurrently.
type Span struct {
	tracer *Tracer
	parent *Span
	name   string
	start  time.Time

	traceID uint64
	spanID  uint64
	// remoteParent is the SpanID of a parent span in another process
	// (set on root spans started under WithRemoteParent; 0 otherwise).
	remoteParent uint64

	mu       sync.Mutex
	attrs    []spanAttr
	children []*Span
	dropped  int
	end      time.Time
	ended    bool
}

type spanAttr struct{ key, value string }

// Context returns the span's identity (zero for a nil span).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.traceID, SpanID: s.spanID}
}

// TraceID renders the span's trace ID as fixed-width hex ("" for nil).
func (s *Span) TraceID() string { return s.Context().TraceIDString() }

// StartSpan begins a span named name under the context's current span
// (a root span when there is none). A root span started under a
// context carrying a remote parent (WithRemoteParent) joins that trace
// instead of opening a new one. Without a hub or tracer in the context
// it returns the context unchanged and a nil span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return StartSpanAt(ctx, name, time.Now())
}

// StartSpanAt is StartSpan with the start time supplied by the caller,
// so a request that already read the clock shares that reading instead
// of taking another.
func StartSpanAt(ctx context.Context, name string, start time.Time) (context.Context, *Span) {
	hub := HubFrom(ctx)
	if hub == nil || hub.Tracer == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	s := &Span{tracer: hub.Tracer, parent: parent, name: name, start: start, spanID: nextID()}
	switch {
	case parent != nil:
		s.traceID = parent.traceID
		parent.addChild(s)
	default:
		if rp, ok := ctx.Value(remoteKey{}).(SpanContext); ok && rp.Valid() {
			s.traceID = rp.TraceID
			s.remoteParent = rp.SpanID
		} else {
			s.traceID = nextID()
		}
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

func (s *Span) addChild(c *Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.children) >= maxChildren {
		s.dropped++
		return
	}
	s.children = append(s.children, c)
}

// Annotate attaches a key/value attribute to the span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, spanAttr{key, value})
	s.mu.Unlock()
}

// End finishes the span; a finished root span is recorded in the
// tracer's ring of recent traces. End is idempotent and nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(time.Now())
}

// EndAt is End with the end time supplied by the caller (a clock
// reading the request already took).
func (s *Span) EndAt(end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = end
	s.mu.Unlock()
	if s.parent == nil && s.tracer != nil {
		s.tracer.record(s)
	}
}

// SpanSnapshot is an immutable copy of a finished (or in-flight) span
// tree, JSON-friendly for the /debug/spans endpoint. Trace identity
// renders as fixed-width hex so IDs survive JSON number precision.
type SpanSnapshot struct {
	Name     string            `json:"name"`
	TraceID  string            `json:"trace_id,omitempty"`
	SpanID   string            `json:"span_id,omitempty"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []SpanSnapshot    `json:"children,omitempty"`
	// RemoteParent is the hex SpanID of this root's parent in another
	// process; Tracer.Snapshot nests the tree under that span when it is
	// present in the same snapshot.
	RemoteParent string `json:"remote_parent,omitempty"`
	// Dropped counts children discarded beyond the per-span fan-out cap,
	// plus subtrees folded away beyond the render-depth cap.
	Dropped int `json:"dropped,omitempty"`
}

func (s *Span) snapshot(depth int) SpanSnapshot {
	s.mu.Lock()
	out := SpanSnapshot{
		Name:    s.name,
		Start:   s.start,
		Dropped: s.dropped,
	}
	if s.traceID != 0 {
		out.TraceID = fmt.Sprintf("%016x", s.traceID)
		out.SpanID = fmt.Sprintf("%016x", s.spanID)
	}
	if s.remoteParent != 0 {
		out.RemoteParent = fmt.Sprintf("%016x", s.remoteParent)
	}
	if s.ended {
		out.Duration = s.end.Sub(s.start)
	} else {
		out.Duration = time.Since(s.start)
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.key] = a.value
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	if len(children) > 0 {
		if depth+1 >= maxRenderDepth {
			out.Dropped += len(children)
			return out
		}
		out.Children = make([]SpanSnapshot, len(children))
		for i, c := range children {
			out.Children[i] = c.snapshot(depth + 1)
		}
		sortSpans(out.Children)
	}
	return out
}

// sortSpans orders sibling snapshots deterministically: by start time,
// then by name. Children attach in scheduling order under concurrency,
// so raw insertion order is unstable across runs.
func sortSpans(s []SpanSnapshot) {
	sort.SliceStable(s, func(i, j int) bool {
		if !s[i].Start.Equal(s[j].Start) {
			return s[i].Start.Before(s[j].Start)
		}
		return s[i].Name < s[j].Name
	})
}

// Tracer keeps a bounded ring of the most recent finished root spans.
// Safe for concurrent use.
type Tracer struct {
	mu    sync.Mutex
	ring  []*Span
	next  int
	full  bool
	total uint64
}

// DefaultTraceCapacity is the root-span retention a Tracer gets when
// NewTracer is called with capacity 0 (the NewHub default).
const DefaultTraceCapacity = 64

// NewTracer creates a tracer retaining the last capacity root spans;
// 0 means DefaultTraceCapacity. Negative capacities are a programmer
// error and panic.
func NewTracer(capacity int) *Tracer {
	if capacity < 0 {
		panic(fmt.Sprintf("obs: NewTracer capacity must be >= 0, got %d", capacity))
	}
	if capacity == 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: make([]*Span, capacity)}
}

func (t *Tracer) record(s *Span) {
	t.mu.Lock()
	t.ring[t.next] = s
	t.next = (t.next + 1) % len(t.ring)
	if t.next == 0 {
		t.full = true
	}
	t.total++
	t.mu.Unlock()
}

// Total counts every root span ever recorded (monotonic; the ring only
// retains the most recent ones).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Snapshot returns the retained root span trees, oldest first, with
// remote traces stitched: a root recorded with a RemoteParent whose
// parent span is present in the same snapshot (e.g. a coordinator-side
// local phase whose requester ran in this process) is nested under
// that span instead of rendered as a separate tree.
func (t *Tracer) Snapshot() []SpanSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	roots := make([]*Span, 0, len(t.ring))
	if t.full {
		roots = append(roots, t.ring[t.next:]...)
	}
	roots = append(roots, t.ring[:t.next]...)
	t.mu.Unlock()
	out := make([]SpanSnapshot, len(roots))
	for i, r := range roots {
		out[i] = r.snapshot(0)
	}
	return stitch(out)
}

// stitch nests remote-parented roots under their parent span when that
// span appears in another tree of the same snapshot. Every move
// removes one root, so the loop terminates; the scan restarts after
// each move because the removal shifts the slice.
func stitch(roots []SpanSnapshot) []SpanSnapshot {
	for moved := true; moved; {
		moved = false
	scan:
		for i := range roots {
			rp := roots[i].RemoteParent
			if rp == "" {
				continue
			}
			for j := range roots {
				if j == i {
					continue
				}
				if parent := findSpan(&roots[j], rp); parent != nil {
					parent.Children = append(parent.Children, roots[i])
					sortSpans(parent.Children)
					roots = append(roots[:i], roots[i+1:]...)
					moved = true
					break scan
				}
			}
		}
	}
	return roots
}

// findSpan locates the span with the given hex SpanID in a tree.
func findSpan(s *SpanSnapshot, spanID string) *SpanSnapshot {
	if s.SpanID == spanID {
		return s
	}
	for i := range s.Children {
		if m := findSpan(&s.Children[i], spanID); m != nil {
			return m
		}
	}
	return nil
}
