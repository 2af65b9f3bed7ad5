package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestStartSpanWithoutHub(t *testing.T) {
	ctx, span := StartSpan(context.Background(), "noop")
	if span != nil {
		t.Fatal("span should be nil without a hub")
	}
	// Nil-safe operations.
	span.Annotate("k", "v")
	span.End()
	if HubFrom(ctx) != nil {
		t.Fatal("no hub should be attached")
	}
}

// TestSpanSharedTimes: spans started and ended at caller-supplied times
// report exactly those times, a child shares its parent's trace, and
// the timed calls are nil-safe.
func TestSpanSharedTimes(t *testing.T) {
	var none *Span
	none.EndAt(time.Now()) // nil-safe
	if _, s := StartSpanAt(context.Background(), "noop", time.Now()); s != nil {
		t.Fatal("StartSpanAt without a hub should return a nil span")
	}

	hub := NewHub()
	t0 := time.Now()
	t1, t2 := t0.Add(3*time.Microsecond), t0.Add(10*time.Microsecond)
	ctx, root := StartSpanAt(WithHub(context.Background(), hub), "compose", t0)
	_, leaf := StartSpanAt(ctx, "qassa.local", t0)
	leaf.EndAt(t1)
	leaf.EndAt(t2) // idempotent: the first end wins
	root.EndAt(t2)

	snap := hub.Tracer.Snapshot()
	if len(snap) != 1 || len(snap[0].Children) != 1 {
		t.Fatalf("snapshot = %+v, want one root with one child", snap)
	}
	r, c := snap[0], snap[0].Children[0]
	if c.Name != "qassa.local" || c.TraceID != r.TraceID || c.SpanID == r.SpanID {
		t.Fatalf("child %+v under root %s/%s", c, r.TraceID, r.SpanID)
	}
	if !r.Start.Equal(t0) || r.Duration != t2.Sub(t0) || !c.Start.Equal(t0) || c.Duration != t1.Sub(t0) {
		t.Fatalf("root [%v +%v], child [%v +%v], want [%v +%v], [%v +%v]",
			r.Start, r.Duration, c.Start, c.Duration, t0, t2.Sub(t0), t0, t1.Sub(t0))
	}
}

func TestSpanTree(t *testing.T) {
	hub := NewHub()
	ctx := WithHub(context.Background(), hub)
	ctx, root := StartSpan(ctx, "compose")
	root.Annotate("task", "shopping")
	cctx, child := StartSpan(ctx, "qassa.local")
	_, grand := StartSpan(cctx, "qassa.cluster")
	grand.Annotate("activity", "book")
	grand.End()
	child.End()
	_, sibling := StartSpan(ctx, "qassa.global")
	sibling.End()

	if got := hub.Tracer.Snapshot(); len(got) != 0 {
		t.Fatalf("unfinished root must not be recorded, got %d", len(got))
	}
	root.End()
	root.End() // idempotent

	snap := hub.Tracer.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("got %d roots, want 1", len(snap))
	}
	r := snap[0]
	if r.Name != "compose" || r.Attrs["task"] != "shopping" {
		t.Fatalf("root = %+v", r)
	}
	if len(r.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(r.Children))
	}
	if r.Children[0].Name != "qassa.local" || r.Children[1].Name != "qassa.global" {
		t.Fatalf("children = %v, %v", r.Children[0].Name, r.Children[1].Name)
	}
	lc := r.Children[0]
	if len(lc.Children) != 1 || lc.Children[0].Attrs["activity"] != "book" {
		t.Fatalf("grandchild = %+v", lc.Children)
	}
	if r.Duration <= 0 {
		t.Fatal("root duration should be positive")
	}
	if hub.Tracer.Total() != 1 {
		t.Fatalf("total = %d, want 1", hub.Tracer.Total())
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(3)
	hub := &Hub{Tracer: tr}
	ctx := WithHub(context.Background(), hub)
	for i := 0; i < 5; i++ {
		_, s := StartSpan(ctx, fmt.Sprintf("root-%d", i))
		s.End()
	}
	snap := tr.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring holds %d, want 3", len(snap))
	}
	// Oldest first: 2, 3, 4 survive.
	for i, want := range []string{"root-2", "root-3", "root-4"} {
		if snap[i].Name != want {
			t.Fatalf("snap[%d] = %q, want %q", i, snap[i].Name, want)
		}
	}
	if tr.Total() != 5 {
		t.Fatalf("total = %d, want 5", tr.Total())
	}
}

func TestConcurrentChildren(t *testing.T) {
	hub := NewHub()
	ctx := WithHub(context.Background(), hub)
	ctx, root := StartSpan(ctx, "parallel")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, s := StartSpan(ctx, fmt.Sprintf("branch-%d", i))
			s.Annotate("i", fmt.Sprint(i))
			s.End()
		}(i)
	}
	wg.Wait()
	root.End()
	snap := hub.Tracer.Snapshot()
	if len(snap) != 1 || len(snap[0].Children) != 16 {
		t.Fatalf("got %d roots / %d children, want 1/16", len(snap), len(snap[0].Children))
	}
}

func TestChildCap(t *testing.T) {
	hub := NewHub()
	ctx := WithHub(context.Background(), hub)
	ctx, root := StartSpan(ctx, "busy")
	for i := 0; i < maxChildren+10; i++ {
		_, s := StartSpan(ctx, "child")
		s.End()
	}
	root.End()
	snap := hub.Tracer.Snapshot()
	if got := len(snap[0].Children); got != maxChildren {
		t.Fatalf("children = %d, want cap %d", got, maxChildren)
	}
	if snap[0].Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", snap[0].Dropped)
	}
}

func TestEnsureHub(t *testing.T) {
	h1, h2 := NewHub(), NewHub()
	ctx := EnsureHub(context.Background(), h1)
	if HubFrom(ctx) != h1 {
		t.Fatal("EnsureHub should attach to a bare context")
	}
	ctx = EnsureHub(ctx, h2)
	if HubFrom(ctx) != h1 {
		t.Fatal("EnsureHub must not replace an existing hub")
	}
}

func TestDefaultHub(t *testing.T) {
	if Default() == nil || Default().Metrics == nil || Default().Tracer == nil {
		t.Fatal("default hub must be fully initialised")
	}
	if Default() != Default() {
		t.Fatal("default hub must be stable")
	}
}
