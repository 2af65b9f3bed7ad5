package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestTraceIDsUniqueConcurrent hammers span creation from many
// goroutines and checks every trace/span ID is unique and non-zero —
// the property wire propagation and exemplar linkage rely on.
func TestTraceIDsUniqueConcurrent(t *testing.T) {
	const goroutines, perG = 16, 200
	hub := NewHub()
	ctx := WithHub(context.Background(), hub)
	var mu sync.Mutex
	seen := make(map[uint64]bool, 2*goroutines*perG)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]SpanContext, 0, perG)
			for i := 0; i < perG; i++ {
				_, span := StartSpan(ctx, "probe")
				local = append(local, span.Context())
				span.End()
			}
			mu.Lock()
			defer mu.Unlock()
			for _, sc := range local {
				if !sc.Valid() {
					t.Errorf("invalid span context %+v", sc)
				}
				if seen[sc.TraceID] || seen[sc.SpanID] {
					t.Errorf("duplicate ID in %+v", sc)
				}
				seen[sc.TraceID] = true
				seen[sc.SpanID] = true
			}
		}()
	}
	wg.Wait()
}

func TestChildInheritsTraceID(t *testing.T) {
	hub := NewHub()
	ctx := WithHub(context.Background(), hub)
	ctx, root := StartSpan(ctx, "root")
	_, child := StartSpan(ctx, "child")
	if root.Context().TraceID != child.Context().TraceID {
		t.Fatalf("child trace %x != root trace %x",
			child.Context().TraceID, root.Context().TraceID)
	}
	if root.Context().SpanID == child.Context().SpanID {
		t.Fatal("child reused the root span ID")
	}
	child.End()
	root.End()
}

// TestRemoteParentStitching simulates a cross-process hop: a "server"
// root span started under WithRemoteParent joins the client's trace,
// and Tracer.Snapshot nests it under the client span.
func TestRemoteParentStitching(t *testing.T) {
	hub := NewHub()
	clientCtx := WithHub(context.Background(), hub)
	_, client := StartSpan(clientCtx, "dist.exchange")

	// The wire carries only the SpanContext; the remote side starts a
	// fresh root under it (same hub stands in for the remote tracer).
	wire := ContextFrom(clientCtx)
	if wire.Valid() {
		t.Fatalf("context without a current span must yield a zero SpanContext, got %+v", wire)
	}
	wire = client.Context()
	serverCtx := WithRemoteParent(WithHub(context.Background(), hub), wire)
	_, server := StartSpan(serverCtx, "device.localselect")
	if server.Context().TraceID != client.Context().TraceID {
		t.Fatalf("server did not adopt the client trace: %x vs %x",
			server.Context().TraceID, client.Context().TraceID)
	}
	server.End()
	client.End()

	snap := hub.Tracer.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("want 1 stitched root, got %d", len(snap))
	}
	root := snap[0]
	if root.Name != "dist.exchange" {
		t.Fatalf("stitched root is %q", root.Name)
	}
	if len(root.Children) != 1 || root.Children[0].Name != "device.localselect" {
		t.Fatalf("remote span not nested under its parent: %+v", root)
	}
	if root.Children[0].TraceID != root.TraceID {
		t.Fatal("stitched child carries a different trace ID")
	}
}

// TestSiblingsSortedDeterministically checks snapshot ordering: start
// time first, name as the tiebreak — not insertion order, which is
// scheduling-dependent under concurrency.
func TestSiblingsSortedDeterministically(t *testing.T) {
	t0 := time.Now()
	root := &Span{name: "root", start: t0, traceID: 1, spanID: 2}
	root.children = []*Span{
		{name: "late", start: t0.Add(2 * time.Millisecond), traceID: 1, spanID: 5},
		{name: "b-tied", start: t0.Add(time.Millisecond), traceID: 1, spanID: 4},
		{name: "a-tied", start: t0.Add(time.Millisecond), traceID: 1, spanID: 3},
	}
	got := root.snapshot(0)
	want := []string{"a-tied", "b-tied", "late"}
	if len(got.Children) != len(want) {
		t.Fatalf("got %d children", len(got.Children))
	}
	for i, name := range want {
		if got.Children[i].Name != name {
			t.Fatalf("child %d = %q, want %q (full: %+v)", i, got.Children[i].Name, name, got.Children)
		}
	}
}

// TestSnapshotDepthCap builds a span chain deeper than maxRenderDepth
// and checks the render folds the excess into Dropped instead of
// recursing without bound.
func TestSnapshotDepthCap(t *testing.T) {
	hub := NewHub()
	ctx := WithHub(context.Background(), hub)
	ctx, root := StartSpan(ctx, "lvl0")
	spans := []*Span{root}
	for i := 1; i < maxRenderDepth+8; i++ {
		var s *Span
		ctx, s = StartSpan(ctx, "deep")
		spans = append(spans, s)
	}
	for i := len(spans) - 1; i >= 0; i-- {
		spans[i].End()
	}
	snap := hub.Tracer.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("want 1 root, got %d", len(snap))
	}
	depth, dropped := 0, 0
	for cur := &snap[0]; ; {
		dropped += cur.Dropped
		if len(cur.Children) == 0 {
			break
		}
		depth++
		cur = &cur.Children[0]
	}
	if depth >= maxRenderDepth {
		t.Fatalf("rendered depth %d not capped at %d", depth, maxRenderDepth)
	}
	if dropped == 0 {
		t.Fatal("folded subtrees not accounted in Dropped")
	}
}

func TestNewTracerCapacity(t *testing.T) {
	if got := len(NewTracer(0).ring); got != DefaultTraceCapacity {
		t.Fatalf("NewTracer(0) ring = %d, want DefaultTraceCapacity %d", got, DefaultTraceCapacity)
	}
	if got := len(NewTracer(3).ring); got != 3 {
		t.Fatalf("NewTracer(3) ring = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewTracer(-1) did not panic")
		}
	}()
	NewTracer(-1)
}

func TestTraceIDString(t *testing.T) {
	sc := SpanContext{TraceID: 0xabc, SpanID: 1}
	if got := sc.TraceIDString(); got != "0000000000000abc" {
		t.Fatalf("TraceIDString = %q", got)
	}
	if got := (SpanContext{}).TraceIDString(); got != "" {
		t.Fatalf("zero context renders %q, want empty", got)
	}
	var nilSpan *Span
	if got := nilSpan.TraceID(); got != "" {
		t.Fatalf("nil span TraceID = %q", got)
	}
}

func TestHexIDMatchesFormat(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xabc, 0xdeadbeef, 1 << 63, ^uint64(0), 0x0123456789abcdef} {
		if got, want := HexID(v), fmt.Sprintf("%016x", v); got != want {
			t.Errorf("HexID(%#x) = %q, want %q", v, got, want)
		}
	}
}
