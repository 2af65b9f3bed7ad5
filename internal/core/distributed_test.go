package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"qasom/internal/qos"
)

func TestDeviceNodeLocalSelect(t *testing.T) {
	tk := seqTask("a")
	cands := genCandidates(tk, 6)
	dev := NewDeviceNode("d1", 0)
	dev.Host("a", cands["a"])
	if got := dev.Activities(); len(got) != 1 || got[0] != "a" {
		t.Errorf("Activities = %v", got)
	}
	lr, err := dev.LocalSelect(context.Background(), LocalRequest{
		ActivityID: "a",
		Properties: twoProps().Properties(),
		Weights:    qos.Weights{1, 1},
		K:          3,
	})
	if err != nil {
		t.Fatalf("LocalSelect: %v", err)
	}
	if len(lr.Ranked) != 6 {
		t.Errorf("local result shape: %+v", lr)
	}
	// Unknown activity errors.
	if _, err := dev.LocalSelect(context.Background(), LocalRequest{
		ActivityID: "zz", Properties: twoProps().Properties(),
	}); err == nil {
		t.Error("unknown activity should error")
	}
}

func TestDeviceNodeLatencyAndCancellation(t *testing.T) {
	dev := NewDeviceNode("slow", 50*time.Millisecond)
	dev.Host("a", genCandidates(seqTask("a"), 3)["a"])
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := dev.LocalSelect(ctx, LocalRequest{ActivityID: "a", Properties: twoProps().Properties()})
	if err == nil {
		t.Error("cancelled context should abort the simulated latency")
	}
}

func TestDistributedMatchesCentralizedGlobalPhase(t *testing.T) {
	tk := seqTask("a", "b", "c")
	cands := genCandidates(tk, 10)
	req := &Request{
		Task:        tk,
		Properties:  twoProps(),
		Constraints: qos.Constraints{{Property: "rt", Bound: 150}},
	}

	central, err := NewSelector(Options{}).Select(req, cands)
	if err != nil {
		t.Fatal(err)
	}

	devices := make(map[string]LocalSelector, 3)
	for id, list := range cands {
		dev := NewDeviceNode("dev-"+id, 0)
		dev.Host(id, list)
		devices[id] = dev
	}
	dist, err := NewDistributedSelector(Options{}, devices).Select(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Feasible != central.Feasible {
		t.Fatalf("feasibility differs: dist %v central %v", dist.Feasible, central.Feasible)
	}
	for id := range central.Assignment {
		if dist.Assignment[id].Service.ID != central.Assignment[id].Service.ID {
			t.Errorf("activity %s: distributed chose %s, centralized %s",
				id, dist.Assignment[id].Service.ID, central.Assignment[id].Service.ID)
		}
	}
}

func TestDistributedParallelLatency(t *testing.T) {
	// Three devices each adding 40ms: the parallel local phase should
	// take roughly one latency, not three.
	tk := seqTask("a", "b", "c")
	cands := genCandidates(tk, 5)
	req := &Request{Task: tk, Properties: twoProps(),
		Constraints: qos.Constraints{{Property: "rt", Bound: 1000}}}
	devices := make(map[string]LocalSelector, 3)
	for id, list := range cands {
		dev := NewDeviceNode("dev-"+id, 40*time.Millisecond)
		dev.Host(id, list)
		devices[id] = dev
	}
	start := time.Now()
	res, err := NewDistributedSelector(Options{}, devices).Select(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 110*time.Millisecond {
		t.Errorf("local phases did not run in parallel: %v", elapsed)
	}
	if res.Stats.LocalDuration < 40*time.Millisecond {
		t.Errorf("local duration %v should include device latency", res.Stats.LocalDuration)
	}
}

func TestDistributedMissingDevice(t *testing.T) {
	tk := seqTask("a", "b")
	req := &Request{Task: tk, Properties: twoProps()}
	dev := NewDeviceNode("d", 0)
	dev.Host("a", genCandidates(seqTask("a"), 3)["a"])
	_, err := NewDistributedSelector(Options{}, map[string]LocalSelector{"a": dev}).
		Select(context.Background(), req)
	if err == nil || !strings.Contains(err.Error(), "no device") {
		t.Errorf("missing device error = %v", err)
	}
}

func TestDistributedDeviceFailure(t *testing.T) {
	tk := seqTask("a", "b")
	cands := genCandidates(tk, 3)
	req := &Request{Task: tk, Properties: twoProps()}
	good := NewDeviceNode("good", 0)
	good.Host("a", cands["a"])
	empty := NewDeviceNode("empty", 0) // hosts nothing for b
	_, err := NewDistributedSelector(Options{}, map[string]LocalSelector{
		"a": good, "b": empty,
	}).Select(context.Background(), req)
	if err == nil {
		t.Error("device without candidates should surface an error")
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	tk := seqTask("a", "b")
	cands := genCandidates(tk, 8)
	req := &Request{
		Task:        tk,
		Properties:  twoProps(),
		Constraints: qos.Constraints{{Property: "rt", Bound: 200}},
	}

	devices := make(map[string]LocalSelector, 2)
	var stops []func()
	defer func() {
		for _, s := range stops {
			s()
		}
	}()
	for id, list := range cands {
		dev := NewDeviceNode("dev-"+id, 0)
		dev.Host(id, list)
		addr, stop, err := ServeTCP(context.Background(), "127.0.0.1:0", dev)
		if err != nil {
			t.Fatalf("ServeTCP: %v", err)
		}
		stops = append(stops, stop)
		devices[id] = &TCPClient{Addr: addr}
	}

	res, err := NewDistributedSelector(Options{}, devices).Select(context.Background(), req)
	if err != nil {
		t.Fatalf("distributed select over TCP: %v", err)
	}
	if !res.Feasible || len(res.Assignment) != 2 {
		t.Errorf("TCP result: feasible=%v assignment=%d", res.Feasible, len(res.Assignment))
	}

	// Compare against the purely in-process run.
	central, err := NewSelector(Options{}).Select(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	for id := range central.Assignment {
		if res.Assignment[id].Service.ID != central.Assignment[id].Service.ID {
			t.Errorf("TCP and in-process selections differ for %s", id)
		}
	}
}

func TestTCPClientErrors(t *testing.T) {
	c := &TCPClient{Addr: "127.0.0.1:1", DialTimeout: 100 * time.Millisecond}
	_, err := c.LocalSelect(context.Background(), LocalRequest{ActivityID: "a"})
	if err == nil {
		t.Error("dial to closed port should error")
	}
	// Remote errors are surfaced.
	dev := NewDeviceNode("empty", 0)
	addr, stop, err := ServeTCP(context.Background(), "127.0.0.1:0", dev)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	client := &TCPClient{Addr: addr}
	_, err = client.LocalSelect(context.Background(), LocalRequest{
		ActivityID: "ghost", Properties: twoProps().Properties(),
	})
	if err == nil || !strings.Contains(err.Error(), "remote") {
		t.Errorf("remote failure should surface: %v", err)
	}
}
