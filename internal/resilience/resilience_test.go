package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"qasom/internal/randx"
)

func TestPolicyWithDefaults(t *testing.T) {
	p := Policy{}.WithDefaults()
	if p.MaxAttempts != 3 {
		t.Errorf("MaxAttempts = %d, want 3", p.MaxAttempts)
	}
	if p.BaseBackoff != 5*time.Millisecond || p.MaxBackoff != 250*time.Millisecond {
		t.Errorf("backoff bounds = %s..%s, want 5ms..250ms", p.BaseBackoff, p.MaxBackoff)
	}
	if p.Jitter != 0.2 {
		t.Errorf("jitter = %v, want 0.2", p.Jitter)
	}
	// Without jitter each retry's delay doubles until MaxBackoff.
	p.Jitter = -1
	for retry := 1; retry < 8; retry++ {
		want := min(2*p.Backoff(retry-1, nil), p.MaxBackoff)
		if got := p.Backoff(retry, nil); got != want {
			t.Errorf("Backoff(%d) = %s, want %s (double of the previous, capped)", retry, got, want)
		}
	}
	if p.BreakerThreshold != 4 || p.BreakerCooldown != 2*time.Second {
		t.Errorf("breaker = %d/%s, want 4/2s", p.BreakerThreshold, p.BreakerCooldown)
	}
	if got := (Policy{MaxAttempts: -1}).WithDefaults().MaxAttempts; got != 1 {
		t.Errorf("negative MaxAttempts resolved to %d, want 1", got)
	}
}

func TestPolicyBackoff(t *testing.T) {
	p := Policy{Jitter: -1}.WithDefaults() // jitter off: exact expectations
	want := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond,
		40 * time.Millisecond, 80 * time.Millisecond, 160 * time.Millisecond,
		250 * time.Millisecond, 250 * time.Millisecond}
	for retry, w := range want {
		if got := p.Backoff(retry, nil); got != w {
			t.Errorf("Backoff(%d) = %s, want %s", retry, got, w)
		}
	}
	// Jittered backoff stays within ±Jitter and is deterministic per seed.
	p = Policy{}.WithDefaults()
	a := p.Backoff(2, randx.New(7))
	b := p.Backoff(2, randx.New(7))
	if a != b {
		t.Errorf("jittered backoff not deterministic per seed: %s vs %s", a, b)
	}
	lo, hi := time.Duration(float64(20*time.Millisecond)*0.8), time.Duration(float64(20*time.Millisecond)*1.2)
	if a < lo || a > hi {
		t.Errorf("jittered Backoff(2) = %s outside [%s, %s]", a, lo, hi)
	}
}

type fakeNetErr struct{ timeout bool }

func (e *fakeNetErr) Error() string   { return "fake net error" }
func (e *fakeNetErr) Timeout() bool   { return e.timeout }
func (e *fakeNetErr) Temporary() bool { return false }

func TestClassOf(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, Terminal},
		{"plain", errors.New("application failure"), Terminal},
		{"marked retryable", AsRetryable(errors.New("dropped")), Retryable},
		{"marked terminal", AsTerminal(io.EOF), Terminal},
		{"wrapped mark", fmt.Errorf("dial: %w", AsRetryable(errors.New("x"))), Retryable},
		{"canceled", context.Canceled, Canceled},
		{"deadline", context.DeadlineExceeded, Retryable},
		{"net timeout", &fakeNetErr{timeout: true}, Retryable},
		{"net non-timeout", &fakeNetErr{}, Terminal},
		{"refused", fmt.Errorf("dial: %w", syscall.ECONNREFUSED), Retryable},
		{"reset", syscall.ECONNRESET, Retryable},
		{"epipe", syscall.EPIPE, Retryable},
		{"closed", net.ErrClosed, Retryable},
		{"eof", io.EOF, Retryable},
		{"unexpected eof", io.ErrUnexpectedEOF, Retryable},
	}
	for _, c := range cases {
		if got := ClassOf(c.err); got != c.want {
			t.Errorf("ClassOf(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCauseErr(t *testing.T) {
	if err := CauseErr(context.Background()); err != nil {
		t.Fatalf("live context: CauseErr = %v, want nil", err)
	}
	boom := errors.New("composition abandoned")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(boom)
	err := CauseErr(ctx)
	if !errors.Is(err, boom) {
		t.Errorf("CauseErr does not wrap the cause: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("CauseErr dropped the context sentinel: %v", err)
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	b := NewBreaker(2, 30*time.Millisecond)
	if !b.Allow() {
		t.Fatal("fresh breaker must allow")
	}
	b.Record(false)
	if !b.Allow() {
		t.Fatal("one failure under threshold must still allow")
	}
	b.Record(false)
	if b.Allow() {
		t.Fatal("breaker must open at the threshold")
	}
	time.Sleep(40 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooled-down breaker must admit a probe")
	}
	b.Record(true)
	if !b.Allow() || b.Open() {
		t.Fatal("success must close the breaker")
	}
	var nilB *Breaker
	if !nilB.Allow() {
		t.Fatal("nil breaker must be a no-op allow")
	}
	nilB.Record(false) // must not panic
}

func TestExecuteRetriesThenSucceeds(t *testing.T) {
	calls := 0
	targets := []Target[string]{{
		Peer: "p1",
		Call: func(ctx context.Context) (string, error) {
			calls++
			if calls < 3 {
				return "", AsRetryable(errors.New("transient"))
			}
			return "ok", nil
		},
	}}
	p := Policy{BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond}
	v, st, err := Execute(context.Background(), p, nil, randx.New(1), targets, nil)
	if err != nil || v != "ok" {
		t.Fatalf("Execute = (%q, %v), want (ok, nil)", v, err)
	}
	if st.Attempts != 3 || st.Retries != 2 {
		t.Errorf("stats = %+v, want 3 attempts / 2 retries", st)
	}
}

func TestExecuteTerminalStopsImmediately(t *testing.T) {
	calls := 0
	boom := errors.New("no candidates")
	targets := []Target[int]{{Peer: "p1", Call: func(ctx context.Context) (int, error) {
		calls++
		return 0, boom
	}}}
	_, st, err := Execute(context.Background(), Policy{}, nil, nil, targets, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the terminal error", err)
	}
	if calls != 1 || st.Retries != 0 {
		t.Errorf("terminal failure retried: calls=%d stats=%+v", calls, st)
	}
}

func TestExecuteRotatesReplicas(t *testing.T) {
	var sequence []string
	mk := func(peer string, fail bool) Target[string] {
		return Target[string]{Peer: peer, Call: func(ctx context.Context) (string, error) {
			sequence = append(sequence, peer)
			if fail {
				return "", AsRetryable(errors.New("down"))
			}
			return peer, nil
		}}
	}
	p := Policy{BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond}
	v, st, err := Execute(context.Background(), p, nil, nil,
		[]Target[string]{mk("dead", true), mk("live", false)}, nil)
	if err != nil || v != "live" {
		t.Fatalf("Execute = (%q, %v), want (live, nil)", v, err)
	}
	if len(sequence) != 2 || sequence[0] != "dead" || sequence[1] != "live" {
		t.Errorf("rotation sequence = %v, want [dead live]", sequence)
	}
	if st.Retries != 1 {
		t.Errorf("stats = %+v, want 1 retry", st)
	}
}

func TestExecuteBreakerSkips(t *testing.T) {
	br := NewBreakerSet(1, time.Minute)
	br.Record("dead", false) // open immediately (threshold 1)
	called := ""
	targets := []Target[string]{
		{Peer: "dead", Call: func(ctx context.Context) (string, error) {
			called = "dead"
			return "", errors.New("must not run")
		}},
		{Peer: "live", Call: func(ctx context.Context) (string, error) {
			called = "live"
			return "live", nil
		}},
	}
	v, st, err := Execute(context.Background(), Policy{}, br, nil, targets, nil)
	if err != nil || v != "live" || called != "live" {
		t.Fatalf("Execute = (%q, %v) called=%q, want live via live", v, err, called)
	}
	if st.BreakerSkips == 0 {
		t.Errorf("stats = %+v, want BreakerSkips > 0", st)
	}

	// Every breaker open: ErrAllBreakersOpen, no calls.
	br.Record("live", false)
	_, _, err = Execute(context.Background(), Policy{}, br, nil, targets, nil)
	if !errors.Is(err, ErrAllBreakersOpen) {
		t.Fatalf("err = %v, want ErrAllBreakersOpen", err)
	}
}

func TestExecuteHedgeWins(t *testing.T) {
	primaryStarted := make(chan struct{})
	targets := []Target[string]{
		{Peer: "slow", Call: func(ctx context.Context) (string, error) {
			close(primaryStarted)
			select {
			case <-time.After(5 * time.Second):
				return "slow", nil
			case <-ctx.Done():
				return "", ctx.Err()
			}
		}},
		{Peer: "fast", Call: func(ctx context.Context) (string, error) {
			return "fast", nil
		}},
	}
	p := Policy{HedgeDelay: 5 * time.Millisecond, AttemptTimeout: 10 * time.Second}
	br := NewBreakerSet(1, time.Minute)
	v, st, err := Execute(context.Background(), p, br, nil, targets, nil)
	if err != nil || v != "fast" {
		t.Fatalf("Execute = (%q, %v), want the hedge to win", v, err)
	}
	if st.Hedges != 1 {
		t.Errorf("stats = %+v, want 1 hedge", st)
	}
	<-primaryStarted
	// The canceled hedge loser must not have tripped its breaker
	// (threshold 1: a single recorded failure would open it).
	if !br.Allow("slow") {
		t.Error("hedge loser's cancellation penalised its breaker")
	}
}

func TestExecuteCancellationCause(t *testing.T) {
	boom := errors.New("user gave up")
	ctx, cancel := context.WithCancelCause(context.Background())
	targets := []Target[int]{{Peer: "p", Call: func(ctx context.Context) (int, error) {
		cancel(boom)
		<-ctx.Done()
		return 0, ctx.Err()
	}}}
	_, _, err := Execute(ctx, Policy{}, nil, nil, targets, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the cancellation cause", err)
	}
}

func TestExecuteExhaustion(t *testing.T) {
	calls := 0
	targets := []Target[int]{{Peer: "p", Call: func(ctx context.Context) (int, error) {
		calls++
		return 0, AsRetryable(errors.New("always down"))
	}}}
	p := Policy{MaxAttempts: 2, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond}
	_, st, err := Execute(context.Background(), p, nil, nil, targets, nil)
	if err == nil || calls != 2 {
		t.Fatalf("err = %v calls = %d, want exhaustion after 2", err, calls)
	}
	if ClassOf(err) != Retryable {
		t.Errorf("exhaustion error lost its retryable class: %v", err)
	}
	if st.Attempts != 2 || st.Retries != 1 {
		t.Errorf("stats = %+v, want 2 attempts / 1 retry", st)
	}
}

func TestSleep(t *testing.T) {
	if !Sleep(context.Background(), 0) {
		t.Error("zero sleep must report elapsed")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if Sleep(ctx, time.Minute) {
		t.Error("canceled sleep must report interrupted")
	}
}
