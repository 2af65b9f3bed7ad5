package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Handler returns the hub's debug mux:
//
//	/metrics         Prometheus text exposition of the metrics registry
//	/healthz         liveness probe: "ok", or 503 when the hub's SLO
//	                 engine reports a fast error-budget burn
//	/debug/spans     JSON snapshot of the recent span trees (stitched
//	                 across processes by trace ID)
//	/debug/requests  JSON snapshot of the flight recorder; query params
//	                 tenant=<id>, degraded=1, slowest=<n> filter it
//	/debug/pprof     the standard Go profiling endpoints
func (h *Hub) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := h.Metrics.WritePrometheus(w); err != nil {
			// Headers are gone; the truncated body is all we can signal.
			return
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if h.SLO.FastBurn() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "degraded: "+h.SLO.Status())
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		spans := h.Tracer.Snapshot()
		if spans == nil {
			spans = []SpanSnapshot{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(spans)
	})
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		params := r.URL.Query()
		q := FlightQuery{}
		if params.Has("tenant") {
			q.TenantSet = true
			q.Tenant = params.Get("tenant")
		}
		switch params.Get("degraded") {
		case "1", "true", "yes":
			q.Degraded = true
		}
		if n, err := strconv.Atoi(params.Get("slowest")); err == nil && n > 0 {
			q.Slowest = n
		}
		recs := h.Flight.Snapshot(q)
		if recs == nil {
			recs = []RequestRecord{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(recs)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug exposes the hub's Handler on an HTTP listener until ctx is
// cancelled. It returns the bound address immediately and serves in the
// background; the returned stop function shuts the server down and
// waits for in-flight requests (bounded by a short grace period).
func ServeDebug(ctx context.Context, addr string, h *Hub) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: listen: %w", err)
	}
	srv := &http.Server{Handler: h.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns as soon as Shutdown starts
	}()
	// done closes only once Shutdown has returned (idle keep-alive
	// connections closed, in-flight requests drained) and Serve has
	// released the listener: Serve alone returns too early for stop's
	// promise.
	done := make(chan struct{})
	serveCtx, cancel := context.WithCancel(ctx)
	go func() {
		defer close(done)
		<-serveCtx.Done()
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer shutCancel()
		_ = srv.Shutdown(shutCtx)
		<-served
	}()
	stop := func() {
		cancel()
		<-done
	}
	return ln.Addr().String(), stop, nil
}
