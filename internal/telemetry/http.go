package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Extra mounts one additional handler onto the observability mux — the
// transaction server adds /debug/traces this way.
type Extra struct {
	Path    string
	Handler http.Handler
}

// NewHandler builds the observability mux:
//
//	/metrics        Prometheus text exposition of reg
//	/healthz        200 while the process is up (liveness)
//	/readyz         200 while ready() returns nil (readiness); the
//	                node wires "not draining" and "the follower
//	                watermark-stall rule is not firing" into it
//	/debug/pprof/*  the standard Go profiling endpoints
//
// ready may be nil, in which case /readyz behaves like /healthz.
// Extras are mounted verbatim after the built-ins.
func NewHandler(reg *Registry, ready func() error, extras ...Extra) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ready != nil {
			if err := ready(); err != nil {
				http.Error(w, "not ready: "+err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, e := range extras {
		mux.Handle(e.Path, e.Handler)
	}
	return mux
}

// Server is a running observability HTTP endpoint.
type Server struct {
	lis net.Listener
	srv *http.Server
}

// ListenAndServe binds addr (use port 0 for an ephemeral port in tests)
// and serves NewHandler(reg, ready, extras...) in a background
// goroutine.
func ListenAndServe(addr string, reg *Registry, ready func() error, extras ...Extra) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{
		lis: lis,
		// No WriteTimeout: pprof profile/trace requests legitimately
		// stream for their ?seconds= duration.
		srv: &http.Server{Handler: NewHandler(reg, ready, extras...), ReadHeaderTimeout: 5 * time.Second},
	}
	go func() { _ = s.srv.Serve(lis) }()
	return s, nil
}

// Addr returns the bound listen address ("127.0.0.1:9464").
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops the listener and any idle connections.
func (s *Server) Close() error { return s.srv.Close() }
