// Package debughttp is the opt-in operational endpoint for the real TCP
// stack. Every daemon (cmd/peer, cmd/tracker, cmd/seeder) and the CDN
// origin can mount one on a -debug-addr listener, serving:
//
//	GET /metrics  Prometheus text exposition of the process registry
//	GET /healthz  liveness probe ("ok" plus uptime)
//	GET /readyz   readiness probe (503 until the daemon reports ready)
//	/debug/pprof/ the stdlib profiler (heap, goroutine, CPU, trace, ...)
//
// Liveness and readiness are distinct on purpose: /healthz answers "is
// the process serving HTTP" and never fails while the listener is up,
// while /readyz asks the daemon's Ready callback — a joining peer that
// has no manifest or no live connection yet is alive but not ready, and
// an orchestrator should route traffic only on the latter.
//
// The package deliberately lives outside the deterministic core: it reads
// the wall clock for uptime and it serves real HTTP. The registry it
// exposes is the same one cmd/peer's -trace exit dump renders — both go
// through trace.Registry.Snap, so a scrape and a dump can never disagree
// (the "one snapshot path" contract).
package debughttp

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"sync"
	"time"

	"p2psplice/internal/trace"
)

// Config parameterizes Start.
type Config struct {
	// Addr is the listen address, e.g. "127.0.0.1:6060". Required.
	Addr string
	// Registry backs /metrics. A nil registry serves an empty (but
	// valid) exposition, so callers can wire the flag unconditionally.
	Registry *trace.Registry
	// Ready backs /readyz: return nil when the daemon can take traffic,
	// or an error naming what is still missing (served in the 503 body).
	// Nil means always ready, so liveness-only daemons need no wiring.
	Ready func() error
}

// Server is a running debug endpoint. Close stops the listener and joins
// every goroutine the server started.
type Server struct {
	ln    net.Listener
	srv   *http.Server
	wg    sync.WaitGroup
	once  sync.Once
	start time.Time
}

// Handler returns the debug mux for reg: /metrics, /healthz, /readyz,
// and /debug/pprof/*. ready may be nil (always ready). Exported so
// servers with their own listener (the CDN origin, tests) can mount the
// same surface Start serves.
func Handler(reg *trace.Registry, start time.Time, ready func() error) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Render to a buffer first so a mid-write registry error cannot
		// emit a half exposition with a 200 status.
		var b strings.Builder
		if err := reg.WriteProm(&b); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		// Client disconnect mid-scrape is not actionable server-side.
		_, _ = fmt.Fprint(w, b.String())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// Client disconnect mid-probe is not actionable server-side.
		_, _ = fmt.Fprintf(w, "ok uptime=%s\n", time.Since(start).Round(time.Second))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ready != nil {
			if err := ready(); err != nil {
				http.Error(w, "not ready: "+err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		// Client disconnect mid-probe is not actionable server-side.
		_, _ = fmt.Fprint(w, "ready\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Request-read bounds: a client that trickles (or never sends) its
// request is disconnected, not held. Responses stay unbounded — a pprof
// profile streams for its ?seconds=. Variables so a test can shorten them.
var (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
)

// Start listens on cfg.Addr and serves the debug surface until Close.
func Start(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("debughttp: empty listen address")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("debughttp: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{ln: ln, start: time.Now()}
	s.srv = &http.Server{
		Handler:           Handler(cfg.Registry, s.start, cfg.Ready),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "debughttp: serve: %v\n", err)
		}
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down and waits for the serve goroutine to
// exit. Safe to call more than once.
func (s *Server) Close() error {
	var err error
	s.once.Do(func() {
		err = s.srv.Close()
		s.wg.Wait()
	})
	return err
}
