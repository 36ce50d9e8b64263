// Command tracker runs the swarm rendezvous service.
//
// Usage:
//
//	tracker [-listen 127.0.0.1:7070] [-ttl 2m]
//	        [-debug-addr 127.0.0.1:6060]
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"p2psplice/internal/debughttp"
	"p2psplice/internal/trace"
	"p2psplice/internal/tracker"
)

// The tracker's read limits, debughttp's: a client that never finishes
// its request is disconnected, not left pinning a goroutine and a socket.
// Variables so a test can shorten them.
var (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
)

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout}
}

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:7070", "HTTP listen address")
		ttl       = flag.Duration("ttl", tracker.DefaultPeerTTL, "announce freshness window")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty = off)")
	)
	flag.Parse()

	opts := []tracker.Option{tracker.WithPeerTTL(*ttl)}
	var reg *trace.Registry
	if *debugAddr != "" {
		reg = trace.NewRegistry()
		opts = append(opts, tracker.WithMetrics(reg))
	}
	srv := tracker.NewServer(opts...)

	if *debugAddr != "" {
		dbg, err := debughttp.Start(debughttp.Config{Addr: *debugAddr, Registry: reg})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracker:", err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Println("debug endpoint on http://" + dbg.Addr())
	}

	fmt.Printf("tracker listening on http://%s (peer TTL %v)\n", *listen, *ttl)
	if err := newHTTPServer(*listen, srv.Handler()).ListenAndServe(); err != nil {
		fmt.Fprintln(os.Stderr, "tracker:", err)
		os.Exit(1)
	}
}
