package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"p2psplice/internal/tracker"
)

// A client that connects and never finishes its request headers must be
// disconnected by the tracker, not held open (bare http.ListenAndServe
// held it forever); a well-behaved client on the same server is
// unaffected.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	prevHeader, prevRead := readHeaderTimeout, readTimeout
	readHeaderTimeout, readTimeout = 100*time.Millisecond, 200*time.Millisecond
	t.Cleanup(func() { readHeaderTimeout, readTimeout = prevHeader, prevRead })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", tracker.NewServer().Handler())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v", err)
		}
	})

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request, then silence.
	if _, err := conn.Write([]byte("GET /announce HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	// The read returns when the server gives up on the request — with the
	// connection closed (possibly after a 408) — never by our own deadline,
	// which is far beyond the server's.
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("slow-header connection still held after %v: %v", time.Since(begin), err)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/no-such-path")
	if err != nil {
		t.Fatalf("request after a slow client: %v", err)
	}
	resp.Body.Close()
}
