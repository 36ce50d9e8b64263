package debughttp

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"p2psplice/internal/trace"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServeMetricsHealthzPprof(t *testing.T) {
	reg := trace.NewRegistry()
	reg.Counter("requests_total").Add(7)
	reg.SecondsHistogram("latency_seconds").Observe(1_500_000)

	s, err := Start(Config{Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d, want 200", code)
	}
	pm, err := trace.ParsePromText(body)
	if err != nil {
		t.Fatalf("/metrics is not valid exposition: %v\n%s", err, body)
	}
	if v, ok := pm.Value("requests_total"); !ok || v != 7 {
		t.Errorf("requests_total = %v, %v; want 7, true", v, ok)
	}
	if v, ok := pm.Value("latency_seconds_sum"); !ok || v != 1.5 {
		t.Errorf("latency_seconds_sum = %v, %v; want 1.5, true", v, ok)
	}

	// The scrape must agree with the text dump: one snapshot path.
	var txt strings.Builder
	if err := reg.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "requests_total") {
		t.Errorf("WriteText missing requests_total:\n%s", txt.String())
	}

	code, body = get(t, base+"/healthz")
	if code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Errorf("/healthz = %d %q, want 200 ok...", code, body)
	}

	code, body = get(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d, want 200 with profile index", code)
	}
}

func TestNilRegistryServesEmptyExposition(t *testing.T) {
	s, err := Start(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, body := get(t, "http://"+s.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d, want 200", code)
	}
	if _, err := trace.ParsePromText(body); err != nil {
		t.Fatalf("empty exposition must still parse: %v", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	s, err := Start(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStartRequiresAddr(t *testing.T) {
	if _, err := Start(Config{}); err == nil {
		t.Fatal("Start with empty addr must fail")
	}
}

// A client that connects and never finishes its request headers must be
// disconnected by the server, not held open; a well-behaved client on
// the same server is unaffected.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	prevHeader, prevRead := readHeaderTimeout, readTimeout
	readHeaderTimeout, readTimeout = 100*time.Millisecond, 200*time.Millisecond
	t.Cleanup(func() { readHeaderTimeout, readTimeout = prevHeader, prevRead })

	srv, err := Start(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request line, then silence.
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	// The read returns when the server gives up on the request: with
	// the connection closed (possibly after a 408), never by our own
	// deadline, which is far beyond the server's.
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("slow-header connection still held after %v: %v", time.Since(begin), err)
	}

	if code, body := get(t, "http://"+srv.Addr()+"/healthz"); code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Fatalf("healthz after a slow client = %d %q", code, body)
	}
}
