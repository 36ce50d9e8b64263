package tracker

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// retryClient wires a Client to srv with sleeps captured instead of slept.
func retryClient(srv *httptest.Server) (*Client, *[]time.Duration) {
	c := NewClient(srv.URL, srv.Client())
	var slept []time.Duration
	c.sleep = func(d time.Duration) { slept = append(slept, d) }
	return c, &slept
}

// Transient class: 5xx responses are retried until one succeeds.
func TestRetryOn5xx(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "backend restarting", http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write([]byte(`{"peers":[]}`))
	}))
	defer srv.Close()
	c, slept := retryClient(srv)
	body, err := c.do(http.MethodGet, "/announce", "", nil)
	if err != nil {
		t.Fatalf("do after two 503s: %v", err)
	}
	if string(body) != `{"peers":[]}` {
		t.Fatalf("unexpected body %q", body)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3 (two 503s then success)", got)
	}
	if len(*slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(*slept))
	}
	if (*slept)[0] != 100*time.Millisecond || (*slept)[1] != 200*time.Millisecond {
		t.Errorf("backoff delays %v, want [100ms 200ms]", *slept)
	}
}

// Transient class: transport-level failures (connection refused) are
// retried and ultimately reported transient.
func TestRetryOnTransportError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close() // nothing listens: every attempt fails at the transport
	c, slept := retryClient(srv)
	_, err := c.do(http.MethodGet, "/announce", "", nil)
	if err == nil {
		t.Fatal("do against a closed server succeeded")
	}
	if !IsTransient(err) {
		t.Errorf("transport failure not classified transient: %v", err)
	}
	if len(*slept) != 2 {
		t.Errorf("slept %d times, want 2 (three total attempts)", len(*slept))
	}
}

// Permanent class: a 4xx fails fast after exactly one request.
func TestNoRetryOn4xx(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "unknown swarm", http.StatusNotFound)
	}))
	defer srv.Close()
	c, slept := retryClient(srv)
	_, err := c.do(http.MethodGet, "/manifest", "", nil)
	if err == nil {
		t.Fatal("do against a 404 succeeded")
	}
	if IsTransient(err) {
		t.Errorf("404 classified transient: %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1 (permanent errors fail fast)", got)
	}
	if len(*slept) != 0 {
		t.Errorf("slept %v before a permanent failure", *slept)
	}
}

// Timeouts are transport errors: retried, then reported transient.
func TestRetryOnTimeout(t *testing.T) {
	var hits atomic.Int64
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		<-block
	}))
	// Release the hung handlers before Close, which waits for them
	// (defers run last-in first-out).
	defer srv.Close()
	defer close(block)
	srv.Client().Timeout = 50 * time.Millisecond
	c, slept := retryClient(srv)
	_, err := c.do(http.MethodGet, "/announce", "", nil)
	if err == nil {
		t.Fatal("do against a hung server succeeded")
	}
	if !IsTransient(err) {
		t.Errorf("timeout not classified transient: %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3", got)
	}
	if len(*slept) != 2 {
		t.Errorf("slept %d times, want 2", len(*slept))
	}
}

// POST bodies are rebuilt per attempt: the retried request carries the
// full payload, not a drained reader.
func TestRetryRebuildsRequestBody(t *testing.T) {
	var hits atomic.Int64
	want := `{"hello":"tracker"}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := make([]byte, len(want)+1)
		n, _ := r.Body.Read(body)
		if string(body[:n]) != want {
			t.Errorf("attempt %d saw body %q, want %q", hits.Load()+1, body[:n], want)
		}
		if hits.Add(1) == 1 {
			http.Error(w, "try again", http.StatusBadGateway)
			return
		}
		_, _ = w.Write([]byte("{}"))
	}))
	defer srv.Close()
	c, _ := retryClient(srv)
	if _, err := c.do(http.MethodPost, "/publish", "application/json", []byte(want)); err != nil {
		t.Fatalf("do: %v", err)
	}
	if got := hits.Load(); got != 2 {
		t.Errorf("server saw %d requests, want 2", got)
	}
}

func TestIsTransientOnForeignError(t *testing.T) {
	if IsTransient(nil) {
		t.Error("IsTransient(nil) = true")
	}
	if IsTransient(http.ErrServerClosed) {
		t.Error("IsTransient on a non-tracker error = true")
	}
}
