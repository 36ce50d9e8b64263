package shaper

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{RateBytesPerSec: -1},
		{Burst: -1},
		{Latency: -time.Second},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v): want error", cfg)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config should be valid: %v", err)
	}
}

// fakeClock drives a bucket deterministically.
type fakeClock struct {
	mu      sync.Mutex
	t       time.Time
	slept   time.Duration
	maxIter int
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) sleep(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
	f.slept += d
	f.maxIter--
	if f.maxIter < 0 {
		panic("bucket livelock")
	}
}

func TestBucketRate(t *testing.T) {
	b := newBucket(1000, 500) // 1000 B/s, 500 B burst
	fc := &fakeClock{t: time.Unix(0, 0), maxIter: 1000}
	b.now, b.sleep = fc.now, fc.sleep

	// First 500 bytes ride the initial burst; the next 1000 need 1 second.
	b.take(500)
	if fc.slept != 0 {
		t.Errorf("burst should not sleep, slept %v", fc.slept)
	}
	b.take(1000)
	if fc.slept < 900*time.Millisecond || fc.slept > 1100*time.Millisecond {
		t.Errorf("1000 bytes at 1000 B/s slept %v, want ~1s", fc.slept)
	}
}

func TestBucketUnlimited(t *testing.T) {
	b := newBucket(0, 0)
	fc := &fakeClock{t: time.Unix(0, 0), maxIter: 10}
	b.now, b.sleep = fc.now, fc.sleep
	b.take(1 << 30)
	if fc.slept != 0 {
		t.Error("unlimited bucket slept")
	}
	var nilBucket *bucket
	nilBucket.take(100) // must not panic
}

func TestShapedPipeThroughput(t *testing.T) {
	// Real-time test with generous tolerances: 200 KiB at 1 MiB/s should
	// take at least ~100 ms (allowing the 64 KiB default burst).
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	shaped, err := NewConn(client, Config{RateBytesPerSec: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const total = 200 << 10
	go func() {
		_, _ = io.Copy(io.Discard, server)
	}()
	start := time.Now()
	if _, err := shaped.Write(bytes.Repeat([]byte{1}, total)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// (200 KiB - 64 KiB burst) / 1 MiB/s ~= 133 ms minimum.
	if elapsed < 100*time.Millisecond {
		t.Errorf("200 KiB at 1 MiB/s took %v, want >= ~130ms", elapsed)
	}
}

func TestListenerAndDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shapedLn, err := NewListener(ln, Config{Latency: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer shapedLn.Close()

	done := make(chan error, 1)
	go func() {
		c, err := shapedLn.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			done <- err
			return
		}
		_, err = c.Write(buf)
		done <- err
	}()

	start := time.Now()
	c, err := Dial("tcp", ln.Addr().String(), Config{Latency: 10 * time.Millisecond}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if time.Since(start) < 10*time.Millisecond {
		t.Error("dial latency not applied")
	}
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Errorf("echo = %q", buf)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAcceptsShareLatency dials a shaped listener K times at once.
// Each accepted conn owes the link's latency from its own accept, so every
// dial's first exchange finishes within about 2×Latency; a listener that
// slept Latency inside Accept would make the last dial wait K×Latency.
func TestConcurrentAcceptsShareLatency(t *testing.T) {
	const (
		k       = 8
		latency = 50 * time.Millisecond
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shapedLn, err := NewListener(ln, Config{Latency: latency})
	if err != nil {
		t.Fatal(err)
	}
	defer shapedLn.Close()
	go func() {
		for {
			c, err := shapedLn.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, 1)
				if _, err := io.ReadFull(c, buf); err == nil {
					_, _ = c.Write(buf)
				}
			}()
		}
	}()

	start := time.Now()
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		go func() {
			c, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if _, err := c.Write([]byte{1}); err != nil {
				errs <- err
				return
			}
			_, err = io.ReadFull(c, make([]byte, 1))
			errs <- err
		}()
	}
	for i := 0; i < k; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed >= 2*latency {
		t.Errorf("%d concurrent dials took %v, want < %v (one latency each, in parallel)", k, elapsed, 2*latency)
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial("tcp", "127.0.0.1:1", Config{}, 200*time.Millisecond); err == nil {
		t.Error("want dial error")
	}
	if _, err := Dial("tcp", "x", Config{RateBytesPerSec: -1}, time.Second); err == nil {
		t.Error("want config error")
	}
	if _, err := NewConn(nil, Config{Latency: -1}); err == nil {
		t.Error("want config error")
	}
	if _, err := NewListener(nil, Config{Burst: -1}); err == nil {
		t.Error("want config error")
	}
}
