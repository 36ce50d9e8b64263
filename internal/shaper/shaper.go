// Package shaper applies bandwidth and latency shaping to real net.Conn
// traffic — the loopback equivalent of the per-link RSpec properties the
// paper configures on GENI (Figure 1). The shape applies per connection,
// per direction: every conn NewListener accepts or Dial opens gets its own
// pair of token buckets, so a node with k shaped conns can move k times
// the rate. It is not a model of one node's access link, which all of the
// node's conns would share.
package shaper

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Config describes the shape of one connection.
type Config struct {
	// RateBytesPerSec limits throughput in each direction independently.
	// Zero means unlimited.
	RateBytesPerSec int64
	// Burst is the token-bucket depth. Zero defaults to 64 KiB.
	Burst int64
	// Latency is the extra one-way delay applied to connection
	// establishment (per-packet delay emulation is not attempted; for
	// streaming workloads the setup latency and the rate dominate).
	Latency time.Duration
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.RateBytesPerSec < 0 {
		return fmt.Errorf("shaper: negative rate %d", c.RateBytesPerSec)
	}
	if c.Burst < 0 {
		return fmt.Errorf("shaper: negative burst %d", c.Burst)
	}
	if c.Latency < 0 {
		return fmt.Errorf("shaper: negative latency %v", c.Latency)
	}
	return nil
}

// bucket is a monotonic-clock token bucket. It is safe for concurrent use.
type bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens (bytes) per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
	sleep  func(time.Duration)
}

func newBucket(rate, burst int64) *bucket {
	if burst <= 0 {
		burst = 64 << 10
	}
	return &bucket{
		rate:   float64(rate),
		burst:  float64(burst),
		tokens: float64(burst),
		now:    time.Now,
		sleep:  time.Sleep,
	}
}

// take blocks until n bytes' worth of tokens are available and consumes them.
func (b *bucket) take(n int) {
	if b == nil || b.rate <= 0 {
		return
	}
	for n > 0 {
		chunk := float64(n)
		if chunk > b.burst {
			chunk = b.burst
		}
		b.mu.Lock()
		now := b.now()
		if !b.last.IsZero() {
			b.tokens += now.Sub(b.last).Seconds() * b.rate
			if b.tokens > b.burst {
				b.tokens = b.burst
			}
		}
		b.last = now
		var wait time.Duration
		if b.tokens >= chunk {
			b.tokens -= chunk
			n -= int(chunk)
		} else {
			wait = time.Duration((chunk - b.tokens) / b.rate * float64(time.Second))
		}
		b.mu.Unlock()
		if wait > 0 {
			b.sleep(wait)
		}
	}
}

// Conn is a shaped connection.
type Conn struct {
	net.Conn
	down *bucket // applied to Read
	up   *bucket // applied to Write
	// ready ends an accepted conn's setup latency: Read and Write wait
	// for it. Zero (long past) for dialed conns.
	ready time.Time
}

// NewConn wraps c with its own two token buckets, one per direction, both
// from cfg (symmetric, as the paper's access links are).
func NewConn(c net.Conn, cfg Config) (*Conn, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Conn{
		Conn: c,
		down: newBucket(cfg.RateBytesPerSec, cfg.Burst),
		up:   newBucket(cfg.RateBytesPerSec, cfg.Burst),
	}, nil
}

// Read reads from the wrapped conn at the shaped rate.
func (s *Conn) Read(p []byte) (int, error) {
	time.Sleep(time.Until(s.ready))
	n, err := s.Conn.Read(p)
	if n > 0 {
		s.down.take(n)
	}
	return n, err
}

// Write writes to the wrapped conn at the shaped rate.
func (s *Conn) Write(p []byte) (int, error) {
	time.Sleep(time.Until(s.ready))
	// Charge before sending so a burst cannot exceed the bucket.
	s.up.take(len(p))
	return s.Conn.Write(p)
}

// Listener shapes every accepted connection.
type Listener struct {
	net.Listener
	cfg Config
}

// NewListener wraps l so accepted conns are shaped with cfg.
func NewListener(l net.Listener, cfg Config) (*Listener, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Listener{Listener: l, cfg: cfg}, nil
}

// Accept waits for a connection and shapes it. The configured latency is
// charged once per conn, from its own accept, emulating the SYN/ACK
// crossing the access link: the conn's first Read or Write waits for it,
// so Accept returns at once and concurrent dials pay it in parallel.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	sc, _ := NewConn(c, l.cfg) // NewListener validated l.cfg
	sc.ready = time.Now().Add(l.cfg.Latency)
	return sc, nil
}

// Dial connects with the configured setup latency and returns a shaped conn.
func Dial(network, addr string, cfg Config, timeout time.Duration) (net.Conn, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	if cfg.Latency > 0 {
		time.Sleep(cfg.Latency)
	}
	return NewConn(c, cfg)
}
