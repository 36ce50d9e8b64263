package core

import (
	"sync"
	"time"
)

// AggregateMeter measures the *aggregate* download bandwidth across all
// concurrent transfers, which is the B that Equation 1 needs. Every client
// keeps one: the real node, the CDN client and an estimating emulated
// peer. The paper simulated a known bandwidth on GENI and cites
// Libswift-style estimation for the real world; the experiment harness
// ablates this meter against that oracle.
//
// Observing each segment in isolation — Observe(size, ownElapsed) — is
// systematically wrong under pooling: when k segments share one access
// link, each one's private rate is ~B/k, so the EWMA converges to B/k,
// Equation 1 computes a pool of max(floor((B/k)·T/W), 1), and the pool
// collapses toward 1 exactly when pooling matters. A pooling client
// instead brackets each transfer with Start and Finish and Delivers the
// bytes every transfer moves; at each Finish the meter observes
// delivered/elapsed over the busy interval since the last observation —
// the aggregate link rate, independent of how many transfers shared it.
// A client that fetches one segment at a time may Observe each fetch
// directly.
//
// The meter is clock-agnostic: callers pass the current time (virtual or
// wall) to Start/Finish, so it is unit-testable and usable from the
// deterministic emulation. The zero value is ready to use. Methods are
// safe for concurrent use.
type AggregateMeter struct {
	mu        sync.Mutex // guards est, inflight, busyStart and delivered
	est       float64    // bytes/second; 0 until the first observation
	inflight  int
	busyStart time.Duration // start of the current measurement window
	delivered int64         // payload bytes since busyStart
}

// ewmaAlpha is the smoothing factor: responsive enough to track
// congestion onset within a few segment downloads without chasing
// single-transfer noise.
const ewmaAlpha = 0.3

// minMeterWindow is the shortest interval worth observing: windows below
// it (e.g. two transfers completing in the same burst) fold into the
// next observation instead of producing a noisy near-zero-division rate.
const minMeterWindow = 20 * time.Millisecond

// Start records that a transfer began at now. The first transfer of a
// busy period opens a fresh measurement window; idle time between busy
// periods is never counted as zero-rate bandwidth.
func (m *AggregateMeter) Start(now time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.inflight == 0 {
		m.busyStart = now
		m.delivered = 0
	}
	m.inflight++
}

// Deliver accumulates n payload bytes received on any transfer.
func (m *AggregateMeter) Deliver(n int64) {
	if n <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.delivered += n
}

// Finish records that a transfer ended (completed or abandoned) at now
// and folds the window's aggregate rate into the estimate.
func (m *AggregateMeter) Finish(now time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.inflight > 0 {
		m.inflight--
	}
	elapsed := now - m.busyStart
	if m.delivered > 0 && elapsed >= minMeterWindow {
		m.observeLocked(m.delivered, elapsed)
		m.busyStart = now
		m.delivered = 0
	}
	if m.inflight == 0 {
		// Idle: drop any sub-window residue; Start reopens the window.
		m.delivered = 0
	}
}

// Observe folds one transfer of n bytes taking elapsed time into the
// estimate, for a client whose transfers never overlap. Non-positive
// inputs are ignored.
func (m *AggregateMeter) Observe(n int64, elapsed time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observeLocked(n, elapsed)
}

// observeLocked is Observe with m.mu held.
func (m *AggregateMeter) observeLocked(n int64, elapsed time.Duration) {
	if n <= 0 || elapsed <= 0 {
		return
	}
	rate := float64(n) / elapsed.Seconds()
	if m.est == 0 {
		m.est = rate
	} else {
		m.est = ewmaAlpha*rate + (1-ewmaAlpha)*m.est
	}
}

// Estimate returns the aggregate bandwidth estimate in bytes/second, or
// fallback before the first observation.
func (m *AggregateMeter) Estimate(fallback int64) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.est == 0 {
		return fallback
	}
	return int64(m.est)
}

// InFlight returns the number of transfers currently counted as active.
func (m *AggregateMeter) InFlight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inflight
}
