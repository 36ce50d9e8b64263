package core

import (
	"sync"
	"time"
)

// AggregateMeter measures the *aggregate* download bandwidth across all
// concurrent transfers, which is the B that Equation 1 needs.
//
// Observing each segment in isolation — Observe(size, ownElapsed) — is
// systematically wrong under pooling: when k segments share one access
// link, each one's private rate is ~B/k, so the EWMA converges to B/k,
// Equation 1 computes a pool of max(floor((B/k)·T/W), 1), and the pool
// collapses toward 1 exactly when pooling matters. The meter instead
// accumulates delivered bytes across *all* in-flight transfers and, at
// each completion, observes delivered/elapsed over the busy interval
// since the last observation — the aggregate link rate, independent of
// how many transfers shared it.
//
// The meter is clock-agnostic: callers pass the current time (virtual or
// wall) to Start/Finish, so it is unit-testable and usable from the
// deterministic emulation. Methods are safe for concurrent use.
type AggregateMeter struct {
	mu        sync.Mutex // guards est, inflight, busyStart and delivered
	est       *BandwidthEstimator
	inflight  int
	busyStart time.Duration // start of the current measurement window
	delivered int64         // payload bytes since busyStart
}

// minMeterWindow is the shortest interval worth observing: windows below
// it (e.g. two transfers completing in the same burst) fold into the
// next observation instead of producing a noisy near-zero-division rate.
const minMeterWindow = 20 * time.Millisecond

// NewAggregateMeter returns a meter smoothing with alpha in (0, 1].
func NewAggregateMeter(alpha float64) (*AggregateMeter, error) {
	est, err := NewBandwidthEstimator(alpha)
	if err != nil {
		return nil, err
	}
	return &AggregateMeter{est: est}, nil
}

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
		m.est.Observe(m.delivered, elapsed)
		m.busyStart = now
		m.delivered = 0
	}
	if m.inflight == 0 {
		// Idle: drop any sub-window residue; Start reopens the window.
		m.delivered = 0
	}
}

// Estimate returns the aggregate bandwidth estimate in bytes/second, or
// 0 before the first observation.
func (m *AggregateMeter) Estimate() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.est.Estimate()
}

// Samples returns the number of rate observations folded in.
func (m *AggregateMeter) Samples() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.est.Samples()
}

// InFlight returns the number of transfers currently counted as active.
func (m *AggregateMeter) InFlight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inflight
}
