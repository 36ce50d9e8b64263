package core

import (
	"sync"
	"testing"
	"time"
)

// TestMeterConcurrentDownloadsEstimateAggregate is the regression test
// for the Eq. 1 bandwidth-input bug: k concurrent equal-rate downloads
// sharing a B-byte/s link must estimate ≈B. Observing each transfer with
// its own wall time converges to ~B/k on the same schedule, which this
// test also demonstrates so the failure mode stays documented.
func TestMeterConcurrentDownloadsEstimateAggregate(t *testing.T) {
	const (
		linkB = int64(100_000) // bytes/s shared by all transfers
		k     = 4
		segW  = int64(50_000) // bytes per segment
	)
	var m, naive AggregateMeter

	// k transfers start together and share the link fairly, so all k
	// complete at t = k*W/B = 2s, each having privately averaged B/k.
	total := time.Duration(float64(k*segW) / float64(linkB) * float64(time.Second))
	for i := 0; i < k; i++ {
		m.Start(0)
	}
	// Bytes arrive continuously; model them in 100ms batches.
	const step = 100 * time.Millisecond
	for at := step; at <= total; at += step {
		m.Deliver(linkB / 10)
	}
	for i := 0; i < k; i++ {
		m.Finish(total)
		naive.Observe(segW, total) // what download.go used to do
	}

	got := m.Estimate(0)
	if got < linkB*8/10 || got > linkB*12/10 {
		t.Fatalf("aggregate meter estimates %d B/s for a %d B/s link (want within 20%%)", got, linkB)
	}
	if m.InFlight() != 0 {
		t.Fatalf("inflight = %d after all finishes", m.InFlight())
	}
	// The old input really does collapse to B/k.
	old := naive.Estimate(0)
	if old > linkB/2 {
		t.Fatalf("per-segment observation gave %d B/s; expected ~B/k = %d (test premise broken)",
			old, linkB/int64(k))
	}
}

// TestMeterSequentialMatchesSimpleObservation: with no concurrency the
// meter degenerates to the plain per-transfer estimate.
func TestMeterSequentialMatchesSimpleObservation(t *testing.T) {
	var m AggregateMeter
	now := time.Duration(0)
	for i := 0; i < 3; i++ {
		m.Start(now)
		m.Deliver(64_000)
		now += time.Second
		m.Finish(now)
		// 1s idle gap between transfers must not dilute the rate.
		now += time.Second
	}
	if got := m.Estimate(0); got != 64_000 {
		t.Fatalf("estimate = %d, want 64000 (idle time leaked into the window?)", got)
	}
}

// TestMeterSubWindowCompletionsFold: completions inside the minimum
// window produce no bogus sample; their bytes fold into the next one.
func TestMeterSubWindowCompletionsFold(t *testing.T) {
	var m AggregateMeter
	m.Start(0)
	m.Start(0)
	m.Deliver(1_000)
	m.Finish(5 * time.Millisecond) // below minMeterWindow: no sample
	if got := m.Estimate(-1); got != -1 {
		t.Fatalf("sub-window completion produced a sample: estimate %d", got)
	}
	m.Deliver(99_000)
	m.Finish(time.Second)
	if got := m.Estimate(-1); got != 100_000 {
		t.Fatalf("estimate = %d, want 100000 (early bytes lost?)", got)
	}
}

// TestMeterUnmatchedFinishClamps: a Finish without a Start (possible on
// teardown races) must not wedge the in-flight count below zero.
func TestMeterUnmatchedFinishClamps(t *testing.T) {
	var m AggregateMeter
	m.Finish(time.Second)
	if m.InFlight() != 0 {
		t.Fatalf("inflight = %d, want 0", m.InFlight())
	}
	m.Start(2 * time.Second)
	m.Deliver(10_000)
	m.Finish(3 * time.Second)
	if got := m.Estimate(0); got != 10_000 {
		t.Fatalf("estimate = %d, want 10000", got)
	}
}

func TestEstimatorFirstSample(t *testing.T) {
	var m AggregateMeter
	if got := m.Estimate(777); got != 777 {
		t.Errorf("fresh meter estimate = %d, want the fallback 777", got)
	}
	m.Observe(1024, time.Second)
	if got := m.Estimate(777); got != 1024 {
		t.Errorf("first sample estimate = %d, want 1024", got)
	}
}

func TestEstimatorSmoothing(t *testing.T) {
	var m AggregateMeter
	m.Observe(1000, time.Second)
	m.Observe(2000, time.Second)
	want := int64(ewmaAlpha*2000 + (1-ewmaAlpha)*1000)
	if got := m.Estimate(0); got != want {
		t.Errorf("estimate = %d, want %d", got, want)
	}
}

func TestEstimatorConvergence(t *testing.T) {
	var m AggregateMeter
	m.Observe(16*1024, time.Second)
	for i := 0; i < 50; i++ {
		m.Observe(64*1024, time.Second)
	}
	got := m.Estimate(0)
	if got < 63*1024 || got > 65*1024 {
		t.Errorf("estimate = %d, want ~%d", got, 64*1024)
	}
}

func TestEstimatorIgnoresBadSamples(t *testing.T) {
	var m AggregateMeter
	m.Observe(0, time.Second)
	m.Observe(-5, time.Second)
	m.Observe(100, 0)
	m.Observe(100, -time.Second)
	if got := m.Estimate(-1); got != -1 {
		t.Errorf("bad samples were recorded: estimate %d", got)
	}
}

// TestEstimatorConcurrent drives both feeds from several goroutines: run
// under -race it checks the meter's locking.
func TestEstimatorConcurrent(t *testing.T) {
	var m AggregateMeter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Observe(1024, time.Second)
				m.Start(0)
				m.Deliver(1024)
				m.Finish(time.Second)
				_ = m.Estimate(0)
			}
		}()
	}
	wg.Wait()
	// Overlapping windows may fold two goroutines' bytes into one sample,
	// never fewer than one transfer's.
	if got := m.Estimate(0); got < 1024 {
		t.Errorf("estimate = %d, want at least 1024", got)
	}
	if m.InFlight() != 0 {
		t.Errorf("inflight = %d after every finish, want 0", m.InFlight())
	}
}
