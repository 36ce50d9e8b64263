package simpeer

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"p2psplice/internal/player"
)

func TestSummarize(t *testing.T) {
	ms := []player.Metrics{
		{StartupTime: 2 * time.Second, Stalls: 3, TotalStall: 6 * time.Second, State: player.StateFinished},
		{StartupTime: 4 * time.Second, Stalls: 1, TotalStall: 2 * time.Second, State: player.StateFinished},
		{StartupTime: 6 * time.Second, Stalls: 5, TotalStall: 10 * time.Second, State: player.StatePlaying},
	}
	s := Summarize(ms)
	if s.N != 3 {
		t.Errorf("N = %d, want 3", s.N)
	}
	if s.MeanStalls != 3 {
		t.Errorf("MeanStalls = %v, want 3", s.MeanStalls)
	}
	if s.MaxStalls != 5 {
		t.Errorf("MaxStalls = %d, want 5", s.MaxStalls)
	}
	if s.MeanStallSeconds != 6 {
		t.Errorf("MeanStallSeconds = %v, want 6", s.MeanStallSeconds)
	}
	if s.MaxStallSeconds != 10 {
		t.Errorf("MaxStallSeconds = %v, want 10", s.MaxStallSeconds)
	}
	if s.MeanStartupSeconds != 4 {
		t.Errorf("MeanStartupSeconds = %v, want 4", s.MeanStartupSeconds)
	}
	if s.MaxStartupSeconds != 6 {
		t.Errorf("MaxStartupSeconds = %v, want 6", s.MaxStartupSeconds)
	}
	if s.Unfinished != 1 {
		t.Errorf("Unfinished = %d, want 1", s.Unfinished)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.MeanStalls != 0 || s.MaxStalls != 0 {
		t.Errorf("empty summary not zero: %+v", s)
	}
}

func TestQuickSummarizeBounds(t *testing.T) {
	f := func(stalls []uint8) bool {
		ms := make([]player.Metrics, len(stalls))
		var maxStalls int
		var sum float64
		for i, st := range stalls {
			ms[i] = player.Metrics{Stalls: int(st)}
			if int(st) > maxStalls {
				maxStalls = int(st)
			}
			sum += float64(st)
		}
		s := Summarize(ms)
		if len(stalls) == 0 {
			return s.N == 0
		}
		mean := sum / float64(len(stalls))
		return s.N == len(stalls) && s.MaxStalls == maxStalls &&
			math.Abs(s.MeanStalls-mean) < 1e-9 && s.MeanStalls <= float64(s.MaxStalls)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
