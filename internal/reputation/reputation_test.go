package reputation

import (
	"testing"
	"time"
)

func TestZeroConfigDisabledNeverQuarantines(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config reports enabled")
	}
	tb := NewTable[int](Config{VerifyFailCost: 4})
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * time.Second
		up := tb.Observe(1, at, ObsVerifyFail)
		if up.Quarantined || tb.State(1, at) == Quarantined {
			t.Fatal("disabled config quarantined a peer")
		}
	}
}

func TestScoresAccumulateAndQuarantine(t *testing.T) {
	cfg := Default()
	tb := NewTable[string](cfg)
	// Default: 4 per verify fail, threshold 10 → third failure trips it.
	now := time.Second
	var up Update
	for i := 0; i < 3; i++ {
		up = tb.Observe("evil", now, ObsVerifyFail)
	}
	if !up.Quarantined || tb.State("evil", now) != Quarantined {
		t.Fatalf("three rapid verify failures did not quarantine: %+v", up)
	}
	if want := now + cfg.QuarantineFor; up.Until != want {
		t.Fatalf("quarantine until %v, want %v", up.Until, want)
	}
	if !tb.Quarantined("evil", now) {
		t.Fatal("Quarantined read disagrees with update")
	}
	if tb.Quarantined("evil", up.Until) {
		t.Fatal("still quarantined at window end")
	}
	if st := tb.State("evil", up.Until); st != Probation {
		t.Fatalf("state after window = %v, want probation", st)
	}
	if tb.Quarantined("bystander", now) {
		t.Fatal("unobserved peer is quarantined")
	}
}

func TestDecayFullyRehabilitates(t *testing.T) {
	cfg := Default()
	tb := NewTable[int](cfg)
	tb.Observe(1, 0, ObsVerifyFail)
	s0 := tb.Score(1, 0)
	if s0 != cfg.VerifyFailCost {
		t.Fatalf("score after one failure = %v, want %v", s0, cfg.VerifyFailCost)
	}
	half := tb.Score(1, cfg.DecayHalfLife)
	if half < s0*0.49 || half > s0*0.51 {
		t.Fatalf("score after one half-life = %v, want ~%v", half, s0/2)
	}
	// Many half-lives later the score must snap to exactly zero so the
	// peer ties a clean one.
	if s := tb.Score(1, 100*cfg.DecayHalfLife); s != 0 {
		t.Fatalf("score after 100 half-lives = %v, want exactly 0", s)
	}
	// Score reads must not mutate: an Observe at that instant sees the
	// same decayed base.
	up := tb.Observe(1, 100*cfg.DecayHalfLife, ObsVerifyFail)
	if up.Score != cfg.VerifyFailCost {
		t.Fatalf("post-decay failure score = %v, want %v", up.Score, cfg.VerifyFailCost)
	}
}

func TestSuccessRewardAndProbationClear(t *testing.T) {
	cfg := Default()
	cfg.DecayHalfLife = 0 // isolate the reward/probation arithmetic
	tb := NewTable[int](cfg)
	tb.Observe(1, 0, ObsVerifyFail)
	up := tb.Observe(1, 0, ObsSuccess)
	if up.Score != cfg.VerifyFailCost-cfg.SuccessReward {
		t.Fatalf("score after success = %v, want %v", up.Score, cfg.VerifyFailCost-cfg.SuccessReward)
	}
	// Drive into quarantine, exit the window, then clear via probation.
	entered := false
	for i := 0; i < 3; i++ {
		up = tb.Observe(1, 0, ObsVerifyFail)
		entered = entered || up.Quarantined
	}
	if !entered || tb.State(1, 0) != Quarantined {
		t.Fatalf("expected quarantine, got %+v", up)
	}
	after := up.Until
	for i := 0; i < cfg.ProbationSuccesses; i++ {
		if tb.State(1, after) != Probation {
			t.Fatalf("success %d: state %v, want probation", i, tb.State(1, after))
		}
		up = tb.Observe(1, after, ObsSuccess)
	}
	if !up.Cleared || up.Score != 0 || tb.State(1, after) != Healthy {
		t.Fatalf("probation did not clear: %+v", up)
	}
}

func TestPenaltyDuringProbationRequarantines(t *testing.T) {
	cfg := Default()
	cfg.DecayHalfLife = 0
	tb := NewTable[int](cfg)
	var up Update
	for i := 0; i < 3; i++ {
		up = tb.Observe(1, 0, ObsVerifyFail)
	}
	after := up.Until
	// Score is 12 ≥ threshold 10; one more failure on probation must
	// reopen the window immediately.
	up = tb.Observe(1, after, ObsVerifyFail)
	if !up.Quarantined || up.Until != after+cfg.QuarantineFor {
		t.Fatalf("probation penalty did not re-quarantine: %+v", up)
	}
	if got := tb.State(1, after+cfg.QuarantineFor-1); got != Quarantined {
		t.Fatalf("state inside the reopened window: %v, want quarantined", got)
	}
}

func TestObservationNames(t *testing.T) {
	names := map[string]string{
		ObsSuccess.String():    "success",
		ObsVerifyFail.String(): "verify_fail",
		ObsStaleHave.String():  "stale_have",
		ObsSlowServe.String():  "slow_serve",
		ObsTimeout.String():    "timeout",
	}
	for got, want := range names {
		if got != want {
			t.Errorf("String(): got %q want %q", got, want)
		}
	}
}

func TestServeObservation(t *testing.T) {
	const floor = 4 << 10
	for _, tc := range []struct {
		name    string
		floor   int64
		bytes   int64
		elapsed time.Duration
		want    Observation
	}{
		{"below the floor", floor, floor - 1, time.Second, ObsSlowServe},
		{"exactly at the floor", floor, floor, time.Second, ObsSuccess},
		{"above the floor", floor, 2 * floor, time.Second, ObsSuccess},
		{"same bytes, twice the time", floor, floor, 2 * time.Second, ObsSlowServe},
		{"zero elapsed is too fast to time", floor, 1, 0, ObsSuccess},
		{"floor 0 never charges", 0, 1, time.Hour, ObsSuccess},
	} {
		if got := (Config{SlowServeBytesPerSec: tc.floor}).ServeObservation(tc.bytes, tc.elapsed); got != tc.want {
			t.Errorf("%s: ServeObservation(%d, %v) = %v, want %v", tc.name, tc.bytes, tc.elapsed, got, tc.want)
		}
	}
}
