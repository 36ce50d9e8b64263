package fault

import (
	"sync"
	"time"
)

// Scheduler fires a Plan on wall-clock timers for the real TCP stack.
// Edge times are relative to Start. The fire callback runs on timer
// goroutines and must be safe for concurrent use; same-instant edges
// may fire in any order (wall-clock runs have no total order to
// preserve — the deterministic compilation lives in simpeer).
type Scheduler struct {
	mu      sync.Mutex // guards timers, stopped
	timers  []*time.Timer
	stopped bool
}

// Start schedules every edge of the plan — each window's beginning and
// end — and returns a handle that cancels the outstanding timers on Stop.
func Start(p Plan, fire func(Edge)) *Scheduler {
	s := &Scheduler{}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range p.Edges() {
		s.timers = append(s.timers, time.AfterFunc(e.At, func() {
			s.mu.Lock()
			dead := s.stopped
			s.mu.Unlock()
			if !dead {
				fire(e)
			}
		}))
	}
	return s
}

// Stop cancels all pending edges. Edges already in flight may still
// complete; edges not yet fired are dropped.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	s.stopped = true
	for _, t := range s.timers {
		t.Stop()
	}
	s.timers = nil
}
