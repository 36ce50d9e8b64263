package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself records none yet). Times are nanoseconds
// since the recorder was created; Parent is 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// spanRecorder keeps spans in memory until the pass ends. A nil
// recorder records nothing, so untraced repetitions run the same code.
type spanRecorder struct {
	mu    sync.Mutex // guards spans; viewers are waited on concurrently
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// start opens a span under parent and returns its id (0 on a nil recorder).
func (r *spanRecorder) start(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, StartNS: now})
	return id
}

// end closes span id and returns its duration in seconds.
func (r *spanRecorder) end(id int) float64 {
	if r == nil || id == 0 {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndNS = now
	return r.spans[id-1].seconds()
}

// graft appends spans recorded by a child process, which count time
// from their own origin offsetNS after this recorder's, under parent.
func (r *spanRecorder) graft(parent int, offsetNS int64, child []span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := len(r.spans)
	for _, s := range child {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.StartNS += offsetNS
		s.EndNS += offsetNS
		r.spans = append(r.spans, s)
	}
}

func (r *spanRecorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its children cover. Overlapping
// children (viewers waited on concurrently) are counted once.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered int64
		at := s.StartNS // everything before at is already accounted for
		for _, k := range kids {
			lo, hi := max(k.StartNS, at), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// chromeSpan is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and Perfetto load directly.
type chromeSpan struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes spans as Chrome trace-event JSON. Each root
// span and its descendants share a tid, so repetitions stack as rows.
func writeChromeTrace(path string, spans []span) error {
	self := selfTimes(spans)
	root := make(map[int]int, len(spans)) // parents precede children
	events := make([]chromeSpan, 0, len(spans))
	for _, s := range spans {
		if s.Parent == 0 {
			root[s.ID] = s.ID
		} else {
			root[s.ID] = root[s.Parent]
		}
		events = append(events, chromeSpan{
			Name: s.Name, Ph: "X",
			TS: float64(s.StartNS) / 1e3, Dur: float64(s.EndNS-s.StartNS) / 1e3,
			PID: 1, TID: root[s.ID],
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "self_us": float64(self[s.ID]) / 1e3},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
