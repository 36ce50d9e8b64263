package core

import (
	"fmt"
	"testing"
	"time"

	"p2psplice/internal/player"
	"p2psplice/internal/reputation"
	"p2psplice/internal/trace"
)

// FuzzDownloads drives one Downloads over 3 sources and 4 segments with a
// decoded sequence of Launch (entered into the pool as Fill enters it),
// Deliver, End (stored or not) and Lose calls, keeping its own model of
// every flight, and after each step checks the lifecycle's invariants:
// the pool, the open flights and the meter count the same downloads; no
// segment is both held and fetching; a flight whose last byte came stays
// Fetching until End; End stores exactly when asked; Lose ends exactly the
// lost source's flights that still await bytes; every charge follows
// DESIGN §9.5's table.
func FuzzDownloads(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 9, 1, 255, 2, 0, 5, 0, 6, 255, 21, 3, 4, 0})
	f.Add([]byte{0, 1, 5, 1, 10, 1, 15, 1, 1, 255, 6, 40, 4, 0, 9, 0, 3, 7})
	f.Add([]byte{20, 0, 25, 0, 21, 255, 26, 100, 24, 0, 40, 0, 41, 255, 42, 0, 43, 200})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const segs, srcs = 4, 3
		cfg := reputation.Default()
		cfg.SlowServeBytesPerSec = 16 << 10
		size := func(idx int) int64 { return 1000 * int64(idx+1) }

		durations, sizes := make([]time.Duration, segs), make([]int64, segs)
		for i := range durations {
			durations[i], sizes[i] = time.Second, size(i)
		}
		play, err := player.New(player.Config{SegmentDurations: durations})
		if err != nil {
			t.Fatal(err)
		}
		if err := play.Start(0); err != nil {
			t.Fatal(err)
		}
		sources := make([]*Source, srcs)
		for i := range sources {
			sources[i] = &Source{ID: i, Have: make([]bool, segs)}
		}
		d := NewDownloads(make([]bool, segs), play, FixedPool{K: 1}, sizes, durations)

		// The model: each open flight's source, start, last delivery and
		// bytes received.
		var (
			open     [segs]bool
			from     [segs]*Source
			started  [segs]time.Duration
			last     [segs]time.Duration
			received [segs]int64
			now      time.Duration
		)
		check := func(step int, what string) {
			t.Helper()
			n := 0
			for idx := range segs {
				fl := d.Flight(idx)
				if open[idx] {
					n++
					if !d.Pool.Fetching[idx] {
						t.Fatalf("step %d (%s): seg %d open but not Fetching", step, what, idx)
					}
					if fl.Src != from[idx] || fl.Started != started[idx] || fl.Last != last[idx] ||
						fl.Received != received[idx] || fl.Size != size(idx) {
						t.Fatalf("step %d (%s): seg %d flight %+v, model src %p started %v last %v received %d",
							step, what, idx, *fl, from[idx], started[idx], last[idx], received[idx])
					}
				} else if d.Pool.Fetching[idx] || fl.Src != nil {
					t.Fatalf("step %d (%s): seg %d not open but Fetching %v, flight %+v", step, what, idx, d.Pool.Fetching[idx], *fl)
				}
				if d.Pool.Have[idx] && d.Pool.Fetching[idx] {
					t.Fatalf("step %d (%s): seg %d both held and fetching", step, what, idx)
				}
			}
			load := 0
			for _, s := range sources {
				load += s.Uploads
			}
			if d.Pool.InFlight != n || d.Meter.InFlight() != n || load != n {
				t.Fatalf("step %d (%s): %d open flights, pool %d, meter %d, source load %d",
					step, what, n, d.Pool.InFlight, d.Meter.InFlight(), load)
			}
		}
		// want is §9.5's table, from the model's record of the flight.
		want := func(idx int, e Ending) reputation.Observation {
			switch {
			case e == Verified && float64(size(idx)) < float64(cfg.SlowServeBytesPerSec)*(last[idx]-started[idx]).Seconds():
				return reputation.ObsSlowServe
			case e == Verified:
				return reputation.ObsSuccess
			case e == Rejected:
				return reputation.ObsVerifyFail
			case received[idx] == 0:
				return reputation.ObsStaleHave
			}
			return reputation.ObsTimeout
		}
		end := func(idx int, stored bool, e Ending, step int) {
			t.Helper()
			fl := d.End(idx, now, stored)
			if got, w := fl.Charge(e, cfg), want(idx, e); got != w {
				t.Fatalf("step %d: seg %d ended %d after %d of %d bytes in %v: charged %v, want %v",
					step, idx, e, received[idx], size(idx), last[idx]-started[idx], got, w)
			}
			if d.Pool.Have[idx] != stored {
				t.Fatalf("step %d: seg %d held %v after End(stored=%v)", step, idx, d.Pool.Have[idx], stored)
			}
			open[idx], from[idx], received[idx] = false, nil, 0
		}

		for step := 0; step+1 < len(ops); step += 2 {
			op, arg := ops[step], ops[step+1]
			idx, src := int(op/5)%segs, sources[int(op/20)%srcs]
			now += time.Duration(arg%64) * time.Millisecond
			var what string
			switch op % 5 {
			case 0:
				what = "launch"
				if !d.Pool.Wanted(idx) {
					continue
				}
				d.Launch(idx, src, now)
				d.Pool.Start(idx, src)
				open[idx], from[idx], started[idx], last[idx] = true, src, now, now
			case 1:
				what = "deliver"
				if !open[idx] || received[idx] == size(idx) {
					continue
				}
				n := min(size(idx)-received[idx], 1+int64(arg)*size(idx)/128)
				d.Deliver(idx, n, now)
				received[idx] += n
				last[idx] = now
			case 2:
				// Verified when the last byte came, else expired.
				what = "end"
				if !open[idx] {
					continue
				}
				if received[idx] == size(idx) {
					end(idx, true, Verified, step)
				} else {
					end(idx, false, Expired, step)
				}
			case 3:
				what = "reject"
				if !open[idx] || received[idx] != size(idx) {
					continue
				}
				end(idx, false, Rejected, step)
			case 4:
				what = "lose"
				var released []int
				lost := d.Lose(src, now, func(i int) { released = append(released, i) })
				var expect []int
				for i := range segs {
					if open[i] && from[i] == src && received[i] != size(i) {
						expect = append(expect, i)
						open[i], from[i], received[i] = false, nil, 0
					}
				}
				if lost != len(expect) || len(released) != len(expect) {
					t.Fatalf("step %d: Lose ended %d, released %v; want %v", step, lost, released, expect)
				}
				for i := range expect {
					if released[i] != expect[i] {
						t.Fatalf("step %d: Lose released %v, want %v in segment order", step, released, expect)
					}
				}
			}
			check(step, what)
		}
	})
}

// TestFillDecision is Eq. 1's one call site over a grid: for each policy,
// B, T and W and every in-flight count from 0 to k+1, Fill reports the
// inputs with k = PoolSize(B, T, W), W read from the clip at the first
// wanted segment; with no room neither the preparer nor visit runs; with
// room the set is prepared once and the pool topped up to k, and Launched
// is the number of visits that had a source. Segment 1 has no source, so
// a fill that gets past segment 0 visits it without launching it.
func TestFillDecision(t *testing.T) {
	const segs = 64
	durations := make([]time.Duration, segs)
	holder := &Source{ID: 1, Have: make([]bool, segs)}
	for i := range durations {
		durations[i], holder.Have[i] = time.Second, i != 1
	}
	elsewhere := &Source{ID: 2}
	for _, policy := range []Policy{AdaptivePool{}, FixedPool{K: 1}, FixedPool{K: 2}, FixedPool{K: 8}} {
		for _, b := range []int64{0, 96_000, 400_000} {
			for _, buffered := range []time.Duration{0, 1500 * time.Millisecond, 4 * time.Second} {
				for _, w := range []int64{100_000, 250_000} {
					// Segment 0, the first wanted, is W bytes; the rest are
					// another size, so a W read elsewhere changes k.
					sizes := make([]int64, segs)
					for i := range sizes {
						sizes[i] = 2*w + 1
					}
					sizes[0] = w
					k := policy.PoolSize(b, buffered, w)
					for n := 0; n <= k+1; n++ {
						name := fmt.Sprintf("%s B=%d T=%v W=%d in flight %d", policy.Name(), b, buffered, w, n)
						d := NewDownloads(make([]bool, segs), nil, policy, sizes, durations)
						// n downloads in flight, on segments 2.. that the fill
						// must step over.
						for idx := 2; idx < 2+n; idx++ {
							d.Launch(idx, elsewhere, 0)
							d.Pool.Start(idx, elsewhere)
						}
						var set SourceSet
						prepared, visits, sourced := 0, 0, 0
						f := d.Fill(b, buffered, 0, segs-1, func() *SourceSet {
							prepared++
							gather(&set, []*Source{holder}, nil, 0)
							return &set
						}, func(idx int, src *Source, _ bool) {
							visits++
							if src != nil {
								sourced++
								d.Launch(idx, src, 0)
							}
						})
						want := trace.PoolFacts{Bandwidth: b, Buffered: buffered, SegBytes: w, Target: k, InFlight: n}
						blocked := 0
						if n < k {
							want.Launched, want.Blocked = k-n, k-n > 1
						}
						if want.Blocked {
							blocked = 1
						}
						if f != want {
							t.Fatalf("%s: facts %+v, want %+v", name, f, want)
						}
						switch {
						case n >= k && (prepared != 0 || visits != 0):
							t.Fatalf("%s: no room, yet the set was prepared %d times and %d selections visited", name, prepared, visits)
						case n < k && prepared != 1:
							t.Fatalf("%s: the set was prepared %d times, want once", name, prepared)
						case f.Launched != sourced || visits != sourced+blocked:
							t.Fatalf("%s: %d launched, %d visits, %d with a source", name, f.Launched, visits, sourced)
						case d.Pool.InFlight != max(n, k) || d.Meter.InFlight() != d.Pool.InFlight:
							t.Fatalf("%s: pool %d, meter %d in flight, want %d", name, d.Pool.InFlight, d.Meter.InFlight(), max(n, k))
						}
					}
				}
			}
		}
	}
}

// Before its meter's first sample a downloader's B is the clip's mean
// byte rate, Σ bytes / Σ durations; after, the meter's estimate.
func TestBandwidthBeforeFirstSample(t *testing.T) {
	sizes := []int64{300_000, 100_000, 150_001}
	durations := []time.Duration{2 * time.Second, time.Second, 1500 * time.Millisecond}
	d := NewDownloads(make([]bool, 3), nil, AdaptivePool{}, sizes, durations)
	if got, want := d.Bandwidth(), int64(122_222); got != want {
		t.Errorf("B before a sample = %d, want the clip rate %d", got, want)
	}
	d.Meter.Observe(64_000, time.Second)
	if got := d.Bandwidth(); got != 64_000 {
		t.Errorf("B after one 64 kB/s sample = %d", got)
	}
}
