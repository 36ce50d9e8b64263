// Churn resilience: the paper's motivation for prefetching — "peers can
// leave the swarm anytime" — exercised directly. The emulated swarm runs
// with and without churn; the seeder never departs, so survivors always
// finish, but departures cost stalls because in-flight downloads abort and
// distribution chains re-form.
package main

import (
	"fmt"
	"log"
	"time"

	"p2psplice"
)

func main() {
	video, err := p2psplice.Synthesize(p2psplice.DefaultEncoderConfig(), time.Minute, 23)
	if err != nil {
		log.Fatal(err)
	}
	segs, err := p2psplice.SpliceByDuration(video, 4*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	meta := p2psplice.SegmentsForSwarm(segs)

	run := func(churn p2psplice.ChurnModel) {
		var stalls, startup float64
		departed := 0
		const runs = 3
		for seed := int64(100); seed < 100+runs; seed++ {
			res, err := p2psplice.RunSwarm(p2psplice.SwarmConfig{
				Seed:                 seed,
				Leechers:             10,
				BandwidthBytesPerSec: 256 * 1024,
				PeerAccessDelay:      25 * time.Millisecond,
				SeederAccessDelay:    25 * time.Millisecond,
				LossRate:             0.05,
				Policy:               p2psplice.AdaptivePool{},
				OracleBandwidth:      true,
				JoinSpread:           5 * time.Second,
				ResumeBuffer:         6 * time.Second,
				Churn:                churn,
			}, meta)
			if err != nil {
				log.Fatal(err)
			}
			sum := res.Summary()
			stalls += sum.MeanStalls / runs
			startup += sum.MeanStartupSeconds / runs
			departed += res.Departed
			if sum.Unfinished > 0 {
				log.Fatalf("seed %d: %d surviving peers stranded", seed, sum.Unfinished)
			}
		}
		label := "no churn"
		if churn.MeanOnline > 0 {
			label = fmt.Sprintf("mean online %v", churn.MeanOnline)
		}
		fmt.Printf("%-22s: %.1f stalls, %.1fs startup, %d departures over %d runs (all survivors finished)\n",
			label, stalls, startup, departed, runs)
	}

	fmt.Println("10 viewers at 256 kB/s, 1-minute clip, adaptive pooling:")
	run(p2psplice.ChurnModel{})
	run(p2psplice.ChurnModel{MeanOnline: 40 * time.Second, MinRemaining: 3})
	run(p2psplice.ChurnModel{MeanOnline: 20 * time.Second, MinRemaining: 3})
	fmt.Println()
	fmt.Println("Departures abort in-flight uploads and downloads; survivors re-request from")
	fmt.Println("other holders, and the seeder guarantees availability — the paper's argument")
	fmt.Println("for prefetching ahead of the playhead.")
}
