// Quickstart: spin up a complete real-TCP swarm in one process — tracker,
// seeder, and two viewing peers — stream a short synthetic clip, and print
// the playback metrics the paper measures.
//
// With -debug-addr the process also serves /metrics, /healthz, and
// /debug/pprof for the whole swarm (all nodes and the tracker share one
// registry); -linger keeps it alive after the stream completes so a
// scraper (or `make metrics-smoke`) can read the final state.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"p2psplice"
)

func main() {
	var (
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty = off)")
		linger    = flag.Duration("linger", 0, "keep the swarm alive this long after completion (lets a scraper catch the final state)")
	)
	flag.Parse()

	// One registry for the whole in-process swarm: both viewers, the
	// seeder, and the tracker record into it, so /metrics shows the
	// swarm's aggregate QoE and transport distributions.
	var reg *p2psplice.MetricsRegistry
	if *debugAddr != "" {
		reg = p2psplice.NewMetricsRegistry()
		dbg, err := p2psplice.StartDebug(p2psplice.DebugConfig{Addr: *debugAddr, Registry: reg})
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		fmt.Println("debug endpoint on http://" + dbg.Addr())
	}

	// 1. Synthesize a 10-second clip at a modest rate and splice it into
	//    2-second segments.
	enc := p2psplice.DefaultEncoderConfig()
	enc.BytesPerSecond = 64 * 1024
	_, manifest, blobs, err := p2psplice.BuildSwarmData(
		enc, 10*time.Second, 42, p2psplice.DurationSplicer{Target: 2 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clip packaged: %d segments, %d bytes total\n",
		len(manifest.Segments), manifest.TotalBytes())

	// 2. Run a tracker on a loopback port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	trkSrv := p2psplice.NewTracker()
	if reg != nil {
		trkSrv = p2psplice.NewTrackerWithMetrics(reg)
	}
	// Read limits as cmd/tracker sets them: a client that never finishes
	// its request is disconnected.
	srv := &http.Server{Handler: trkSrv.Handler(), ReadHeaderTimeout: 5 * time.Second, ReadTimeout: 10 * time.Second}
	var srvWG sync.WaitGroup
	srvWG.Add(1)
	go func() {
		defer srvWG.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	defer func() {
		_ = srv.Close()
		srvWG.Wait()
	}()
	trk := p2psplice.NewTrackerClient("http://"+ln.Addr().String(), nil)
	fmt.Println("tracker on", ln.Addr())

	// 3. Seed the clip.
	seeder, err := p2psplice.Seed(trk, manifest, blobs, p2psplice.NodeConfig{
		AnnounceInterval: 200 * time.Millisecond,
		Metrics:          reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer seeder.Close()
	fmt.Println("seeder on", seeder.Addr(), "info hash", seeder.InfoHash())

	// 4. Two viewers join and stream with the paper's adaptive pooling.
	var viewers []*p2psplice.Node
	for i := 0; i < 2; i++ {
		v, err := p2psplice.Join(trk, seeder.InfoHash(), p2psplice.NodeConfig{
			Policy:           p2psplice.AdaptivePool{},
			AnnounceInterval: 200 * time.Millisecond,
			Metrics:          reg,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer v.Close()
		viewers = append(viewers, v)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i, v := range viewers {
		if err := v.WaitComplete(ctx); err != nil {
			log.Fatalf("viewer %d: %v", i, err)
		}
		pm := v.Playback()
		st := v.Stats()
		fmt.Printf("viewer %d: startup=%v stalls=%d downloaded=%d bytes\n",
			i+1, pm.StartupTime.Round(time.Millisecond), pm.Stalls, st.DownloadedBytes)
	}
	fmt.Printf("seeder uploaded %d bytes; peers exchanged %d bytes peer-to-peer\n",
		seeder.Stats().UploadedBytes,
		viewers[0].Stats().UploadedBytes+viewers[1].Stats().UploadedBytes)

	if *linger > 0 {
		fmt.Printf("lingering %v for scrapers\n", *linger)
		time.Sleep(*linger)
	}
}
