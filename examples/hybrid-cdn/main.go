// Hybrid CDN: the paper's Section IV — when a CDN serves segments one at a
// time, the safe segment size is W <= B*T. The origin hosts a *duration
// ladder* (2s/4s/8s splicings of the same clip) and the client switches
// variants at aligned boundaries, climbing to longer segments as its buffer
// grows. This is the "adaptive splicing" the paper leaves as future work:
// duration adapts, quality never degrades.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"p2psplice"
)

func main() {
	// Build three splicings of the same 16-second clip.
	enc := p2psplice.DefaultEncoderConfig()
	enc.BytesPerSecond = 48 * 1024
	video, err := p2psplice.Synthesize(enc, 16*time.Second, 11)
	if err != nil {
		log.Fatal(err)
	}
	origin := p2psplice.NewCDNOrigin()
	for _, target := range []time.Duration{2 * time.Second, 4 * time.Second, 8 * time.Second} {
		sp := p2psplice.DurationSplicer{Target: target}
		segs, err := sp.Splice(video)
		if err != nil {
			log.Fatal(err)
		}
		m, blobs, err := p2psplice.BuildManifest(video, sp.Name(), segs)
		if err != nil {
			log.Fatal(err)
		}
		if err := origin.AddVariant(sp.Name(), m, blobs); err != nil {
			log.Fatal(err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	// Read limits as cmd/tracker sets them: a client that never finishes
	// its request is disconnected.
	srv := &http.Server{Handler: origin.Handler(), ReadHeaderTimeout: 5 * time.Second, ReadTimeout: 10 * time.Second}
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
	fmt.Println("CDN origin on", ln.Addr(), "with variants", origin.VariantNames())

	client := p2psplice.NewCDNClient("http://"+ln.Addr().String(), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := client.Load(ctx); err != nil {
		log.Fatal(err)
	}

	fmt.Println("streaming with duration-adaptive fetching (W <= B*T)...")
	res, err := client.Stream(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("downloaded %d bytes in %d fetches:\n", res.Bytes, len(res.Choices))
	for i, c := range res.Choices {
		fmt.Printf("  fetch %2d: variant=%-3s segment=%d (%d bytes) at clip time %v\n",
			i+1, c.Variant, c.Index, c.Bytes, c.Start.Round(time.Millisecond))
	}
	fmt.Printf("playback: startup=%v stalls=%d totalStall=%v state=%v\n",
		res.Metrics.StartupTime.Round(time.Millisecond), res.Metrics.Stalls,
		res.Metrics.TotalStall.Round(time.Millisecond), res.Metrics.State)
	fmt.Println("note the first fetch uses the smallest segment (T=0 at startup) and later")
	fmt.Println("fetches climb the duration ladder as the buffer deepens.")
}
