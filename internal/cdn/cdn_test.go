package cdn

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"p2psplice/internal/container"
	"p2psplice/internal/media"
	"p2psplice/internal/player"
	"p2psplice/internal/splicer"
)

// buildVariant splices the shared test clip at one target duration.
func buildVariant(t *testing.T, v *media.Video, target time.Duration) (*container.Manifest, [][]byte) {
	t.Helper()
	segs, err := splicer.DurationSplicer{Target: target}.Splice(v)
	if err != nil {
		t.Fatal(err)
	}
	m, blobs, err := container.BuildManifest(container.ClipInfo{
		Duration: v.Duration(), BytesPerSecond: v.Config.BytesPerSecond, Seed: v.Seed,
	}, splicer.DurationSplicer{Target: target}.Name(), segs)
	if err != nil {
		t.Fatal(err)
	}
	return m, blobs
}

// testVideo produces an 8-second low-rate clip whose 2/4/8s variants align.
func testVideo(t *testing.T) *media.Video {
	t.Helper()
	cfg := media.DefaultEncoderConfig()
	cfg.BytesPerSecond = 16 * 1024
	v, err := media.Synthesize(cfg, 8*time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func newOriginServer(t *testing.T, v *media.Video, targets ...time.Duration) (*Origin, *httptest.Server) {
	t.Helper()
	o := NewOrigin()
	for _, target := range targets {
		m, blobs := buildVariant(t, v, target)
		if err := o.AddVariant(splicer.DurationSplicer{Target: target}.Name(), m, blobs); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(o.Handler())
	t.Cleanup(srv.Close)
	return o, srv
}

func TestOriginValidation(t *testing.T) {
	v := testVideo(t)
	m, blobs := buildVariant(t, v, 2*time.Second)
	o := NewOrigin()
	if err := o.AddVariant("bad name", m, blobs); err == nil {
		t.Error("name with space: want error")
	}
	if err := o.AddVariant("x/y", m, blobs); err == nil {
		t.Error("name with slash: want error")
	}
	if err := o.AddVariant("2s", m, blobs[:1]); err == nil {
		t.Error("missing blobs: want error")
	}
	if err := o.AddVariant("2s", m, blobs); err != nil {
		t.Fatal(err)
	}
	if err := o.AddVariant("2s", m, blobs); err == nil {
		t.Error("duplicate variant: want error")
	}
	if got := o.VariantNames(); len(got) != 1 || got[0] != "2s" {
		t.Errorf("VariantNames = %v", got)
	}
}

func TestOriginHTTPEndpoints(t *testing.T) {
	v := testVideo(t)
	_, srv := newOriginServer(t, v, 2*time.Second)

	get := func(path string) int {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := map[string]int{
		"/variants":      200,
		"/manifest/2s":   200,
		"/manifest/zz":   404,
		"/segment/2s/0":  200,
		"/segment/2s/99": 400,
		"/segment/2s/-1": 400,
		"/segment/zz/0":  404,
	}
	for path, want := range cases {
		if got := get(path); got != want {
			t.Errorf("GET %s = %d, want %d", path, got, want)
		}
	}
}

func TestChooseSegmentPrefersLargestWithinBound(t *testing.T) {
	v := testVideo(t)
	m2, _ := buildVariant(t, v, 2*time.Second)
	m4, _ := buildVariant(t, v, 4*time.Second)
	m8, _ := buildVariant(t, v, 8*time.Second)
	manifests := []*container.Manifest{m2, m4, m8}
	names := []string{"2s", "4s", "8s"}

	// Huge bandwidth and buffer: the 8s segment wins.
	c, ok := ChooseSegment(manifests, names, 0, 1<<30, 10*time.Second)
	if !ok || c.Variant != "8s" {
		t.Errorf("rich client chose %+v, want 8s", c)
	}
	// T = 0 (startup): smallest segment wins.
	c, ok = ChooseSegment(manifests, names, 0, 1<<30, 0)
	if !ok || c.Variant != "2s" {
		t.Errorf("startup chose %+v, want 2s", c)
	}
	// Mid-range: bound above 4s's size but below 8s's size.
	limit4 := m4.Segments[0].Bytes
	bw := int64(limit4) // with T=1s, limit = limit4 exactly
	c, ok = ChooseSegment(manifests, names, 0, bw, time.Second)
	if !ok || c.Variant != "4s" {
		t.Errorf("mid client chose %+v, want 4s", c)
	}
	// Frontier at the 2s variant's second boundary (NB: frame durations
	// truncate, so boundaries sit just shy of whole seconds): only the 2s
	// variant has a segment starting there.
	c, ok = ChooseSegment(manifests, names, m2.Segments[1].Start, 1<<30, 10*time.Second)
	if !ok || c.Variant != "2s" || c.Index != 1 {
		t.Errorf("misaligned frontier chose %+v, want 2s[1]", c)
	}
	// Frontier at the 4s variant's second boundary: 2s and 4s are eligible,
	// 8s is not; the larger 4s segment wins.
	c, ok = ChooseSegment(manifests, names, m4.Segments[1].Start, 1<<30, 10*time.Second)
	if !ok || c.Variant != "4s" || c.Index != 1 {
		t.Errorf("frontier at 4s chose %+v, want 4s[1]", c)
	}
	// No boundary anywhere.
	if _, ok := ChooseSegment(manifests, names, 3*time.Second+7, 1<<30, time.Second); ok {
		t.Error("frontier off every boundary should not resolve")
	}
}

func TestClientStreamsWholeClip(t *testing.T) {
	v := testVideo(t)
	_, srv := newOriginServer(t, v, 2*time.Second, 4*time.Second, 8*time.Second)
	c := NewClient(srv.URL, srv.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Load(ctx); err != nil {
		t.Fatal(err)
	}
	if got := c.names; len(got) != 3 {
		t.Fatalf("variants = %v", got)
	}
	// A virtual clock makes the whole session instantaneous and gives the
	// client a generous buffer so it climbs the duration ladder.
	var virtual time.Duration
	c.now = func() time.Duration { return virtual }
	res, err := c.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var covered time.Duration
	for _, ch := range res.Choices {
		m := c.manifests[indexOf(c.names, ch.Variant)]
		covered += m.Segments[ch.Index].Duration
	}
	if covered != v.Duration() {
		t.Errorf("choices cover %v, want %v", covered, v.Duration())
	}
	if res.Bytes == 0 {
		t.Error("no bytes downloaded")
	}
	if res.Metrics.State != player.StateFinished {
		t.Errorf("final state %v, want finished", res.Metrics.State)
	}
	// With instant downloads the very first fetch is the only one at T=0:
	// later fetches should climb to larger segments.
	first := res.Choices[0]
	if first.Variant != "2s" {
		t.Errorf("first fetch used %s, want 2s (T=0 rule)", first.Variant)
	}
	if len(res.Choices) >= 2 {
		last := res.Choices[len(res.Choices)-1]
		if last.Variant == "2s" {
			t.Logf("note: client never climbed the ladder: %+v", res.Choices)
		}
	}
}

// Before its first sample the client's B is the clip's wire rate, Σ bytes
// / Σ durations, as on both P2P stacks, not the coded rate the manifest
// states. Only the first decision reads it, at T = 0, where the smallest
// segment wins whatever B is, so the streamed choices are those the
// coded rate gives.
func TestClientFallbackIsWireRate(t *testing.T) {
	v := testVideo(t)
	o, _ := newOriginServer(t, v, 2*time.Second, 4*time.Second, 8*time.Second)
	// Every segment takes 250 ms on the clock, so each fetch is a sample.
	var clock atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/segment/") {
			clock.Add(int64(250 * time.Millisecond))
		}
		o.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()
	load := func() *Client {
		t.Helper()
		c := NewClient(srv.URL, srv.Client())
		if err := c.Load(context.Background()); err != nil {
			t.Fatal(err)
		}
		c.now = func() time.Duration { return time.Duration(clock.Load()) }
		return c
	}
	stream := func(c *Client) []Choice {
		t.Helper()
		clock.Store(0)
		res, err := c.Stream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Choices
	}

	c := load()
	var bytes int64
	var clip time.Duration
	for _, s := range c.manifests[0].Segments {
		bytes, clip = bytes+s.Bytes, clip+s.Duration
	}
	wire, coded := int64(float64(bytes)/clip.Seconds()), c.manifests[0].Video.BytesPerSecond
	if wire == coded {
		t.Fatalf("wire rate equals the coded rate %d B/s; the test cannot tell them apart", coded)
	}
	if c.rate != wire {
		t.Errorf("B before the first sample = %d B/s, want the wire rate %d B/s", c.rate, wire)
	}
	got := stream(c)
	c = load()
	c.rate = coded
	if want := stream(c); !reflect.DeepEqual(got, want) {
		t.Errorf("choices moved with B before the first sample:\nwire rate:  %+v\ncoded rate: %+v", got, want)
	}
	if got[0].Variant != "2s" || got[len(got)-1].Variant == "2s" {
		t.Errorf("choices %+v: want the 2s segment first and a climb after", got)
	}
}

func TestClientErrors(t *testing.T) {
	ctx := context.Background()
	c := NewClient("http://127.0.0.1:1", nil)
	if _, err := c.Stream(ctx); err == nil {
		t.Error("Stream before Load: want error")
	}
	if err := c.Load(ctx); err == nil {
		t.Error("Load against dead origin: want error")
	}
	// An origin with mismatched variant durations is rejected.
	v1 := testVideo(t)
	cfg := media.DefaultEncoderConfig()
	cfg.BytesPerSecond = 16 * 1024
	v2, err := media.Synthesize(cfg, 4*time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOrigin()
	m1, b1 := buildVariant(t, v1, 2*time.Second)
	m2, b2 := buildVariant(t, v2, 2*time.Second)
	if err := o.AddVariant("a", m1, b1); err != nil {
		t.Fatal(err)
	}
	if err := o.AddVariant("b", m2, b2); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	c2 := NewClient(srv.URL, srv.Client())
	if err := c2.Load(ctx); err == nil {
		t.Error("mismatched clip durations: want error")
	}
}

// The client's playhead under a scripted clock: the first 4 s segment
// lands at t=1 (startup 1 s), the second only at t=8 — the playhead hit
// the 4 s frontier at t=5 — and the tail arrives with it.
func TestTimelinePlayerStallAccounting(t *testing.T) {
	cfg := media.DefaultEncoderConfig()
	cfg.BytesPerSecond = 16 * 1024
	cfg.FPS = 25 // 40 ms frames: the 4 s splicing cuts on whole seconds
	v, err := media.Synthesize(cfg, 10*time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOrigin()
	m, blobs := buildVariant(t, v, 4*time.Second)
	if err := o.AddVariant("4s", m, blobs); err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) != 3 || m.Segments[1].Start != 4*time.Second || m.Segments[2].Start != 8*time.Second {
		t.Fatalf("want a 4s+4s+2s layout, got %+v", m.Segments)
	}
	// The clock is the download schedule: serving segment i moves it to
	// arrivals[i].
	arrivals := map[string]time.Duration{"/segment/4s/0": time.Second, "/segment/4s/1": 8 * time.Second}
	var clock atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if at, ok := arrivals[r.URL.Path]; ok {
			clock.Store(int64(at))
		}
		o.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()
	if err := c.Load(ctx); err != nil {
		t.Fatal(err)
	}
	c.now = func() time.Duration { return time.Duration(clock.Load()) }
	res, err := c.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pm := res.Metrics
	if pm.StartupTime != time.Second {
		t.Errorf("startup = %v, want 1s", pm.StartupTime)
	}
	if pm.Stalls != 1 || pm.TotalStall != 3*time.Second {
		t.Errorf("stalls = %d/%v, want 1/3s", pm.Stalls, pm.TotalStall)
	}
	if len(pm.StallIntervals) != 1 || pm.StallIntervals[0] != (player.Interval{Start: 5 * time.Second, End: 8 * time.Second}) {
		t.Errorf("stall intervals = %v, want [5s, 8s]", pm.StallIntervals)
	}
	if pm.State != player.StateFinished {
		t.Errorf("projected state = %v, want finished", pm.State)
	}
	// Played 4s (1..5), stalled (5..8), played 6s (8..14).
	if pm.FinishedAt != 14*time.Second {
		t.Errorf("FinishedAt = %v, want 14s", pm.FinishedAt)
	}
	// The meter runs on the same clock: segment 0 took 1 s, segment 1
	// took 7 s, and segment 2 landed in no time, which Observe ignores.
	// Both observations are at the meter's smoothing factor, 0.3.
	const a = 0.3
	want := int64(a*(float64(m.Segments[1].Bytes)/7) + (1-a)*float64(m.Segments[0].Bytes))
	if got := c.est.Estimate(0); got != want {
		t.Errorf("bandwidth estimate %d B/s, want %d B/s from two observations", got, want)
	}
}

func TestOriginPlaylistEndpoint(t *testing.T) {
	v := testVideo(t)
	_, srv := newOriginServer(t, v, 2*time.Second)
	resp, err := srv.Client().Get(srv.URL + "/playlist/2s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /playlist/2s = %d", resp.StatusCode)
	}
	body := make([]byte, 4096)
	n, _ := resp.Body.Read(body)
	out := string(body[:n])
	if !strings.HasPrefix(out, "#EXTM3U") {
		t.Errorf("playlist does not start with #EXTM3U: %q", out[:min(40, len(out))])
	}
	if !strings.Contains(out, "/segment/2s/0.seg") {
		t.Errorf("playlist missing segment URI:\n%s", out)
	}
	resp2, err := srv.Client().Get(srv.URL + "/playlist/zz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 404 {
		t.Errorf("GET /playlist/zz = %d, want 404", resp2.StatusCode)
	}
}
