package tracker

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"p2psplice/internal/container"
	"p2psplice/internal/media"
	"p2psplice/internal/splicer"
	"p2psplice/internal/trace"
	"p2psplice/internal/wire"
)

func testManifest(t *testing.T) *container.Manifest {
	t.Helper()
	v, err := media.Synthesize(media.DefaultEncoderConfig(), 10*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := splicer.DurationSplicer{Target: 2 * time.Second}.Splice(v)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := container.BuildManifest(container.ClipInfo{
		Duration: v.Duration(), BytesPerSecond: v.Config.BytesPerSecond, Seed: v.Seed,
	}, "2s", segs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTestTracker(t *testing.T, opts ...Option) (*httptest.Server, *Client) {
	t.Helper()
	srv := httptest.NewServer(NewServer(opts...).Handler())
	t.Cleanup(srv.Close)
	return srv, NewClient(srv.URL, srv.Client())
}

func mustPeerID(t *testing.T) wire.PeerID {
	t.Helper()
	id, err := wire.NewPeerID()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestPublishManifestRoundTrip(t *testing.T) {
	_, c := newTestTracker(t)
	m := testManifest(t)
	ih, err := c.Publish(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Manifest(ih)
	if err != nil {
		t.Fatal(err)
	}
	if got.Splicing != m.Splicing || len(got.Segments) != len(m.Segments) {
		t.Error("manifest round-trip mismatch")
	}
	// Publishing twice is idempotent.
	ih2, err := c.Publish(m)
	if err != nil {
		t.Fatal(err)
	}
	if ih2 != ih {
		t.Errorf("republish changed info hash: %s vs %s", ih2, ih)
	}
}

func TestAnnounceDiscoversPeers(t *testing.T) {
	_, c := newTestTracker(t)
	ih, err := c.Publish(testManifest(t))
	if err != nil {
		t.Fatal(err)
	}
	seederID, leecherID := mustPeerID(t), mustPeerID(t)

	peers, err := c.Announce(ih, seederID, "127.0.0.1:9001", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 0 {
		t.Errorf("first announce should see no peers, got %d", len(peers))
	}
	peers, err = c.Announce(ih, leecherID, "127.0.0.1:9002", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 1 || peers[0].Addr != "127.0.0.1:9001" || !peers[0].Seeder {
		t.Errorf("leecher should see the seeder, got %+v", peers)
	}
	// The seeder now sees the leecher and not itself.
	peers, err = c.Announce(ih, seederID, "127.0.0.1:9001", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 1 || peers[0].Seeder {
		t.Errorf("seeder should see only the leecher, got %+v", peers)
	}
}

func TestLeaveRemovesPeer(t *testing.T) {
	_, c := newTestTracker(t)
	ih, err := c.Publish(testManifest(t))
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustPeerID(t), mustPeerID(t)
	if _, err := c.Announce(ih, a, "127.0.0.1:9001", true); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(ih, a); err != nil {
		t.Fatal(err)
	}
	peers, err := c.Announce(ih, b, "127.0.0.1:9002", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 0 {
		t.Errorf("departed peer still listed: %+v", peers)
	}
}

func TestStalePeersPruned(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	_, c := newTestTracker(t, WithPeerTTL(time.Minute), WithClock(clock))
	ih, err := c.Publish(testManifest(t))
	if err != nil {
		t.Fatal(err)
	}
	stale, fresh := mustPeerID(t), mustPeerID(t)
	if _, err := c.Announce(ih, stale, "127.0.0.1:9001", false); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	peers, err := c.Announce(ih, fresh, "127.0.0.1:9002", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 0 {
		t.Errorf("stale peer still listed: %+v", peers)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	srv, c := newTestTracker(t)
	m := testManifest(t)
	ih, err := c.Publish(m)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) int {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	id := mustPeerID(t)
	cases := map[string]int{
		"/manifest?info_hash=zz":                                                                    http.StatusBadRequest,
		"/manifest?info_hash=" + strings.Repeat("ab", 32):                                           http.StatusNotFound,
		"/announce?info_hash=" + ih.String() + "&peer_id=short&addr=a:1":                            http.StatusBadRequest,
		"/announce?info_hash=" + ih.String() + "&peer_id=" + id.String():                            http.StatusBadRequest, // missing addr
		"/announce?info_hash=" + strings.Repeat("ab", 32) + "&peer_id=" + id.String() + "&addr=a:1": http.StatusNotFound,
	}
	for path, want := range cases {
		if got := get(path); got != want {
			t.Errorf("GET %s = %d, want %d", path, got, want)
		}
	}
	// Publish garbage.
	resp, err := srv.Client().Post(srv.URL+"/publish", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("publishing garbage: %d, want 400", resp.StatusCode)
	}
	// Publish an invalid (but parseable) manifest.
	resp, err = srv.Client().Post(srv.URL+"/publish", "application/json",
		strings.NewReader(`{"version":1,"video":{"duration_ns":0,"bytes_per_second":0,"seed":0},"splicing":"x","segments":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("publishing invalid manifest: %d, want 400", resp.StatusCode)
	}
}

func TestSwarmsEndpoint(t *testing.T) {
	srv, c := newTestTracker(t)
	if _, err := c.Publish(testManifest(t)); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Get(srv.URL + "/swarms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /swarms = %d", resp.StatusCode)
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	c := NewClient("http://127.0.0.1:1", &http.Client{Timeout: 200 * time.Millisecond})
	if _, err := c.Publish(testManifest(t)); err == nil {
		t.Error("want error against dead server")
	}
	var ih wire.InfoHash
	if _, err := c.Manifest(ih); err == nil {
		t.Error("want error against dead server")
	}
	if _, err := c.Announce(ih, wire.PeerID{}, "a:1", false); err == nil {
		t.Error("want error against dead server")
	}
	if err := c.Leave(ih, wire.PeerID{}); err == nil {
		t.Error("want error against dead server")
	}
}

func TestManifestHashVerification(t *testing.T) {
	// A tracker returning a manifest that doesn't hash to the requested
	// info hash must be rejected by the client.
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"version":1}`))
	}))
	defer evil.Close()
	c := NewClient(evil.URL, evil.Client())
	var ih wire.InfoHash
	if _, err := c.Manifest(ih); err == nil {
		t.Error("want hash-mismatch error")
	}
}

// TestServerCaps drives the handler directly with made-up announces and
// publishes: a response lists at most maxResponsePeers, seeders first; a
// new peer past maxSwarmPeers and a new swarm past maxSwarms get a 503
// and count as errors, while a known peer and a known swarm still
// refresh.
func TestServerCaps(t *testing.T) {
	reg := trace.NewRegistry()
	h := NewServer(WithMetrics(reg)).Handler()
	serve := func(r *http.Request) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec
	}
	raw, err := json.Marshal(testManifest(t))
	if err != nil {
		t.Fatal(err)
	}
	// Trailing spaces leave the manifest valid but change its info hash,
	// so each publish below is a new swarm.
	publish := func(pad int) int {
		body := append(slices.Clone(raw), strings.Repeat(" ", pad)...)
		return serve(httptest.NewRequest("POST", "/publish", bytes.NewReader(body))).Code
	}
	ih := InfoHashFor(raw)
	announce := func(i int) *httptest.ResponseRecorder {
		q := url.Values{
			"info_hash": {ih.String()},
			"peer_id":   {fmt.Sprintf("%0*x", 2*wire.PeerIDLen, i)},
			"addr":      {fmt.Sprintf("10.%d.%d.1:6881", i/256, i%256)},
		}
		if i >= maxSwarmPeers-3 { // the three highest ids are seeders
			q.Set("seeder", "1")
		}
		return serve(httptest.NewRequest("GET", "/announce?"+q.Encode(), nil))
	}

	for pad := range maxSwarms {
		if code := publish(pad); code != http.StatusOK {
			t.Fatalf("publish %d: status %d", pad, code)
		}
	}
	if code := publish(maxSwarms); code != http.StatusServiceUnavailable {
		t.Errorf("publish past maxSwarms: status %d, want 503", code)
	}
	if code := publish(0); code != http.StatusOK {
		t.Errorf("republish of a known swarm: status %d", code)
	}

	for i := range maxSwarmPeers {
		if rec := announce(i); rec.Code != http.StatusOK {
			t.Fatalf("announce %d: status %d", i, rec.Code)
		}
	}
	if rec := announce(maxSwarmPeers); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("announce past maxSwarmPeers: status %d, want 503", rec.Code)
	}
	rec := announce(0)
	if rec.Code != http.StatusOK {
		t.Fatalf("known peer refresh: status %d", rec.Code)
	}
	var resp AnnounceResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Peers) != maxResponsePeers {
		t.Fatalf("response lists %d peers, want %d", len(resp.Peers), maxResponsePeers)
	}
	for i, p := range resp.Peers {
		want := maxSwarmPeers - 3 + i // seeders first, then by peer id, skipping the announcer
		if i >= 3 {
			want = i - 2
		}
		if id := fmt.Sprintf("%0*x", 2*wire.PeerIDLen, want); p.PeerID != id || p.Seeder != (i < 3) {
			t.Errorf("peer %d = %+v, want id %s", i, p, id)
		}
	}
	var got int64
	for _, s := range reg.Snap().Stats {
		if s.Name == "tracker_announce_errors_total" {
			got = s.Value
		}
	}
	if got != 2 {
		t.Errorf("error counter = %d, want 2 (one publish, one announce)", got)
	}
}
