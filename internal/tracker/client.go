package tracker

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"p2psplice/internal/container"
	"p2psplice/internal/fault"
	"p2psplice/internal/wire"
)

// Error is a classified tracker failure. Transport failures and
// timeouts, 5xx statuses, 408, and 429 are transient (the caller may
// retry); other 4xx statuses are permanent (retrying the same request
// cannot help — fail fast).
type Error struct {
	Op        string // "GET /announce" etc.
	Status    int    // HTTP status; 0 for transport errors
	Transient bool
	Err       error // underlying cause
}

// Error implements error.
func (e *Error) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("tracker: %s: %s error: %v", e.Op, kind, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// IsTransient reports whether err is a tracker error worth retrying.
// A nil or non-tracker error reports false.
func IsTransient(err error) bool {
	var te *Error
	return errors.As(err, &te) && te.Transient
}

// transientStatus classifies HTTP statuses: all 5xx plus 408 (request
// timeout) and 429 (rate limited) are retryable; everything else
// non-2xx is a permanent caller error.
func transientStatus(code int) bool {
	return code/100 == 5 || code == http.StatusRequestTimeout || code == http.StatusTooManyRequests
}

// Transient failures are retried up to retryAttempts tries in all, the
// wait before retry n (1-based) doubling from 100 ms up to 2 s.
const retryAttempts = 3

var retryBackoff = fault.Backoff{Base: 100 * time.Millisecond, Cap: 2 * time.Second}

// Client talks to a tracker over HTTP. Transient failures (timeouts,
// 5xx) are retried with capped doubling backoff; permanent failures
// (4xx) fail fast.
type Client struct {
	base  string
	http  *http.Client
	sleep func(time.Duration) // injectable for tests
}

// NewClient returns a client for the tracker at base (e.g.
// "http://127.0.0.1:7070"). httpClient may be nil for a sane default.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 10 * time.Second}
	}
	return &Client{base: base, http: httpClient, sleep: time.Sleep}
}

// do issues method on path, retrying transient failures. The request is
// rebuilt from payload on every attempt — an *http.Request body is
// consumed by the first try, which is why do takes raw bytes rather
// than a request.
func (c *Client) do(method, path, contentType string, payload []byte) ([]byte, error) {
	var last error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			c.sleep(retryBackoff.Delay(0, 0, attempt-1))
		}
		body, err := c.once(method, path, contentType, payload)
		if err == nil {
			return body, nil
		}
		last = err
		if !IsTransient(err) {
			return nil, err
		}
	}
	return nil, last
}

// once performs a single classified request attempt.
func (c *Client) once(method, path, contentType string, payload []byte) ([]byte, error) {
	op := method + " " + strings.SplitN(path, "?", 2)[0]
	var reqBody io.Reader
	if payload != nil {
		reqBody = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, c.base+path, reqBody)
	if err != nil {
		return nil, &Error{Op: op, Err: err}
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		// Transport errors — refused connections, timeouts, resets — are
		// exactly the "tracker briefly down" class retries exist for.
		return nil, &Error{Op: op, Transient: true, Err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxManifestBytes+1))
	if err != nil {
		return nil, &Error{Op: op, Status: resp.StatusCode, Transient: true,
			Err: fmt.Errorf("read response: %w", err)}
	}
	if resp.StatusCode/100 != 2 {
		return nil, &Error{Op: op, Status: resp.StatusCode, Transient: transientStatus(resp.StatusCode),
			Err: fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))}
	}
	return body, nil
}

// Publish uploads a manifest and returns the swarm's info hash.
func (c *Client) Publish(m *container.Manifest) (wire.InfoHash, error) {
	var ih wire.InfoHash
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return ih, fmt.Errorf("tracker: encode manifest: %w", err)
	}
	raw := buf.Bytes()
	body, err := c.do(http.MethodPost, "/publish", "application/json", raw)
	if err != nil {
		return ih, err
	}
	var out struct {
		InfoHash string `json:"info_hash"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return ih, fmt.Errorf("tracker: parse publish response: %w", err)
	}
	got, err := wire.ParseInfoHash(out.InfoHash)
	if err != nil {
		return ih, err
	}
	if want := InfoHashFor(raw); got != want {
		return ih, fmt.Errorf("tracker: info hash mismatch: got %s want %s", got, want)
	}
	return got, nil
}

// Manifest fetches and validates the swarm's manifest.
func (c *Client) Manifest(ih wire.InfoHash) (*container.Manifest, error) {
	body, err := c.do(http.MethodGet, "/manifest?info_hash="+ih.String(), "", nil)
	if err != nil {
		return nil, err
	}
	// Verify the content actually matches the requested swarm identity
	// before trusting it.
	if got := InfoHashFor(body); got != ih {
		return nil, fmt.Errorf("tracker: manifest hash %s does not match swarm %s", got, ih)
	}
	return container.ReadManifest(bytes.NewReader(body))
}

// Announce registers this peer and returns the other swarm members.
func (c *Client) Announce(ih wire.InfoHash, peerID wire.PeerID, addr string, seeder bool) ([]PeerInfo, error) {
	q := url.Values{}
	q.Set("info_hash", ih.String())
	q.Set("peer_id", peerID.String())
	q.Set("addr", addr)
	if seeder {
		q.Set("seeder", "1")
	}
	body, err := c.do(http.MethodGet, "/announce?"+q.Encode(), "", nil)
	if err != nil {
		return nil, err
	}
	var resp AnnounceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("tracker: parse announce response: %w", err)
	}
	return resp.Peers, nil
}

// Leave deregisters this peer.
func (c *Client) Leave(ih wire.InfoHash, peerID wire.PeerID) error {
	q := url.Values{}
	q.Set("info_hash", ih.String())
	q.Set("peer_id", peerID.String())
	_, err := c.do(http.MethodPost, "/leave?"+q.Encode(), "", nil)
	return err
}
