// Package cdn implements the hybrid architecture of the paper's Section IV:
// a CDN origin serving spliced segments over HTTP, and a client that
// downloads one segment at a time, sized by the rule W <= B*T — if the
// client has T seconds of buffer and bandwidth B, the largest segment that
// cannot cause a stall is B*T bytes.
//
// The origin can host several splicings of the same clip (a *duration
// ladder*: 2 s / 4 s / 8 s variants, analogous to a DASH bitrate ladder),
// and the client switches variants at aligned segment boundaries, picking
// the longest-duration variant whose next segment still satisfies the bound.
// This realizes the "adaptive splicing" the paper sketches as future work:
// adapting segment duration instead of bit-rate, so quality never degrades.
package cdn

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"p2psplice/internal/container"
)

// Variant is one splicing of the clip hosted by the origin.
type Variant struct {
	// Name labels the variant ("2s", "4s", "8s", "gop").
	Name string
	// Manifest describes the variant's segments.
	Manifest *container.Manifest
	blobs    [][]byte
}

// Origin is an HTTP segment server. Safe for concurrent use.
type Origin struct {
	mu       sync.RWMutex
	variants map[string]*Variant
	order    []string
}

// NewOrigin returns an empty origin.
func NewOrigin() *Origin {
	return &Origin{variants: make(map[string]*Variant)}
}

// AddVariant registers a splicing variant. Blob i must verify against the
// manifest's segment i.
func (o *Origin) AddVariant(name string, m *container.Manifest, blobs [][]byte) error {
	if name == "" || strings.ContainsAny(name, "/ ") {
		return fmt.Errorf("cdn: bad variant name %q", name)
	}
	if err := m.Validate(); err != nil {
		return err
	}
	if len(blobs) != len(m.Segments) {
		return fmt.Errorf("cdn: %d blobs for %d segments", len(blobs), len(m.Segments))
	}
	for i, b := range blobs {
		if err := m.VerifySegment(i, b); err != nil {
			return fmt.Errorf("cdn: variant %q: %w", name, err)
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, dup := o.variants[name]; dup {
		return fmt.Errorf("cdn: duplicate variant %q", name)
	}
	o.variants[name] = &Variant{Name: name, Manifest: m, blobs: blobs}
	o.order = append(o.order, name)
	sort.Strings(o.order)
	return nil
}

// VariantNames lists registered variants in sorted order.
func (o *Origin) VariantNames() []string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return append([]string(nil), o.order...)
}

// Handler mounts the origin API:
//
//	GET /variants                -> JSON list of variant names
//	GET /manifest/{name}         -> manifest JSON
//	GET /segment/{name}/{index}  -> raw segment container
func (o *Origin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /variants", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		//lint:ignore wireerr response-body write failure means the client went away; nothing to recover server-side
		_ = json.NewEncoder(w).Encode(o.VariantNames())
	})
	mux.HandleFunc("GET /manifest/{name}", func(w http.ResponseWriter, r *http.Request) {
		v, ok := o.variant(r.PathValue("name"))
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		//lint:ignore wireerr response-body write failure means the client went away; nothing to recover server-side
		_ = v.Manifest.WriteJSON(w)
	})
	mux.HandleFunc("GET /playlist/{name}", func(w http.ResponseWriter, r *http.Request) {
		v, ok := o.variant(r.PathValue("name"))
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/vnd.apple.mpegurl")
		//lint:ignore wireerr response-body write failure means the client went away; nothing to recover server-side
		_ = v.Manifest.WriteM3U8(w, "/segment/"+v.Name)
	})
	mux.HandleFunc("GET /segment/{name}/{index}", func(w http.ResponseWriter, r *http.Request) {
		v, ok := o.variant(r.PathValue("name"))
		if !ok {
			http.NotFound(w, r)
			return
		}
		idx, err := strconv.Atoi(r.PathValue("index"))
		if err != nil || idx < 0 || idx >= len(v.blobs) {
			http.Error(w, "bad segment index", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		//lint:ignore wireerr response-body write failure means the client went away; nothing to recover server-side
		_, _ = w.Write(v.blobs[idx])
	})
	return mux
}

func (o *Origin) variant(name string) (*Variant, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	v, ok := o.variants[name]
	return v, ok
}
