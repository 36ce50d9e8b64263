package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"p2psplice/internal/trace"
)

func writeTrace(t *testing.T, events []trace.Event) string {
	t.Helper()
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "node.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSONL(f, events); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// -require-attributed must not pass on zero stalls out of zero peers,
// and must accept a real node's log, whose player events carry no peer
// id.
func TestRequireAttributedNeedsAPlaybackPeer(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.txt")
	noPlayer := writeTrace(t, []trace.Event{
		{At: time.Second, Peer: -1, Seg: 0, Cat: trace.CatPool, Name: trace.EvSegComplete},
	})
	err := cmdReport([]string{noPlayer, "-require-attributed", "-o", out})
	if err == nil || !strings.Contains(err.Error(), "no playback peer") {
		t.Fatalf("report over a log without player events: err = %v, want no playback peer", err)
	}

	node := writeTrace(t, []trace.Event{
		{At: time.Second, Peer: -1, Seg: -1, Cat: trace.CatPlayer, Name: trace.EvStartup},
		{At: 2 * time.Second, Peer: -1, Seg: -1, Cat: trace.CatPlayer, Name: trace.EvStallBegin},
		{At: 2 * time.Second, Peer: -1, Seg: -1, Cat: trace.CatPlayer, Name: trace.EvStallCause,
			Args: []trace.Arg{trace.Str("cause", trace.CauseSlowFlow)}},
		{At: 3 * time.Second, Peer: -1, Seg: -1, Cat: trace.CatPlayer, Name: trace.EvStallEnd},
	})
	if err := cmdReport([]string{node, "-require-attributed", "-o", out}); err != nil {
		t.Fatalf("report over a node's own log: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("-o wrote an empty report")
	}
}
