package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"p2psplice/internal/splicer"
)

var osStat = os.Stat

func TestPickSplicer(t *testing.T) {
	sp, err := pickSplicer("gop")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sp.(splicer.GOPSplicer); !ok {
		t.Errorf("gop parsed as %T", sp)
	}
	sp, err = pickSplicer("4s")
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := sp.(splicer.DurationSplicer); !ok || d.Target != 4*time.Second {
		t.Errorf("4s parsed as %#v", sp)
	}
	if _, err := pickSplicer("adaptive"); err != nil {
		t.Errorf("adaptive: %v", err)
	}
	for _, bad := range []string{"", "xyz", "-4s", "0s"} {
		if _, err := pickSplicer(bad); err == nil {
			t.Errorf("pickSplicer(%q): want error", bad)
		}
	}
}

func TestRunWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "m.json")
	playlist := filepath.Join(dir, "p.m3u8")
	if err := run(10*time.Second, 1, "2s", 64*1024, manifest, playlist, true); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{manifest, playlist} {
		if fi, err := filepathStat(f); err != nil || fi <= 0 {
			t.Errorf("artifact %s missing or empty (err=%v size=%d)", f, err, fi)
		}
	}
}

// filepathStat returns the size of a file.
func filepathStat(path string) (int64, error) {
	fi, err := osStat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
