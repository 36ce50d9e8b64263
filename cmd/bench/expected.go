package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// defaultSeed is the seed expected.json pins outputs for. On any other
// seed the output check is agreement across repetitions.
const defaultSeed = 1

// expectedJSON maps scale → workload → name → value: the digest of
// every figure's values, the netem digest and counts, and the stream
// workloads' segment counts and manifest digests, for defaultSeed.
//
//go:embed expected.json
var expectedJSON []byte

type expectations map[string]map[string]map[string]string

func loadExpected() expectations {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		panic("bench: embedded expected.json: " + err.Error()) // checked in; a test parses it
	}
	return e
}

func expectedFor(scale, workload string) map[string]string { return loadExpected()[scale][workload] }

// formatExact renders an exact value: digests in hex, counts in decimal.
// strconv.ParseUint(s, 0, 64) reads both back.
func formatExact(name string, v uint64) string {
	if strings.HasSuffix(name, "digest") {
		return fmt.Sprintf("0x%016x", v)
	}
	return fmt.Sprintf("%d", v)
}

// updateExpected regenerates expected.json in dir from one traced pair
// of every workload at both scales.
func updateExpected(dir string) error {
	e := expectations{}
	for _, smoke := range []bool{true, false} {
		o := options{seed: defaultSeed, reps: 1, traced: true, smoke: smoke}
		e[o.scale()] = map[string]map[string]string{}
		for _, w := range workloads {
			res := runPass(w, o)
			// Mismatches against the file being replaced are the point;
			// anything else means the values are not worth pinning.
			for _, p := range res.Problems {
				fmt.Fprintln(os.Stderr, "bench: update-expected:", w.name+":", p)
			}
			if res.Failed > 0 {
				return fmt.Errorf("%s (%s): %d of %d operations failed", w.name, o.scale(), res.Failed, res.Attempted)
			}
			e[o.scale()][w.name] = res.Exact
		}
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "expected.json"), append(data, '\n'), 0o644)
}
