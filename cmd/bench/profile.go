package main

import (
	"bytes"
	"runtime/pprof"
	"strings"

	"p2psplice/internal/pprofile"
)

// repoLayers are this repository's modules that a workload exercises;
// each gets a <layer>.self_cpu_s bucket.
var repoLayers = []string{
	"media", "splicer", "container",
	"sim", "netem", "simpeer", "player", "core", "reputation", "experiment",
	"wire", "tracker", "peer", "shaper", "trace",
}

// stdBuckets are the buckets for code outside the repository's layers.
// "other" takes whatever no rule claims, so the buckets always sum to
// the profile total.
var stdBuckets = []string{"runtime", "syscall_net", "hash", "heap_sort", "other"}

// bucketOf maps a profile function name to its bucket by the package of
// the function.
func bucketOf(fn string) string {
	pkg := funcPackage(fn)
	if rest, ok := strings.CutPrefix(pkg, "p2psplice/internal/"); ok {
		for _, l := range repoLayers {
			if rest == l {
				return l
			}
		}
		return "other"
	}
	switch {
	case strings.Contains(pkg, "syscall"), pkg == "internal/poll", pkg == "os",
		pkg == "net", strings.HasPrefix(pkg, "net/"):
		return "syscall_net"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"),
		pkg == "internal/bytealg", pkg == "internal/abi", pkg == "internal/cpu",
		pkg == "sync", pkg == "sync/atomic", pkg == "internal/sync":
		return "runtime"
	case strings.HasPrefix(pkg, "crypto/"), strings.HasPrefix(pkg, "hash/"), pkg == "hash":
		return "hash"
	case pkg == "container/heap", pkg == "sort", pkg == "slices":
		return "heap_sort"
	}
	return "other"
}

// funcPackage returns the import path of a symbol such as
// "p2psplice/internal/simpeer.(*peer).fill" or
// "slices.SortFunc[go.shape.struct { a/b.T }]".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain slashes and dots
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// bucketProfile sums a profile's flat (leaf-frame) cost per bucket, in
// seconds. Every bucket is present, zero when nothing landed in it.
func bucketProfile(p *pprofile.Profile) map[string]float64 {
	out := make(map[string]float64, len(repoLayers)+len(stdBuckets))
	for _, l := range repoLayers {
		out[l] = 0
	}
	for _, b := range stdBuckets {
		out[b] = 0
	}
	for _, f := range p.Functions {
		out[bucketOf(f.Name)] += float64(f.Flat) / 1e9
	}
	return out
}

// cpuProfile runs fn under the CPU profiler and returns the parsed
// profile. fn runs even when the profiler cannot start (another profile
// is already being taken in this process).
func cpuProfile(fn func()) (*pprofile.Profile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		fn()
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	return pprofile.Parse(buf.Bytes())
}
