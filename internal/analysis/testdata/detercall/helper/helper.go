// Package helper is a fixture package OUTSIDE the deterministic set: a
// per-package check never sees its wall-clock read from the caller's
// side. No findings surface here (determinism's Match rejects the path);
// the package exists to carry taint across the package boundary.
package helper

import "time"

// Stamp reads the wall clock directly: the taint source.
func Stamp() int64 { return time.Now().UnixNano() }

// Indirect adds one hop so chains longer than a single edge are proven.
func Indirect() int64 { return Stamp() + 1 }

// Pure is taint-free: callers stay clean.
func Pure(a, b int) int { return a + b }
