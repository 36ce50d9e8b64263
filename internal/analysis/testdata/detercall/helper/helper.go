// Package helper is a fixture package OUTSIDE the deterministic set. No
// findings surface here (determinism's Match rejects the path); importing
// it from a deterministic package is the finding.
package helper

import "time"

// Stamp reads the wall clock directly.
func Stamp() int64 { return time.Now().UnixNano() }

// Indirect reaches the wall clock through one more hop.
func Indirect() int64 { return Stamp() + 1 }

// Pure is deterministic, yet importing its package is still a finding.
func Pure(a, b int) int { return a + b }
