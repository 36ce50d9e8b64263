// Package sim is loaded under a DeterministicPackages path: every leak
// of nondeterminism through the helper package must surface here, with
// the full call chain.
package sim

import (
	"time"

	"p2psplice/internal/helper"
)

// clock stores a wall-clock reference at package level: no call exists
// at the site, yet every later use of the value reads the wall clock.
var clock = time.Now // want "reference to time.Now \(wall clock\) leaks nondeterminism"

// bootStamp reaches the wall clock from a package-level initializer: no
// function encloses the call, so the chain starts at the callee.
var bootStamp = helper.Indirect() // want "call chain reaches nondeterminism: helper.Indirect -> helper.Stamp -> time.Now \(wall clock\)"

// Step leaks through two helper hops; the report carries the chain.
func Step() int64 {
	return helper.Indirect() // want "call chain reaches nondeterminism: sim.Step -> helper.Indirect -> helper.Stamp -> time.Now \(wall clock\)"
}

// sample passes a source function as a value instead of calling it.
func sample() func() time.Time {
	return time.Now // want "reference to time.Now \(wall clock\) leaks nondeterminism"
}

// Sum only touches the taint-free helper: clean.
func Sum() int { return helper.Pure(1, 2) }

// stamped exercises a justified suppression: the finding exists but is
// silenced, and the suppression counts as used (not dead).
func stamped() int64 {
	//lint:ignore determinism fixture: deliberate wall-clock edge under a justification
	return helper.Stamp()
}
