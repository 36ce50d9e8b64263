// Package sim is loaded under a DeterministicPackages path: the set must
// be closed under imports, so each import of a module package outside it
// is one finding, whatever the package's functions do.
package sim

import (
	"time"

	"p2psplice/internal/helper" // want "import of p2psplice/internal/helper, which is outside DeterministicPackages"

	//lint:ignore determinism fixture: a justified edge out of the deterministic set
	"p2psplice/internal/wallclock"
)

// clock stores a wall-clock reference at package level: no call exists
// at the site, yet every later use of the value reads the wall clock.
var clock = time.Now // want "reference to time.Now \(wall clock\) leaks nondeterminism"

// bootStamp and Step reach the wall clock through the helper; the import
// above is their one finding.
var bootStamp = helper.Indirect()

func Step() int64 { return helper.Indirect() }

// sample passes a source function as a value instead of calling it.
func sample() func() time.Time {
	return time.Now // want "reference to time.Now \(wall clock\) leaks nondeterminism"
}

// Sum only touches the pure helper; the import is still the finding.
func Sum() int { return helper.Pure(1, 2) }

// stamped uses the suppressed import.
func stamped() time.Time { return wallclock.Now() }
