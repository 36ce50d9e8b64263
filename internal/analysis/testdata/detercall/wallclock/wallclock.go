// Package wallclock is a second fixture package outside the deterministic
// set, imported under a justified suppression.
package wallclock

import "time"

// Now reads the wall clock.
func Now() time.Time { return time.Now() }
