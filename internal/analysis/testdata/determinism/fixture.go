// Fixture for the determinism analyzer's direct findings, type-checked
// as if it were package p2psplice/internal/sim.
package sim

import (
	crand "crypto/rand"
	"math/rand"
	"sort"
	"time"
)

// bootAt calls the wall clock from a package-level initializer: one
// finding, classified as a call.
var bootAt = time.Now() // want "call to time.Now \(wall clock\)"

func clock() time.Time {
	return time.Now() // want "call to time.Now \(wall clock\)"
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want "call to time.Since \(wall clock\)"
}

func nonce(b []byte) {
	_, _ = crand.Read(b) // want "call to crypto/rand.Read \(entropy read\)"
}

func roll() int {
	return rand.Intn(6) // want "process-global RNG"
}

func shuffleGlobal(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "process-global RNG"
}

func seeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed)) // seeded constructor: allowed
	return r.Float64()
}

func unsortedKeys(m map[string]int) []string {
	var out []string
	for k := range m { // want "iteration order is nondeterministic"
		out = append(out, k)
	}
	return out
}

func sortedKeys(m map[string]int) []string {
	var out []string
	for k := range m { // sorted below: allowed
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sliceOrder(xs []int) []int {
	var out []int
	for _, x := range xs { // slice iteration is ordered: allowed
		out = append(out, x)
	}
	return out
}

func suppressedClock() time.Time {
	//lint:ignore determinism fixture demonstrating an explicit suppression
	return time.Now()
}
