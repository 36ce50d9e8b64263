// Fixture for the floatcmp analyzer, type-checked as if it were package
// p2psplice/internal/experiment.
package experiment

func eq(a, b float64) bool {
	return a == b // want "floating-point"
}

func neq(a, b float32) bool {
	return a != b // want "floating-point"
}

func zeroCompare(a float64) bool {
	return a == 0 // want "floating-point"
}

func ints(a, b int) bool {
	return a == b // integer equality: allowed
}

func ordered(a, b float64) bool {
	return a < b // ordered float comparison: allowed
}

func epsilon(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}
