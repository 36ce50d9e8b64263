package analysis

// All returns every splicelint analyzer, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		Mutexguard,
		Golifecycle,
		Wireerr,
		Floatcmp,
		Atomicguard,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
