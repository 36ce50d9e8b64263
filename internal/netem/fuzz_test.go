package netem

import "testing"

// FuzzReallocate feeds fuzzer-mutated byte scripts through the
// differential harness: each input decodes into a flow-event script
// (transfer starts, engine steps, cancellations, capacity changes, link
// flaps, scheduled fault plans) replayed against a paired incremental
// network and reallocateFull oracle. Any rate or state divergence, a
// component other than the walk's, or a link carrying more than its
// derated capacity, fails the run. Seed corpus entries cover each opcode
// family, and each shape of change the persistent components have to
// follow (region_test.go), so the fuzzer starts from structurally valid
// scripts.
func FuzzReallocate(f *testing.F) {
	// seed/node header, then op-heavy tails exercising each opcode class.
	f.Add([]byte{1, 2, 3, 10, 20, 30, 40, 0, 1, 0, 128, 3, 200, 3, 255})
	f.Add([]byte{9, 9, 5, 50, 60, 7, 0, 2, 0, 1, 64, 5, 0, 17, 0, 3, 40, 4, 1, 3, 255})
	f.Add([]byte{0, 44, 2, 90, 90, 0, 0, 6, 1, 3, 30, 6, 1, 3, 30, 7, 0, 12, 1, 3, 250})
	f.Add([]byte{200, 1, 6, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 5, 16, 1, 3, 47, 5, 2, 8, 0, 3, 100, 4, 0})
	for _, shape := range regionShapes {
		f.Add([]byte(shape.script))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512] // bound script length, not coverage
		}
		if err := differentialScript(data); err != nil {
			t.Fatal(err)
		}
	})
}
