package runner

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
)

// FuzzKeyFor drives the content-address hash with fuzzer-chosen inputs and
// single-field mutations, asserting the properties memoization and the
// cluster wire rest on: equal inputs always hash equal (stability), any
// observable input difference hashes different (no collisions that would
// serve one run's report for another's configuration), and an input's
// canonical bytes decode to an input with the same key.
func FuzzKeyFor(f *testing.F) {
	// Seeds spread across the field walk (about 90 leaves).
	for sel := uint8(0); sel < 24; sel++ {
		f.Add(uint64(1_000_000), int64(1), sel*4, uint64(1))
	}
	f.Add(uint64(0), int64(-5), uint8(3), uint64(0))          // delta 0: no-op mutation
	f.Add(uint64(1<<63), int64(1<<40), uint8(9), uint64(255)) // extreme values

	f.Fuzz(func(t *testing.T, instructions uint64, seed int64, sel uint8, delta uint64) {
		m1 := config.Default()
		r1 := config.NewRun("vpr", core.BaseP())
		r1.Instructions = instructions
		r1.Seed = seed

		k1, ok := KeyFor(m1, r1)
		if !ok {
			t.Fatal("base inputs must be memoizable")
		}
		if k2, _ := KeyFor(m1, cloneRun(r1)); k1 != k2 {
			t.Fatalf("same inputs, different keys: %s vs %s", k1, k2)
		}

		m2, r2 := m1, cloneRun(r1)
		mutateField(&m2, &r2, int(sel), delta)
		spec, k2, ok := SpecFor(m2, r2)
		if !ok {
			t.Fatal("mutated inputs must stay memoizable")
		}
		// Round trip: a cluster worker addresses exactly what it was sent.
		m3, r3, err := config.Decode(spec)
		if k3, _ := KeyFor(m3, r3); err != nil || k3 != k2 {
			t.Errorf("sel=%d delta=%d: key(decode(encode(x))) = %s (%v), key(x) = %s", sel, delta, k3, err, k2)
		}

		// Equality is judged on the normalized runs: inputs the simulator
		// defaults to the same run must share a key.
		same := reflect.DeepEqual(m1, m2) && reflect.DeepEqual(r1.Normalized(), r2.Normalized())
		if same && k1 != k2 {
			t.Errorf("sel=%d delta=%d: equal inputs hashed differently", sel, delta)
		}
		if !same && k1 == k2 {
			t.Errorf("sel=%d delta=%d: distinct inputs collided on %s", sel, delta, k1)
		}
	})
}

// cloneRun deep-copies a Run including its reference-typed fields, so a
// mutation to the copy can never alias the original.
func cloneRun(r config.Run) config.Run {
	cp := r
	cp.Repl.Distances = append([]int(nil), r.Repl.Distances...)
	return cp
}
