package runner

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adapt"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/sim"
)

func baseInputs() (config.Machine, config.Run) {
	m := config.Default()
	r := config.NewRun("vpr", core.BaseP())
	return m, r
}

// fullInputs is a run with every optional block enabled and every
// defaulted field explicit, so bumping any single field changes what the
// simulator does (a bump on a disabled block would be normalized away,
// rightly sharing the base's key).
func fullInputs() (config.Machine, config.Run) {
	m := config.Default()
	r := config.NewRun("vpr", core.ICR(core.ParityProt, core.LookupParallel, core.ReplLoadsStores))
	r.Repl = core.ReplConfig{Distances: []int{32}, Replicas: 1, Victim: core.DeadOnly, DecayWindow: 1000}
	r.WriteThrough = true
	r.Fault = config.FaultConfig{Model: fault.Random, Prob: 1e-4, Seed: 3}
	r.Hints = core.NewRangePolicy(core.AddrRange{Start: 0, End: 4096})
	r.DupCacheKB = 2
	r.ScrubInterval, r.ScrubLines = 5000, 2
	r.Prefetch = true
	r.Sample = config.SampleConfig{Period: 50_000}.Normalized()
	r.Adapt = adapt.Config{Predictor: adapt.PredictorDecay}
	r.TwoTier = config.TwoTier{
		Protect: core.ParityProt, Replicate: true, CrossTier: true, ExtraLatency: 4,
		Fault: config.FaultConfig{Prob: 1e-5, Seed: 5},
	}
	return m, r.Normalized()
}

func mustKey(t *testing.T, m config.Machine, r config.Run) Key {
	t.Helper()
	k, ok := KeyFor(m, r)
	if !ok {
		t.Fatal("KeyFor reported inputs non-memoizable")
	}
	return k
}

func TestKeyForDeterministic(t *testing.T) {
	m, r := baseInputs()
	r.Repl.Distances = []int{32, 16}
	r.Hints = core.NewRangePolicy(core.AddrRange{Start: 0, End: 4096})

	k1 := mustKey(t, m, r)

	// Rebuild the run from scratch (fresh slice/policy allocations): the key
	// must depend on values, never on pointer identity.
	m2, r2 := baseInputs()
	r2.Repl.Distances = []int{32, 16}
	r2.Hints = core.NewRangePolicy(core.AddrRange{Start: 0, End: 4096})
	if k2 := mustKey(t, m2, r2); k1 != k2 {
		t.Errorf("identical inputs hashed differently:\n%s\n%s", k1, k2)
	}
}

// TestKeyForGolden pins the hash of the default machine × a plain BaseP run.
// It fails when the serialization changes, which is exactly when it should:
// the key is a content address and must be stable across processes, so any
// format change has to be deliberate (update the constant when it is).
func TestKeyForGolden(t *testing.T) {
	m, r := baseInputs()
	const want = "2ff4e4076ebbe04b92f15fc1a864fa8a73b5ffef209d58ab4ca887e3a5c2e024"
	if got := mustKey(t, m, r).String(); got != want {
		t.Errorf("golden key changed:\n got %s\nwant %s\n(update the constant only for a deliberate serialization change)", got, want)
	}
}

// TestKeyForFieldSensitivity walks every field of config.Machine and
// config.Run by reflection and bumps each one in isolation from
// fullInputs. Each mutation must change the key, collide with no other
// mutation, and survive the wire: its canonical bytes decode to the
// normalized input, which hashes to the same key. Because the walk
// enumerates fields dynamically, a field the encoding leaves out (or
// cannot carry back) fails this test the moment it is added.
func TestKeyForFieldSensitivity(t *testing.T) {
	m0, r0 := fullInputs()
	_, n := mutateField(&m0, &r0, 0, 0)
	if n < 80 {
		t.Errorf("reflection walk found only %d fields", n)
	}
	seen := map[Key]string{}
	for i := -1; i < n; i++ {
		m, r := fullInputs()
		name := "base"
		if i >= 0 {
			name, _ = mutateField(&m, &r, i, 1)
		}

		spec, key, ok := SpecFor(m, r)
		if !ok {
			t.Fatalf("%s: SpecFor refused the input", name)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("mutating %s produced the same key as %s", name, prev)
		}
		seen[key] = name
		gotM, gotR, err := config.Decode(spec)
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		if want := r.Normalized(); !reflect.DeepEqual(gotM, m) || !reflect.DeepEqual(gotR, want) {
			t.Errorf("%s: input did not round-trip:\n got %+v %+v\nwant %+v %+v", name, gotM, gotR, m, want)
		}
		if k := mustKey(t, gotM, gotR); k != key {
			t.Errorf("%s: decoded input hashes to %s, want %s", name, k, key)
		}
	}
}

// mutateField changes leaf field i (mod the leaf count) of the inputs and
// returns its name and the leaf count. delta == 0 leaves the
// field untouched; otherwise delta sets the size of the change (for bools,
// whether there is one): delta 1 is the minimal change — +1 for integers,
// a flip for bools, one more element or character for slices and strings.
func mutateField(m *config.Machine, r *config.Run, i int, delta uint64) (string, int) {
	var names []string
	var fields []reflect.Value
	collect := func(name string, v reflect.Value) {
		names, fields = append(names, name), append(fields, v)
	}
	leaves(reflect.ValueOf(m).Elem(), "Machine", collect)
	leaves(reflect.ValueOf(r).Elem(), "Run", collect)
	i %= len(fields)
	switch v := fields[i]; v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + int64(delta%1024))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + delta)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + float64(delta%1000)/1000)
	case reflect.Bool:
		v.SetBool(v.Bool() != (delta%2 == 1))
	case reflect.String:
		v.SetString(v.String() + strings.Repeat("x", int(delta%4)))
	case reflect.Slice:
		for j := uint64(0); j < delta%3; j++ {
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		}
	default:
		panic("mutateField: unhandled kind " + v.Kind().String())
	}
	return names[i], len(fields)
}

// leaves calls fn with the name and settable value of every leaf field
// under v, descending into structs and through non-nil struct pointers.
// Func, chan, interface, and map fields are skipped:
// TestCPUConfigHookFieldsKnown allows only the two cpu hooks among them.
func leaves(v reflect.Value, name string, fn func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() && v.Elem().Kind() == reflect.Struct {
			leaves(v.Elem(), name, fn)
			return
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			leaves(v.Field(i), name+"."+v.Type().Field(i).Name, fn)
		}
		return
	case reflect.Func, reflect.Chan, reflect.Interface, reflect.Map:
		return
	}
	fn(name, v)
}

func TestKeyForDistancesOrderAndLength(t *testing.T) {
	m, r := baseInputs()
	r.Repl.Distances = []int{32, 16}
	k1 := mustKey(t, m, r)
	r.Repl.Distances = []int{16, 32}
	k2 := mustKey(t, m, r)
	if k1 == k2 {
		t.Error("distance order must affect the key")
	}
	// A length-prefix guard: [32] followed by other fields must not collide
	// with [32,16] via concatenation ambiguity.
	r.Repl.Distances = []int{32}
	if k3 := mustKey(t, m, r); k3 == k1 || k3 == k2 {
		t.Error("distance length must affect the key")
	}
}

func TestKeyForHintPolicies(t *testing.T) {
	m, r := baseInputs()
	kNil := mustKey(t, m, r)

	r.Hints = core.NewRangePolicy()
	kAll := mustKey(t, m, r)
	if kAll == kNil {
		t.Error("a replicate-all policy must hash differently from nil hints")
	}

	r.Hints = core.NewRangePolicy(core.AddrRange{Start: 0, End: 64, Hint: core.Hint{Replicate: false}})
	kRange := mustKey(t, m, r)
	if kRange == kNil || kRange == kAll {
		t.Error("a ranged policy must hash differently from nil/replicate-all")
	}

	r.Hints = core.NewRangePolicy(core.AddrRange{Start: 0, End: 128, Hint: core.Hint{Replicate: false}})
	if k := mustKey(t, m, r); k == kRange {
		t.Error("range bounds must affect the key")
	}

	// Same policy content in a fresh allocation: same key.
	r.Hints = core.NewRangePolicy(core.AddrRange{Start: 0, End: 64, Hint: core.Hint{Replicate: false}})
	if k := mustKey(t, m, r); k != kRange {
		t.Error("equal RangePolicy contents must produce equal keys")
	}
}

func TestKeyForNonMemoizableInputs(t *testing.T) {
	cases := []struct {
		name string
		prep func(*config.Machine, *config.Run)
	}{
		{"EachCycle hook", func(m *config.Machine, r *config.Run) {
			m.CPU.EachCycle = func(uint64) {}
		}},
		{"Halt hook", func(m *config.Machine, r *config.Run) {
			m.CPU.Halt = func() bool { return false }
		}},
		{"non-finite float", func(m *config.Machine, r *config.Run) {
			r.Fault.Prob = math.NaN()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, r := baseInputs()
			tc.prep(&m, &r)
			if _, ok := KeyFor(m, r); ok {
				t.Error("inputs without a canonical encoding must not be memoizable")
			}
		})
	}
}

// TestCPUConfigHookFieldsKnown pins that the config is plain data: no
// func, chan, interface, or map is reachable from config.Machine or
// config.Run except the two cpu.Config hooks, which must stay out of the
// encoding (json:"-"; KeyFor refuses them when set, see
// TestKeyForNonMemoizableInputs). Anything else opaque, or any other field
// tagged out of the encoding, would be silently missed by the key, the
// wire spec, and the pool shape alike.
func TestCPUConfigHookFieldsKnown(t *testing.T) {
	hooks := map[string]bool{"cpu.Config.EachCycle": false, "cpu.Config.Halt": false}
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type)
	walk = func(typ reflect.Type) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice || typ.Kind() == reflect.Array {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || seen[typ] {
			return
		}
		seen[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name := typ.String() + "." + f.Name
			_, hook := hooks[name]
			switch k := f.Type.Kind(); {
			case hook:
				hooks[name] = f.Tag.Get("json") == "-"
			case k == reflect.Func || k == reflect.Chan || k == reflect.Interface || k == reflect.Map:
				t.Errorf("%s has kind %s: the config must be plain data", name, k)
			case f.Tag.Get("json") == "-":
				t.Errorf("%s is left out of the encoding: the key, the wire spec, and the pool shape would ignore it", name)
			default:
				walk(f.Type)
			}
		}
	}
	walk(reflect.TypeOf(config.Machine{}))
	walk(reflect.TypeOf(config.Run{}))
	for name, tagged := range hooks {
		if !tagged {
			t.Errorf("hook %s is gone or not tagged json:\"-\": update KeyFor's guard and this test together", name)
		}
	}
}

// TestKeyForNormalizedRuns pins that the key is taken over the run the
// simulator actually executes: runs that differ only by a default the
// simulator fills in share one key (one simulation, one store entry) and
// produce byte-identical reports.
func TestKeyForNormalizedRuns(t *testing.T) {
	m := config.Default()
	nop := func(*config.Run) {}
	cases := []struct {
		name         string
		plain, extra func(*config.Run)
	}{
		{"budget",
			func(r *config.Run) { r.Instructions = config.DefaultInstructions },
			func(r *config.Run) { r.Instructions = 0 }},
		{"energy", nop, func(r *config.Run) { r.Energy = energy.Params{} }},
		{"adapt-defaults",
			func(r *config.Run) { r.Adapt = adapt.Config{Predictor: adapt.PredictorDecay}.Normalized() },
			func(r *config.Run) { r.Adapt = adapt.Config{Predictor: adapt.PredictorDecay} }},
		{"adapt-disabled", nop, func(r *config.Run) { r.Adapt = adapt.Config{Epoch: 5000, MaxReplicas: 3} }},
		{"twotier",
			func(r *config.Run) { r.TwoTier = config.TwoTier{Protect: core.ECCProt} },
			func(r *config.Run) {
				r.TwoTier = config.TwoTier{Protect: core.ECCProt, DecayWindow: 512,
					Fault: config.FaultConfig{Model: fault.Column, Seed: 9}}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var runs [2]config.Run
			var reps [2][]byte
			for i, mut := range []func(*config.Run){tc.plain, tc.extra} {
				runs[i] = config.NewRun("gzip", core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores))
				runs[i].Instructions = 30_000
				mut(&runs[i])
				rep, err := sim.Simulate(m, runs[i])
				if err != nil {
					t.Fatal(err)
				}
				if reps[i], err = json.Marshal(rep); err != nil {
					t.Fatal(err)
				}
			}
			if reflect.DeepEqual(runs[0], runs[1]) {
				t.Fatal("the pair must differ before normalization")
			}
			if ka, kb := mustKey(t, m, runs[0]), mustKey(t, m, runs[1]); ka != kb {
				t.Errorf("equal-after-defaulting runs keyed apart: %s vs %s", ka, kb)
			}
			if string(reps[0]) != string(reps[1]) {
				t.Errorf("runs sharing a key reported differently:\n%s\n%s", reps[0], reps[1])
			}
		})
	}
}
