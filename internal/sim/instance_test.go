package sim

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/adapt"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/workload"
)

// identityMatrix covers every construction-relevant knob the instance pool
// must absorb: schemes with and without replication/ECC, fault injection,
// scrubbing, write-through with a buffer, the duplicate cache, prefetch,
// decay variants, sampled mode, and software hints.
func identityMatrix() []config.Run {
	machine := config.Default()
	sets := machine.DL1Sets()
	repl := core.ReplConfig{
		Distances:   core.VerticalDistances(sets),
		Replicas:    1,
		Victim:      core.DeadFirst,
		DecayWindow: 1000,
	}
	runs := []config.Run{
		config.NewRun("gzip", core.BaseP()),
		config.NewRun("vpr", core.BaseECC(true)),
	}
	r := config.NewRun("gzip", core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores))
	r.Repl = repl
	runs = append(runs, r)

	r = config.NewRun("vpr", core.ICR(core.ECCProt, core.LookupParallel, core.ReplLoadsStores))
	r.Repl = repl
	r.Repl.LeaveReplicas = true
	runs = append(runs, r)

	r = config.NewRun("gzip", core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores))
	r.Repl = repl
	r.Repl.Decay = core.Adaptive
	r.Fault = config.FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 7}
	runs = append(runs, r)

	r = config.NewRun("vpr", core.ICR(core.ECCProt, core.LookupSerial, core.ReplStores))
	r.Repl = repl
	r.Fault = config.FaultConfig{Model: fault.Direct, Prob: 1e-3, Seed: 11}
	r.ScrubInterval = 5000
	r.ScrubLines = 2
	runs = append(runs, r)

	r = config.NewRun("gzip", core.BaseP())
	r.WriteThrough = true
	r.WriteBufferEntries = 4
	runs = append(runs, r)

	r = config.NewRun("vpr", core.BaseECC(false))
	r.DupCacheKB = 8
	r.Prefetch = true
	runs = append(runs, r)

	r = config.NewRun("gzip", core.ICR(core.ECCProt, core.LookupParallel, core.ReplLoadsStores))
	r.Repl = repl
	r.Sample = config.SampleConfig{Period: 20_000, Detail: 1_000, Warmup: 400}
	runs = append(runs, r)

	// An ICR-ADAPT run on a phase-shifting workload: the controller's own
	// state (ladder level, streaks, hold embargo, trajectory) must reset
	// with the arena, and its epoch-by-epoch retuning must replay
	// identically on a pooled instance.
	r = config.NewRun("flux", core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores))
	r.Repl = core.ReplConfig{
		Distances:   core.Power2Distances(sets, 2),
		Replicas:    1,
		Victim:      core.DeadOnly,
		DecayWindow: adapt.DefaultMaxWindow,
	}
	r.Adapt = adapt.Config{Predictor: adapt.PredictorDecay}
	runs = append(runs, r)

	// Two-tier runs: a protected tier under a replicating L1 with
	// cross-tier placement both ways and faults injected at both tiers,
	// and a plain ECC tier under a base L1. The tier's arena (lines,
	// parity, ECC bytes, guest state) must reset with the instance, and
	// the tier fault injector is per-run state the shape key must ignore.
	r = config.NewRun("gzip", core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores))
	r.Repl = repl
	r.Fault = config.FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 7}
	r.TwoTier = config.TwoTier{
		Protect: core.ParityProt, Replicate: true, Victim: core.DeadFirst,
		DecayWindow: 1000, CrossTier: true,
		Fault: config.FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 13},
	}
	runs = append(runs, r)

	r = config.NewRun("vpr", core.BaseECC(false))
	r.TwoTier = config.TwoTier{Protect: core.ECCProt, ExtraLatency: 20}
	runs = append(runs, r)

	// A software-hinted run: the policy is baked into the dl1 at
	// construction, so hinted runs pool by the policy's content.
	r = config.NewRun("gzip", core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores))
	r.Repl = repl
	r.Hints = core.NewRangePolicy(core.AddrRange{Start: 0, End: 1 << 16, Hint: core.Hint{Replicate: false}})
	runs = append(runs, r)

	for i := range runs {
		runs[i].Instructions = 120_000
	}
	return runs
}

// freshReport simulates r on a freshly built, never-pooled instance — the
// oracle the pooled path must match byte for byte.
func freshReport(t *testing.T, m config.Machine, r config.Run) []byte {
	t.Helper()
	profile, err := workload.ByName(r.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New(profile, r.Seed)
	if err != nil {
		t.Fatal(err)
	}
	r = r.Normalized()
	rep, err := newInstance(m, r).simulate(context.Background(), m, r, gen)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPooledInstanceByteIdentical pins the arena-reuse contract: a report
// produced on a pooled, reset instance is byte-identical to one from a
// fresh build. Each config runs once to populate the pool and once
// reusing it; both are compared against a never-pooled oracle.
func TestPooledInstanceByteIdentical(t *testing.T) {
	m := config.Default()
	for _, r := range identityMatrix() {
		r := r
		t.Run(r.Name(), func(t *testing.T) {
			want := freshReport(t, m, r)
			for pass := 0; pass < 2; pass++ {
				rep, err := Simulate(m, r)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Fatalf("pass %d diverged from fresh-instance oracle:\n got: %s\nwant: %s", pass, got, want)
				}
			}
		})
	}
}

// TestShapeOf pins the poolability rules: every encodable run pools, any
// construction-relevant knob must change the shape key, and per-run state
// must not.
func TestShapeOf(t *testing.T) {
	m := config.Default()
	base := config.NewRun("gzip", core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores))

	s0 := shapeOf(m, base)
	if s0 == "" {
		t.Fatal("plain run should be poolable")
	}
	// Per-run fields are zeroed before encoding, so a non-finite one
	// cannot block pooling.
	if shapeOf(m, config.Run{Fault: config.FaultConfig{Prob: math.NaN()}, Energy: energy.Params{L1Read: math.Inf(1)}}) == "" {
		t.Error("a non-finite per-run float blocked pooling")
	}
	mutants := []func(*config.Machine, *config.Run){
		func(m *config.Machine, r *config.Run) { m.DL1Size *= 2 },
		func(m *config.Machine, r *config.Run) { m.L2Latency++ },
		func(m *config.Machine, r *config.Run) { m.MemLatency++ },
		func(m *config.Machine, r *config.Run) { r.Scheme = core.BaseECC(true) },
		func(m *config.Machine, r *config.Run) { r.Repl.Distances = []int{1, 2} },
		func(m *config.Machine, r *config.Run) { r.Repl.Replicas = 2 },
		func(m *config.Machine, r *config.Run) { r.Repl.Victim = core.DeadFirst },
		func(m *config.Machine, r *config.Run) { r.Repl.DecayWindow = 4096 },
		func(m *config.Machine, r *config.Run) { r.Repl.LeaveReplicas = true },
		func(m *config.Machine, r *config.Run) { r.Repl.Decay = core.Adaptive },
		func(m *config.Machine, r *config.Run) { r.Adapt = adapt.Config{Predictor: adapt.PredictorDecay} },
		func(m *config.Machine, r *config.Run) { r.WriteThrough = true },
		func(m *config.Machine, r *config.Run) { r.DupCacheKB = 8 },
		func(m *config.Machine, r *config.Run) { r.Prefetch = true },
		func(m *config.Machine, r *config.Run) { r.TwoTier = config.TwoTier{Protect: core.ParityProt} },
		func(m *config.Machine, r *config.Run) {
			r.TwoTier = config.TwoTier{Protect: core.ParityProt, Replicate: true, CrossTier: true}
		},
		func(m *config.Machine, r *config.Run) {
			r.TwoTier = config.TwoTier{Protect: core.ECCProt, ExtraLatency: 20}
		},
		func(m *config.Machine, r *config.Run) { r.Hints = core.NewRangePolicy() },
		func(m *config.Machine, r *config.Run) {
			r.Hints = core.NewRangePolicy(core.AddrRange{Start: 0, End: 4096})
		},
	}
	for i, mut := range mutants {
		mm, rr := m, base
		mut(&mm, &rr)
		if s := shapeOf(mm, rr); s == s0 {
			t.Errorf("mutant %d did not change the shape key", i)
		}
	}

	// Per-run state must NOT change the shape: these are absorbed by reset.
	same := []func(*config.Run){
		func(r *config.Run) { r.Benchmark = "vpr" },
		func(r *config.Run) { r.Seed = 99 },
		func(r *config.Run) { r.Instructions = 1 },
		func(r *config.Run) { r.Fault = config.FaultConfig{Model: fault.Direct, Prob: 0.5, Seed: 3} },
		func(r *config.Run) { r.ScrubInterval = 100 },
		func(r *config.Run) { r.Sample = config.SampleConfig{Period: 1000} },
		func(r *config.Run) { r.Energy.L1Read *= 2 },
		// Tier fault injection is per-run state: differently-seeded
		// injection runs must share one arena.
		func(r *config.Run) { r.TwoTier.Fault = config.FaultConfig{Model: fault.Direct, Prob: 0.5, Seed: 3} },
	}
	for i, mut := range same {
		rr := base
		mut(&rr)
		if s := shapeOf(m, rr); s != s0 {
			t.Errorf("per-run mutant %d changed the shape key", i)
		}
	}
}

// TestInstancePoolBounds exercises the pool directly: shape matching,
// LIFO reuse, the idle cap, and the non-poolable drop path.
func TestInstancePoolBounds(t *testing.T) {
	p := &instancePool{max: 2}
	a := &instance{shape: "A"}
	b := &instance{shape: "B"}
	c := &instance{shape: "A"}

	if got := p.get("A"); got != nil {
		t.Fatal("empty pool returned an instance")
	}
	p.put(a)
	p.put(b)
	if got := p.get("A"); got != a {
		t.Fatalf("get(A) = %v, want a", got)
	}
	p.put(a)
	p.put(c) // over cap: evicts the oldest (b)
	if got := p.get("B"); got != nil {
		t.Error("evicted instance still retrievable")
	}
	if got := p.get("A"); got != c {
		t.Error("newest A not returned first")
	}
	p.put(&instance{shape: ""}) // non-poolable: dropped
	if got := p.get(""); got != nil {
		t.Error("non-poolable shape must never be served")
	}
}

// TestSimulateSteadyStateAllocs pins the arena-reuse win: once the pool is
// warm, a run allocates only its per-run state (workload generator, fault
// injector, hooks, report) — the cache arenas, RUU, and predictor tables
// are reused. Building the arena alone costs ~800 allocations (and
// megabytes), so the bound below fails if pooling silently stops working.
func TestSimulateSteadyStateAllocs(t *testing.T) {
	m := config.Default()
	cases := []struct {
		name  string
		run   config.Run
		bound float64
	}{
		{"basep", config.NewRun("gzip", core.BaseP()), 700},
		{"icr", config.NewRun("vpr", core.ICR(core.ECCProt, core.LookupParallel, core.ReplLoadsStores)), 1000},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := tc.run
			r.Instructions = 50_000
			if _, err := Simulate(m, r); err != nil {
				t.Fatal(err)
			}
			n := testing.AllocsPerRun(5, func() {
				if _, err := Simulate(m, r); err != nil {
					t.Fatal(err)
				}
			})
			if n > tc.bound {
				t.Errorf("steady-state Simulate allocates %.0f objects/run, want <= %.0f "+
					"(did the instance pool stop reusing arenas?)", n, tc.bound)
			}
		})
	}
}

// TestPoolReuseAcrossNewKnobConfigs pins the hazard resetcoverage exists
// to prevent: two configs that differ only in a recently added knob
// (sampling, scrubbing — both deliberately absent from the shape key)
// share a pool slot, so a Reset that misses the knob's per-run state
// would leak the first config's behaviour into the second. The A-B-A
// pattern forces one arena through both configs and compares every
// report against a never-pooled oracle.
func TestPoolReuseAcrossNewKnobConfigs(t *testing.T) {
	m := config.Default()
	base := config.NewRun("gzip", core.ICR(core.ECCProt, core.LookupParallel, core.ReplLoadsStores))
	base.Instructions = 120_000

	cases := []struct {
		name string
		mut  func(*config.Run)
	}{
		{"sample", func(r *config.Run) {
			r.Sample = config.SampleConfig{Period: 20_000, Detail: 1_000, Warmup: 400}
		}},
		{"scrub", func(r *config.Run) {
			r.ScrubInterval = 5_000
			r.ScrubLines = 2
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			a, b := base, base
			tc.mut(&b)
			sa, sb := shapeOf(m, a), shapeOf(m, b)
			if sa == "" || sa != sb {
				t.Fatalf("configs must share a pool shape for this test to bite: %q vs %q", sa, sb)
			}
			wantA := freshReport(t, m, a)
			wantB := freshReport(t, m, b)
			steps := []struct {
				label string
				run   config.Run
				want  []byte
			}{
				{"A-first", a, wantA},
				{"B-on-A's-arena", b, wantB},
				{"A-on-B's-arena", a, wantA},
			}
			for _, step := range steps {
				rep, err := Simulate(m, step.run)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(step.want) {
					t.Fatalf("%s diverged from the fresh-instance oracle:\n got: %s\nwant: %s",
						step.label, got, step.want)
				}
			}
		})
	}
}
