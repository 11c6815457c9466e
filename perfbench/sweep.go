package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fig9Golden is the committed Fig 9 table; sweep-detail must reproduce it
// byte for byte at the budget it was cut at (config.DefaultInstructions).
const fig9Golden = "results/fig9.csv"

// twoTierBudget is sweep-sampled's per-run budget: long enough for 40
// sampling units per run at the default geometry.
const twoTierBudget = 2_000_000

// twoTierDigest is the SHA-256 of the sampled two-tier sweep's CSV at
// twoTierBudget. A change that means to alter simulated results copies
// the new digest from the mismatch message into this constant and says
// so.
const twoTierDigest = "d0e0486548fce53b3b6df5cba8a9ac2d749c613e9157f3dd6e7ada6795ee1bf0"

// warmBudget is the per-point budget of the set-up pass: the whole sweep
// at so few instructions that what each point pays before its
// instruction work scales dominates.
const warmBudget = 5_000

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 9

// sweepSpec is one figure sweep and its output oracle.
type sweepSpec struct {
	id     string
	opts   experiments.Options
	check  func(csv string) error
	points int // simulations per sweep
	// representative picks the config the traced run replays layer by
	// layer: an ICR scheme on the app the seed selects.
	representative func(r config.Run, app string) bool
}

func fig9Spec() sweepSpec {
	return sweepSpec{
		id:     "fig9",
		opts:   experiments.Options{Instructions: config.DefaultInstructions, Seed: 1},
		points: 80,
		check: func(csv string) error {
			want, err := os.ReadFile(fig9Golden)
			if err != nil {
				return err
			}
			if csv != string(want) {
				return fmt.Errorf("fig9 CSV differs from %s", fig9Golden)
			}
			return nil
		},
		representative: func(r config.Run, app string) bool {
			return r.Benchmark == app && r.Scheme.Name() == "ICR-P-PS(S)"
		},
	}
}

func twoTierSpec() sweepSpec {
	sample, err := config.ParseSample("on")
	if err != nil {
		panic(err) // a constant spec
	}
	return sweepSpec{
		id:     "twotier",
		opts:   experiments.Options{Instructions: twoTierBudget, Seed: 1, Sample: sample},
		points: 120,
		check: func(csv string) error {
			sum := sha256.Sum256([]byte(csv))
			got := hex.EncodeToString(sum[:])
			if got != twoTierDigest {
				return fmt.Errorf("twotier CSV digest %s, recorded %s", got, twoTierDigest)
			}
			return nil
		},
		// The in-tier ICR point without cross-tier placement keeps the dL1
		// and the tier separable for replay.
		representative: func(r config.Run, app string) bool {
			return r.Benchmark == app && r.Scheme.Name() == "ICR-P-PS(S)" &&
				r.TwoTier.Replicate && !r.TwoTier.CrossTier
		},
	}
}

func runSweepDetail(ctx context.Context, c cliArgs) (outcome, error) {
	return runSweep(ctx, c, fig9Spec())
}

func runSweepSampled(ctx context.Context, c cliArgs) (outcome, error) {
	return runSweep(ctx, c, twoTierSpec())
}

func workers() int { return runtime.NumCPU() }

// sweepRun is one measured sweep.
type sweepRun struct {
	wall   time.Duration
	cpu    time.Duration // process CPU time over the sweep
	exec   *spanExecutor
	memo   *durations // nil untraced
	prog   metrics.ProgressSnapshot
	points int
}

// sweepOnce runs the sweep on a fresh runner — never the experiments
// package's process-wide one, whose memo would turn repeats into cache
// hits — and checks its output.
func sweepOnce(ctx context.Context, spec sweepSpec, traced bool) (sweepRun, error) {
	exec := newSpanExecutor(traced)
	o := runner.Options{Workers: workers(), Executor: exec}
	var memo *durations
	if traced {
		prog := metrics.NewProgress()
		memo = &durations{}
		o.Progress = prog
		o.Cache = timedMemo{Cache: runner.NewMemoryCache(runner.DefaultCacheSize, prog), rec: memo}
	}
	r := runner.New(o)
	opts := spec.opts
	opts.Runner = r
	exec.base = time.Now()
	cpu0 := processCPU()
	res, err := experiments.Run(ctx, spec.id, opts)
	wall := time.Since(exec.base)
	cpu := processCPU() - cpu0
	if err != nil {
		return sweepRun{}, err
	}
	if err := spec.check(res.CSV()); err != nil {
		return sweepRun{}, &oracleError{err}
	}
	snap := r.Progress().Snapshot()
	if int(snap.Submitted) != spec.points {
		return sweepRun{}, &oracleError{fmt.Errorf("%s submitted %d points, want %d", spec.id, snap.Submitted, spec.points)}
	}
	return sweepRun{wall: wall, cpu: cpu, exec: exec, memo: memo, prog: snap, points: int(snap.Submitted)}, nil
}

// oracleError marks an output mismatch, as opposed to a failure to run.
type oracleError struct{ err error }

func (e *oracleError) Error() string { return e.err.Error() }
func (e *oracleError) Unwrap() error { return e.err }

// sweepSetup measures the sweep's fixed per-point costs in process CPU
// time: it builds a fresh runner and runs the whole sweep at warmBudget
// instructions a point. That covers instance construction or pool reuse,
// stream and fault set-up, report assembly and the CSV. It does not
// pre-pay the measured sweep: the simulator's instance pool keeps at most
// GOMAXPROCS+2 idle instances, fewer than the sweep's shapes, and the
// throwaway runner's memo is dropped.
func sweepSetup(ctx context.Context, spec sweepSpec) (time.Duration, error) {
	start := processCPU()
	opts := spec.opts
	opts.Instructions = warmBudget
	opts.Runner = runner.New(runner.Options{Workers: workers()})
	if _, err := experiments.Run(ctx, spec.id, opts); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	return processCPU() - start, nil
}

// sweepTopLines runs set-up setupRepeats times and the whole number of
// sweeps closest to c.seconds (at least one), returning the end-to-end
// metrics: the median time one point takes to simulate, which is what a
// user of a single run waits for, and the points the sweeps settle per
// second with a processor for each worker, which sets what a user of the
// whole sweep waits for. Every figure is CPU time: the simulator is
// single-threaded and CPU-bound, and on a shared host wall-clock time
// swings with what other guests run, by more than the bounds. Idle
// workers (imbalance, the sweep's tail) are the traced run's runner.util
// and runner.tail_s; the wall-clock counterparts go to stderr.
func sweepTopLines(ctx context.Context, c cliArgs, spec sweepSpec) (map[string]float64, int, error) {
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		d, err := sweepSetup(ctx, spec)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, d.Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-ups %.3f s\n", setups)
	var lat, wallLat []float64
	var cpu, wall time.Duration
	attempted := 0
	start := time.Now()
	budget := time.Duration(c.seconds) * time.Second
	for n := 0; n == 0 || anotherSweep(time.Since(start), n, budget); n++ {
		sr, err := sweepOnce(ctx, spec, false)
		if err != nil {
			return nil, attempted, err
		}
		attempted += sr.points
		for i, s := range sr.exec.spans {
			lat = append(lat, ms(sr.exec.cpus[i]))
			wallLat = append(wallLat, ms(s.end-s.start))
		}
		cpu += sr.cpu
		wall += sr.wall
	}
	fmt.Fprintf(os.Stderr, "perfbench: wall-clock: point p50 %.3f ms, %.4f points/s\n",
		median(wallLat), float64(attempted)/wall.Seconds())
	return map[string]float64{
		"setup_s":        median(setups),
		"latency_p50_ms": median(lat),
		"max_rps":        float64(attempted) * float64(workers()) / cpu.Seconds(),
	}, attempted, nil
}

// anotherSweep decides, after n whole sweeps took elapsed, whether one
// more runs: it does if, at the mean sweep time so far, ending after it
// lands no further from the budget than ending now. A run measures the
// whole number of sweeps closest to the budget, the larger on a tie.
func anotherSweep(elapsed time.Duration, n int, budget time.Duration) bool {
	next := elapsed + elapsed/time.Duration(n)
	return next-budget <= budget-elapsed
}

func runSweep(ctx context.Context, c cliArgs, spec sweepSpec) (outcome, error) {
	top, attempted, err := sweepTopLines(ctx, c, spec)
	if err != nil {
		return oracleOutcome(attempted, err)
	}
	if !c.trace {
		top["peak_rss_mb"] = peakRSSMB()
		return outcome{metrics: top, attempted: attempted}, nil
	}
	sr, err := sweepOnce(ctx, spec, true)
	if err != nil {
		return oracleOutcome(attempted, err)
	}
	attempted += sr.points
	m := zeroLayers()
	for k, v := range runnerLayers(sr.exec, sr.memo, sr.prog, sr.wall) {
		m[k] = v
	}
	// Both sides in CPU seconds per worker, as max_rps counts them.
	m["trace.overhead_pct"] = pctOver(sr.cpu.Seconds()/float64(workers()), float64(spec.points)/top["max_rps"])

	app := workload.Names()[int(uint64(c.seed)%uint64(len(workload.Names())))]
	rep, ok := sr.exec.find(func(r config.Run) bool { return spec.representative(r, app) })
	if !ok {
		return outcome{}, fmt.Errorf("no representative %s point for %s", spec.id, app)
	}
	layers, err := replayLayers(config.Default(), rep)
	if err != nil {
		return oracleOutcome(attempted, err)
	}
	for k, v := range layers {
		m[k] = v
	}
	return outcome{metrics: m, attempted: attempted}, nil
}

// oracleOutcome turns an output mismatch into an incorrect result and
// passes any other error through.
func oracleOutcome(attempted int, err error) (outcome, error) {
	var oe *oracleError
	if errors.As(err, &oe) {
		return outcome{metrics: map[string]float64{}, attempted: max(attempted, 1), oracleErr: oe}, nil
	}
	return outcome{}, err
}

// zeroLayers starts a traced result with every per-layer metric at 0, the
// reading of a layer that does no work on the workload.
func zeroLayers() map[string]float64 {
	return map[string]float64{
		"serve.miss_p50_ms": 0, "serve.p99_ms": 0, "serve.ladder_rps": 0,
		"workload.warm_ns": 0, "cpu.warm_ns": 0, "cache.l2_access_ns": 0,
		"tier.access_ns": 0, "tier.accesses_per_instr": 0,
		"serve.rejected_frac": 0, "store.shard_get_us.p50": 0, "store.shard_get_us.p99": 0,
		"store.disk_get_us.p50": 0, "store.disk_get_us.p99": 0, "store.rpc_self_us": 0,
		"store.shard_hit_ratio": 0, "store.shard_put_ms": 0, "store.disk_put_ms": 0,
		"store.claim_ms": 0, "store.claim_waits": 0, "client.late_ms.p99": 0, "budget.gap_pct": 0,
	}
}

// pctOver is how much larger x is than base, in percent.
func pctOver(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (x - base) / base * 100
}

// runnerLayers derives the runner and simulate metrics from the Executor
// spans and the runner's own counters.
func runnerLayers(exec *spanExecutor, memo *durations, prog metrics.ProgressSnapshot, wall time.Duration) map[string]float64 {
	var busy time.Duration
	sims := make([]float64, 0, len(exec.spans))
	for _, s := range exec.spans {
		busy += s.end - s.start
		sims = append(sims, ms(s.end-s.start))
	}
	m := map[string]float64{
		"runner.busy_s":      busy.Seconds(),
		"runner.util":        busy.Seconds() / (float64(workers()) * wall.Seconds()),
		"runner.tail_s":      tailAfterSaturation(exec.spans, workers(), wall).Seconds(),
		"runner.sims":        float64(len(exec.spans)),
		"runner.memo_get_us": memo.medianUS(),
		"sim.run_ms":         median(sims),
		"sim.dup_ratio":      exec.dupRatio(),
		"runner.memo_hit_ratio": func() float64 {
			if prog.Submitted == 0 {
				return 0
			}
			return float64(prog.MemoHits) / float64(prog.Submitted)
		}(),
	}
	if busy > 0 {
		m["sim.minstr_per_busy_s"] = float64(exec.instrs) / 1e6 / busy.Seconds()
	}
	return m
}

// spanExecutor is the runner's Executor seam with a stopwatch: it runs
// sim.SimulateContext and records when each simulation started and ended.
// Traced, it also keeps every config it ran, for the layer replay and the
// duplicate-simulation count.
type spanExecutor struct {
	base   time.Time
	traced bool

	mu     sync.Mutex
	spans  []busySpan
	cpus   []time.Duration // each call's thread CPU time
	instrs uint64
	runs   []config.Run
	perKey map[runner.Key]int
}

func newSpanExecutor(traced bool) *spanExecutor {
	return &spanExecutor{base: time.Now(), traced: traced, perKey: map[runner.Key]int{}}
}

func (e *spanExecutor) Execute(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, string, error) {
	// A simulation runs on its calling goroutine; pinning that goroutine
	// to its thread makes the thread's CPU clock the simulation's own.
	runtime.LockOSThread()
	start, cpu0 := time.Since(e.base), threadCPU()
	rep, err := sim.SimulateContext(ctx, m, r)
	end, cpu := time.Since(e.base), threadCPU()-cpu0
	runtime.UnlockOSThread()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.spans = append(e.spans, busySpan{start, end})
	e.cpus = append(e.cpus, cpu)
	if err != nil {
		return nil, "", err
	}
	e.instrs += rep.Instructions
	if e.traced {
		e.runs = append(e.runs, r)
		if k, ok := runner.KeyFor(m, r); ok {
			e.perKey[k]++
		}
	}
	return rep, runner.SourceSimulated, nil
}

// find returns the first executed config matching pick.
func (e *spanExecutor) find(pick func(config.Run) bool) (config.Run, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range e.runs {
		if pick(r) {
			return r, true
		}
	}
	return config.Run{}, false
}

// dupRatio is simulations per distinct key: 1.0 means no key was
// simulated twice.
func (e *spanExecutor) dupRatio() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.perKey) == 0 {
		return 0
	}
	n := 0
	for _, c := range e.perKey {
		n += c
	}
	return float64(n) / float64(len(e.perKey))
}

// durations is a concurrency-safe list of measured spans.
type durations struct {
	mu sync.Mutex
	ds []time.Duration
}

func (d *durations) add(x time.Duration) {
	d.mu.Lock()
	d.ds = append(d.ds, x)
	d.mu.Unlock()
}

// quantileUS returns the p-th percentile in microseconds (0 when empty).
func (d *durations) quantileUS(p float64) float64 {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	xs := make([]float64, len(d.ds))
	for i, x := range d.ds {
		xs[i] = float64(x) / float64(time.Microsecond)
	}
	d.mu.Unlock()
	return percentile(xs, p)
}

func (d *durations) medianUS() float64 { return d.quantileUS(50) }

func (d *durations) snapshot() []time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]time.Duration(nil), d.ds...)
}

func (d *durations) len() int {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.ds)
}
