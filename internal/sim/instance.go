package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/adapt"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/rcache"
	"repro/internal/tier"
	"repro/internal/workload"
)

// instance is one assembled simulated machine: the full memory hierarchy,
// energy meter, and core, reusable across runs of the same shape. The
// workload generator and fault injector are per-run (they are cheap and
// seed-dependent); everything here is the expensive arena — cache line
// arrays with their data/check-bit payloads, the RUU, predictor tables —
// that used to be reallocated for every task the runner executed.
//
//icrvet:pooled the shape-keyed arena handed out by instancePool
type instance struct {
	// shape is the pool key ("" = not poolable).
	shape string //icrvet:persistent the pool key itself: construction-determined, identical for every run sharing the instance

	mem   *cache.Memory
	l2    *cache.Cache    // plain timing L2; nil when the run protects the tier
	tier  *tier.Protected // protected second tier; nil for single-tier shapes
	il1   *cache.Cache
	meter *energy.Meter
	dups  *rcache.Cache
	wbuf  *cache.WriteBuffer
	dl1   *core.Cache
	ctrl  *adapt.Controller // ICR-ADAPT runtime controller; nil for static shapes
	core  *cpu.Core         //icrvet:persistent reset separately in simulate: core.Reset needs the per-run cpu.Config and generator
}

// shapeOf is the pool key of the instance a run needs: the canonical
// encoding (config.Encode) of the run with its per-run fields zeroed.
// Those fields are the ones the per-run resets absorb — the benchmark and
// seed (fresh generator each run), the instruction budget, sampling and
// scrubbing parameters, both fault injectors, the energy parameters
// (meter.Reset takes new ones), and the whole cpu.Config (core.Reset takes
// it wholesale). Everything else shapes the construction, so a knob added
// to the config lands in the shape by default: it can split the pool but
// never collide two different constructions. A run with no encoding (a
// non-finite float among the construction knobs) gets the empty shape,
// which the pool never shares.
func shapeOf(m config.Machine, r config.Run) string {
	m.CPU = cpu.Config{}
	r.Benchmark, r.Seed, r.Instructions = "", 0, 0
	r.Sample = config.SampleConfig{}
	r.ScrubInterval, r.ScrubLines = 0, 0
	r.Fault, r.TwoTier.Fault = config.FaultConfig{}, config.FaultConfig{}
	r.Energy = energy.Params{}
	b, _ := config.Encode(m, r) // on error b is nil: the unshared empty shape
	return string(b)
}

// newInstance assembles a machine for the given shape-determining inputs,
// mirroring what Simulate historically built inline.
func newInstance(m config.Machine, r config.Run) *instance {
	shape := shapeOf(m, r)

	// Memory hierarchy, bottom up. The L2 is unified: both L1s miss into
	// it, as in Table 1. When the run protects the second tier, a
	// tier.Protected replaces the plain timing L2 at the same position in
	// the hierarchy — same geometry, same hit latency, same single-banked
	// port — and carries its own parity/ECC, decay replication, and
	// cross-tier hooks.
	mem := cache.NewMemory(m.MemLatency, m.DL1Block)
	meter := energy.NewMeter(r.Energy)
	var l2 *cache.Cache
	var prot *tier.Protected
	var l2level cache.Level
	if r.TwoTier.Enabled() {
		prot = tier.New(tier.Config{
			Size: m.L2Size, Assoc: m.L2Assoc, BlockSize: m.L2Block,
			HitLatency:   m.L2Latency,
			ExtraLatency: r.TwoTier.ExtraLatency,
			// Single-banked like the plain L2 (§5.8).
			PortOccupancy: 4,
			Protect:       r.TwoTier.Protect,
			Replicate:     r.TwoTier.Replicate,
			Victim:        r.TwoTier.Victim,
			DecayWindow:   r.TwoTier.DecayWindow,
			Next:          mem,
			Mem:           mem,
			Meter:         meter,
		})
		l2level = prot
	} else {
		l2 = cache.New(cache.Config{
			Name: "l2", Size: m.L2Size, Assoc: m.L2Assoc, BlockSize: m.L2Block,
			HitLatency: m.L2Latency, Policy: cache.WriteBack, Next: mem,
			// The L2 is single-banked: each access (demand fill, write-back,
			// or write-buffer drain) occupies it for a few cycles, so heavy
			// write-through traffic delays demand misses (§5.8).
			PortOccupancy: 4,
		})
		l2level = l2
	}
	il1 := cache.New(cache.Config{
		Name: "il1", Size: m.IL1Size, Assoc: m.IL1Assoc, BlockSize: m.IL1Block,
		HitLatency: m.IL1Latency, Policy: cache.WriteBack, Next: l2level,
	})

	var dups *rcache.Cache
	if r.DupCacheKB > 0 {
		dups = rcache.New(r.DupCacheKB<<10, 4, m.DL1Block)
	}
	dl1cfg := core.Config{
		Size: m.DL1Size, Assoc: m.DL1Assoc, BlockSize: m.DL1Block,
		HitLatency: m.DL1Latency,
		Scheme:     r.Scheme,
		Repl:       r.Repl,
		Next:       l2level,
		Mem:        mem,
		Meter:      meter,
		Hints:      r.Hints,
	}
	if prot != nil && r.TwoTier.CrossTier {
		dl1cfg.CrossTier = prot
	}
	dl1cfg.PrefetchIntoDead = r.Prefetch
	if dups != nil {
		dl1cfg.Duplicates = dups
	}
	var wbuf *cache.WriteBuffer
	if r.WriteThrough {
		dl1cfg.WritePolicy = cache.WriteThrough
		entries := r.WriteBufferEntries
		if entries <= 0 {
			entries = 8
		}
		wbuf = cache.NewWriteBuffer(entries, m.L2Latency, l2level)
		dl1cfg.WriteBuf = wbuf
	}
	dl1 := core.New(dl1cfg)
	if prot != nil && r.TwoTier.CrossTier {
		// Both directions: the dl1 spills replicas into the tier (wired
		// above) and the tier parks shortfall replicas in the dl1.
		prot.SetCross(dl1)
	}

	var ctrl *adapt.Controller
	if r.Adapt.Enabled() {
		ctrl = adapt.NewController(r.Adapt)
	}

	return &instance{
		shape: shape,
		mem:   mem,
		l2:    l2,
		tier:  prot,
		il1:   il1,
		meter: meter,
		dups:  dups,
		wbuf:  wbuf,
		dl1:   dl1,
		ctrl:  ctrl,
		core:  cpu.New(m.CPU, nil, il1, dl1),
	}
}

// reset restores every pooled component to its post-construction state.
// It runs on fresh instances too (where it is a cheap no-op beyond array
// clears), so the pooled and unpooled paths execute identical code.
func (in *instance) reset(r config.Run) {
	in.mem.Reset()
	if in.tier != nil {
		in.tier.Reset()
	} else {
		in.l2.Reset()
	}
	in.il1.Reset()
	in.dl1.Reset()
	in.meter.Reset(r.Energy)
	if in.dups != nil {
		in.dups.Reset()
	}
	if in.wbuf != nil {
		in.wbuf.Reset()
	}
	if in.ctrl != nil {
		in.ctrl.Reset()
	}
}

// simulate executes one run on the instance. r must match the instance's
// shape; the caller has already normalized the budget and energy params.
func (in *instance) simulate(ctx context.Context, m config.Machine, r config.Run, gen *workload.Generator) (*metrics.Report, error) {
	in.reset(r)

	cpucfg := m.CPU
	var hooks []func(uint64)
	var injector *fault.Injector
	if r.Fault.Prob > 0 {
		wordsPerRow := m.DL1Assoc * m.DL1Block / 8
		injector = fault.NewInjector(r.Fault.Model, r.Fault.Prob, wordsPerRow, r.Fault.Seed)
		next := injector.NextAfter(0)
		dl1 := in.dl1
		//icrvet:hot installed behind Config.EachCycle, which the call graph cannot follow
		hooks = append(hooks, func(now uint64) {
			for now >= next {
				dl1.Inject(injector)
				next = injector.NextAfter(now)
			}
		})
	}
	var tierInjector *fault.Injector
	if in.tier != nil && r.TwoTier.Fault.Prob > 0 {
		f := r.TwoTier.Fault
		wordsPerRow := m.L2Assoc * m.L2Block / 8
		tierInjector = fault.NewInjector(f.Model, f.Prob, wordsPerRow, f.Seed)
		tnext := tierInjector.NextAfter(0)
		prot := in.tier
		inj := tierInjector
		//icrvet:hot installed behind Config.EachCycle, which the call graph cannot follow
		hooks = append(hooks, func(now uint64) {
			for now >= tnext {
				prot.Inject(inj)
				tnext = inj.NextAfter(now)
			}
		})
	}
	if r.ScrubInterval > 0 {
		lines := r.ScrubLines
		if lines <= 0 {
			lines = 1
		}
		tick := newScrubTicker(r.ScrubInterval)
		dl1 := in.dl1
		//icrvet:hot installed behind Config.EachCycle, which the call graph cannot follow
		hooks = append(hooks, func(now uint64) {
			if tick.due(now) {
				dl1.Scrub(now, lines)
			}
		})
	}
	if in.ctrl != nil {
		in.ctrl.Attach(in.dl1)
		epoch := newScrubTicker(in.ctrl.EpochCycles())
		ctrl := in.ctrl
		//icrvet:hot installed behind Config.EachCycle, which the call graph cannot follow
		hooks = append(hooks, func(now uint64) {
			if epoch.due(now) {
				ctrl.Epoch(now)
			}
		})
	}
	switch len(hooks) {
	case 0:
	case 1:
		cpucfg.EachCycle = hooks[0]
	default:
		//icrvet:hot the fan-out hook installed behind Config.EachCycle
		cpucfg.EachCycle = func(now uint64) {
			for _, h := range hooks {
				h(now)
			}
		}
	}

	if ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var stop atomic.Bool
		cancelWatch := context.AfterFunc(ctx, func() { stop.Store(true) })
		defer cancelWatch()
		cpucfg.Halt = stop.Load
	}

	c := in.core
	c.Reset(cpucfg, gen)
	var cstats cpu.Stats
	var sampling *metrics.SamplingStats
	if plan := planWindows(r.Instructions, r.Sample); plan != nil {
		cstats, sampling = runSampled(c, in.dl1, plan, r.Sample)
	} else {
		cstats = c.Run(r.Instructions)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cstats.Instructions < r.Instructions {
		return nil, fmt.Errorf("sim: stream ended after %d instructions", cstats.Instructions)
	}
	in.dl1.FinishVulnerability(cstats.Cycles)

	lsStats := func() cache.Stats {
		if in.tier != nil {
			// The tier's demand-stream counters have cache.Stats shape, so
			// L2 accounting and energy pricing are tier-agnostic.
			return in.tier.CacheStats()
		}
		return in.l2.Stats()
	}()
	rep := assemble(r, cstats, in.dl1.Stats(), in.il1.Stats(), lsStats, in.mem, in.meter, injector)
	if tt := twoTierBlock(r, in, tierInjector); tt != nil {
		rep.TwoTier = tt
	}
	if sampling != nil {
		// Timing is the one estimated quantity: every event counter in the
		// report is cumulative over the full stream (warming performs all
		// accesses), but Cycles is extrapolated from the measured windows.
		rep.Cycles = extrapolatedCycles(cstats.Instructions, sampling, cstats.Cycles)
		rep.Sampling = sampling
	}
	scrub := in.dl1.ScrubStats()
	rep.ScrubChecks = scrub.Checks
	rep.ScrubErrors = scrub.Errors
	rep.ScrubRepaired = scrub.Repaired
	rep.ScrubLost = scrub.Lost
	if in.ctrl != nil {
		// Adaptive runs report under the ICR-ADAPT-* family: the static
		// scheme name would misattribute results whose knobs moved mid-run.
		rep.Scheme = r.Adapt.SchemeName()
		rep.Adaptive = in.ctrl.Stats()
	}
	return rep, nil
}

// twoTierBlock builds the optional Report.TwoTier block. It is non-nil —
// and the report therefore marshals under schema version 4 — only when
// the run actually engages the two-tier machinery: a protected tier, or
// non-zero memory-tier energy pricing. Plain single-tier runs return nil
// so their wire encoding stays byte-identical to older writers (the
// equivalence goldens pin this).
func twoTierBlock(r config.Run, in *instance, tierInjector *fault.Injector) *metrics.TwoTierStats {
	if !r.TwoTier.Enabled() && r.Energy.MemRead == 0 && r.Energy.MemWrite == 0 {
		return nil
	}
	tt := &metrics.TwoTierStats{
		Tier:         r.TwoTier.Name(),
		ExtraLatency: r.TwoTier.ExtraLatency,
		MemReads:     in.mem.Reads() + in.mem.Fetches(),
		MemWrites:    in.mem.Writes(),
		EnergyMem:    in.meter.MemEnergy(),
	}
	l1cross := in.dl1.CrossTierStats()
	tt.L1CrossRepaired = l1cross.Repaired
	if in.tier != nil {
		ts := in.tier.TierStats()
		tt.ReplAttempts = ts.ReplAttempts
		tt.ReplSuccesses = ts.ReplSuccesses
		tt.ReplicaEvictions = ts.ReplicaEvictions
		tt.DeadEvictions = ts.DeadEvictions
		tt.ErrorsDetected = ts.ErrorsDetected
		tt.RecoveredByReplica = ts.RecoveredByReplica
		tt.RecoveredByECC = ts.RecoveredByECC
		tt.RecoveredByCross = ts.RecoveredByCross
		tt.RecoveredByMem = ts.RecoveredByMem
		tt.UnrecoverableDirty = ts.UnrecoverableDirty
		tt.SilentWritebacks = ts.SilentWritebacks
		// Each direction's client-side view: the dl1 offering into the
		// tier, and the tier parking shortfall replicas in the dl1.
		tt.CrossOffers = l1cross.Offers + ts.Cross.Offers
		tt.CrossAccepted = l1cross.Accepted + ts.Cross.Accepted
		tt.CrossRepairs = l1cross.Repairs + ts.Cross.Repairs
		tt.CrossRepaired = l1cross.Repaired + ts.Cross.Repaired
	}
	if tierInjector != nil {
		tt.ErrorsInjected = tierInjector.Injected()
	}
	return tt
}

// instancePool keeps idle instances for reuse, newest first per shape.
// The bound caps idle memory (each instance holds the full cache arena,
// on the order of a megabyte); a sweep running W-wide keeps at most W
// instances in flight plus max idle here.
type instancePool struct {
	mu   sync.Mutex
	idle []*instance
	max  int
}

var defaultPool = &instancePool{max: runtime.GOMAXPROCS(0) + 2}

// get returns an idle instance of the given shape, or nil.
func (p *instancePool) get(shape string) *instance {
	if shape == "" {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if p.idle[i].shape == shape {
			inst := p.idle[i]
			p.idle = append(p.idle[:i], p.idle[i+1:]...)
			return inst
		}
	}
	return nil
}

// put parks an instance for reuse, evicting the oldest idle one past the
// cap. Non-poolable instances are dropped.
func (p *instancePool) put(inst *instance) {
	if inst == nil || inst.shape == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) >= p.max {
		copy(p.idle, p.idle[1:])
		p.idle = p.idle[:len(p.idle)-1]
	}
	p.idle = append(p.idle, inst)
}
