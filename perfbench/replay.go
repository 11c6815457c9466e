package main

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/workload"
)

// The layer replay times each simulator layer alone. It reassembles one
// configuration from the layers' public constructors with a recorder at
// every boundary, gates the reassembly on matching sim.Simulate's cycles
// and cache counters, and then drives each layer by itself on what it saw
// in the recorded run: the generator re-emits the stream, the core
// replays the instructions against the recorded cache latencies, the dL1
// replays its loads and stores against the recorded L2 latencies, and
// the L2 or protected tier replays its accesses.

// replayReps is how many times each replay is timed; the median counts.
const replayReps = 3

type evKind uint8

const (
	evLoad evKind = iota
	evStore
	evWouldHit
	evInject
)

// dl1Event is one call the core (or the fault hook) made on the dL1.
// lat holds the returned latency, or 1/0 for WouldHit.
type dl1Event struct {
	kind      evKind
	now, addr uint64
	lat       uint64
}

// Origins of accesses to the second level.
const (
	fromIL1 uint8 = iota
	fromDL1
	fromCore // the core's instruction fetches into the il1
)

// levelEvent is one access to a cache.Level, or a fault injection into
// the protected tier (inject set).
type levelEvent struct {
	now, addr, lat uint64
	kind           cache.Kind
	origin         uint8
	inject         bool
}

// modeRun is a run of consecutive generator calls of one kind.
type modeRun struct {
	warm bool
	n    int
}

type recording struct {
	insts []isa.Inst
	modes []modeRun
	dl1   []dl1Event
	il1   []levelEvent // core -> il1
	l2    []levelEvent // il1/dl1 -> L2 or tier, plus tier injections
}

func (r *recording) addInst(in isa.Inst, warm bool) {
	r.insts = append(r.insts, in)
	if n := len(r.modes); n > 0 && r.modes[n-1].warm == warm {
		r.modes[n-1].n++
		return
	}
	r.modes = append(r.modes, modeRun{warm: warm, n: 1})
}

// recStream records what the generator emits, by call kind.
type recStream struct {
	g   *workload.Generator
	rec *recording
}

func (s *recStream) Next() (isa.Inst, bool) {
	in, ok := s.g.Next()
	if ok {
		s.rec.addInst(in, false)
	}
	return in, ok
}

func (s *recStream) NextWarm() (isa.Inst, bool) {
	in, ok := s.g.NextWarm()
	if ok {
		s.rec.addInst(in, true)
	}
	return in, ok
}

// recDL1 records the core's calls on the dL1.
type recDL1 struct {
	c   *core.Cache
	rec *recording
}

func (d *recDL1) Load(now, addr uint64) uint64 {
	lat := d.c.Load(now, addr)
	d.rec.dl1 = append(d.rec.dl1, dl1Event{evLoad, now, addr, lat})
	return lat
}

func (d *recDL1) Store(now, addr uint64) uint64 {
	lat := d.c.Store(now, addr)
	d.rec.dl1 = append(d.rec.dl1, dl1Event{evStore, now, addr, lat})
	return lat
}

func (d *recDL1) WouldHit(addr uint64) bool {
	hit := d.c.WouldHit(addr)
	d.rec.dl1 = append(d.rec.dl1, dl1Event{kind: evWouldHit, addr: addr, lat: b2u(hit)})
	return hit
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// recLevel records accesses into a cache.Level.
type recLevel struct {
	inner  cache.Level
	origin uint8
	log    *[]levelEvent
}

func (l *recLevel) Access(now, addr uint64, kind cache.Kind) uint64 {
	lat := l.inner.Access(now, addr, kind)
	*l.log = append(*l.log, levelEvent{now: now, addr: addr, lat: lat, kind: kind, origin: l.origin})
	return lat
}

// playLevel answers a level's accesses with recorded latencies, counting
// any call that differs from the recording.
type playLevel struct {
	ev       []levelEvent
	i        int
	mismatch int
}

func (p *playLevel) Access(now, addr uint64, kind cache.Kind) uint64 {
	if p.i >= len(p.ev) {
		p.mismatch++
		return 1
	}
	e := p.ev[p.i]
	p.i++
	if e.now != now || e.addr != addr || e.kind != kind {
		p.mismatch++
	}
	return e.lat
}

// playDL1 answers the core's dL1 calls with recorded results.
type playDL1 struct {
	ev       []dl1Event
	i        int
	mismatch int
}

func (p *playDL1) next(kind evKind, now, addr uint64) uint64 {
	if p.i >= len(p.ev) {
		p.mismatch++
		return 1
	}
	e := p.ev[p.i]
	p.i++
	if e.kind != kind || e.addr != addr || (kind != evWouldHit && e.now != now) {
		p.mismatch++
	}
	return e.lat
}

func (p *playDL1) Load(now, addr uint64) uint64  { return p.next(evLoad, now, addr) }
func (p *playDL1) Store(now, addr uint64) uint64 { return p.next(evStore, now, addr) }
func (p *playDL1) WouldHit(addr uint64) bool     { return p.next(evWouldHit, 0, addr) == 1 }

// playStream re-emits recorded instructions whichever way they are asked
// for.
type playStream struct {
	insts []isa.Inst
	i     int
}

func (s *playStream) Next() (isa.Inst, bool) {
	if s.i >= len(s.insts) {
		return isa.Inst{}, false
	}
	s.i++
	return s.insts[s.i-1], true
}

func (s *playStream) NextWarm() (isa.Inst, bool) { return s.Next() }

// machine is the reassembled configuration.
type machine struct {
	mem  *cache.Memory
	l2   *cache.Cache
	prot *tier.Protected
	il1  *cache.Cache
	dl1  *core.Cache
	core *cpu.Core
}

// normalize applies the defaults sim.SimulateContext applies.
func normalize(r config.Run) config.Run {
	r.TwoTier = r.TwoTier.Normalized()
	if r.Instructions == 0 {
		r.Instructions = config.DefaultInstructions
	}
	if r.Energy == (energy.Params{}) {
		r.Energy = energy.DefaultParams()
	}
	return r
}

func supported(r config.Run) error {
	switch {
	case r.Hints != nil, r.DupCacheKB > 0, r.WriteThrough, r.ScrubInterval > 0, r.Adapt.Enabled(), r.TwoTier.CrossTier:
		return fmt.Errorf("replay: %s uses a feature the layer replay does not reassemble", r.Name())
	}
	return nil
}

func tierConfig(m config.Machine, r config.Run, mem *cache.Memory, meter *energy.Meter) tier.Config {
	return tier.Config{
		Size: m.L2Size, Assoc: m.L2Assoc, BlockSize: m.L2Block,
		HitLatency:    m.L2Latency,
		ExtraLatency:  r.TwoTier.ExtraLatency,
		PortOccupancy: 4,
		Protect:       r.TwoTier.Protect,
		Replicate:     r.TwoTier.Replicate,
		Victim:        r.TwoTier.Victim,
		DecayWindow:   r.TwoTier.DecayWindow,
		Next:          mem,
		Mem:           mem,
		Meter:         meter,
	}
}

func l2Config(m config.Machine, next cache.Level) cache.Config {
	return cache.Config{
		Name: "l2", Size: m.L2Size, Assoc: m.L2Assoc, BlockSize: m.L2Block,
		HitLatency: m.L2Latency, Policy: cache.WriteBack, Next: next, PortOccupancy: 4,
	}
}

func il1Config(m config.Machine, next cache.Level) cache.Config {
	return cache.Config{
		Name: "il1", Size: m.IL1Size, Assoc: m.IL1Assoc, BlockSize: m.IL1Block,
		HitLatency: m.IL1Latency, Policy: cache.WriteBack, Next: next,
	}
}

func dl1Config(m config.Machine, r config.Run, next cache.Level, mem *cache.Memory, meter *energy.Meter) core.Config {
	return core.Config{
		Size: m.DL1Size, Assoc: m.DL1Assoc, BlockSize: m.DL1Block,
		HitLatency:       m.DL1Latency,
		Scheme:           r.Scheme,
		Repl:             r.Repl,
		Next:             next,
		Mem:              mem,
		Meter:            meter,
		PrefetchIntoDead: r.Prefetch,
	}
}

func dl1Injector(m config.Machine, r config.Run) *fault.Injector {
	if r.Fault.Prob <= 0 {
		return nil
	}
	return fault.NewInjector(r.Fault.Model, r.Fault.Prob, m.DL1Assoc*m.DL1Block/8, r.Fault.Seed)
}

func tierInjector(m config.Machine, r config.Run) *fault.Injector {
	if !r.TwoTier.Enabled() || r.TwoTier.Fault.Prob <= 0 {
		return nil
	}
	f := r.TwoTier.Fault
	return fault.NewInjector(f.Model, f.Prob, m.L2Assoc*m.L2Block/8, f.Seed)
}

// assemble builds the recording machine, mirroring the simulator's own
// assembly (the fidelity gate proves the mirror).
func assemble(m config.Machine, r config.Run, rec *recording) (*machine, error) {
	profile, err := workload.ByName(r.Benchmark)
	if err != nil {
		return nil, err
	}
	gen, err := workload.New(profile, r.Seed)
	if err != nil {
		return nil, err
	}
	mc := &machine{mem: cache.NewMemory(m.MemLatency, m.DL1Block)}
	meter := energy.NewMeter(r.Energy)
	var l2level cache.Level
	if r.TwoTier.Enabled() {
		mc.prot = tier.New(tierConfig(m, r, mc.mem, meter))
		l2level = mc.prot
	} else {
		mc.l2 = cache.New(l2Config(m, mc.mem))
		l2level = mc.l2
	}
	mc.il1 = cache.New(il1Config(m, &recLevel{inner: l2level, origin: fromIL1, log: &rec.l2}))
	mc.dl1 = core.New(dl1Config(m, r, &recLevel{inner: l2level, origin: fromDL1, log: &rec.l2}, mc.mem, meter))

	cfg := m.CPU
	var hooks []func(uint64)
	if inj := dl1Injector(m, r); inj != nil {
		dl1 := mc.dl1
		next := inj.NextAfter(0)
		hooks = append(hooks, func(now uint64) {
			for now >= next {
				rec.dl1 = append(rec.dl1, dl1Event{kind: evInject, now: now})
				dl1.Inject(inj)
				next = inj.NextAfter(now)
			}
		})
	}
	if inj := tierInjector(m, r); inj != nil {
		prot := mc.prot
		next := inj.NextAfter(0)
		hooks = append(hooks, func(now uint64) {
			for now >= next {
				rec.l2 = append(rec.l2, levelEvent{now: now, inject: true})
				prot.Inject(inj)
				next = inj.NextAfter(now)
			}
		})
	}
	if len(hooks) > 0 {
		cfg.EachCycle = func(now uint64) {
			for _, h := range hooks {
				h(now)
			}
		}
	}
	il1 := &recLevel{inner: mc.il1, origin: fromCore, log: &rec.il1}
	mc.core = cpu.New(cfg, &recStream{g: gen, rec: rec}, il1, &recDL1{c: mc.dl1, rec: rec})
	return mc, nil
}

// segment is one stretch of a sampled run's schedule.
type segment struct {
	warm, measure bool
	n             uint64
}

// schedule mirrors the simulator's SMARTS plan: per sampling unit,
// functional warming, a discarded detailed warm-up, then a measured
// window; a trailing partial unit warms. nil means exact simulation.
func schedule(budget uint64, s config.SampleConfig) []segment {
	s = s.Normalized()
	if !s.Enabled() {
		return nil
	}
	detailed := s.Warmup + s.Detail
	if detailed < s.Warmup || s.Period <= detailed || budget < s.Period {
		return nil
	}
	var segs []segment
	for u := uint64(0); u < budget/s.Period; u++ {
		segs = append(segs,
			segment{warm: true, n: s.Period - detailed},
			segment{n: s.Warmup},
			segment{measure: true, n: s.Detail})
	}
	if rem := budget % s.Period; rem > 0 {
		segs = append(segs, segment{warm: true, n: rem})
	}
	return segs
}

// coreTimes is how long a core spent in each mode.
type coreTimes struct {
	run, warm           time.Duration
	runInstr, warmInstr uint64
}

// drive runs a core through the budget, exactly or on the sampled
// schedule, and returns its stats, the reported cycle count (extrapolated
// when sampled) and the time spent per mode.
func drive(c *cpu.Core, budget uint64, s config.SampleConfig) (cpu.Stats, uint64, coreTimes) {
	var t coreTimes
	plan := schedule(budget, s)
	if plan == nil {
		start := time.Now()
		st := c.Run(budget)
		t.run, t.runInstr = time.Since(start), st.Instructions
		return st, st.Cycles, t
	}
	var cum, sumCycles, sumInstrs uint64
	for _, seg := range plan {
		cum += seg.n
		before := c.Stats()
		start := time.Now()
		if seg.warm {
			c.RunWarming(cum, sumCycles, sumInstrs)
			t.warm += time.Since(start)
			t.warmInstr += c.Stats().Instructions - before.Instructions
		} else {
			c.Run(cum)
			t.run += time.Since(start)
			t.runInstr += c.Stats().Instructions - before.Instructions
		}
		after := c.Stats()
		if seg.measure {
			dc, di := after.Cycles-before.Cycles, after.Instructions-before.Instructions
			if di > 0 && dc > 0 {
				sumCycles += dc
				sumInstrs += di
			}
		}
		if after.Instructions < cum {
			break
		}
	}
	st := c.Stats()
	cycles := st.Cycles
	if sumInstrs > 0 && sumCycles > 0 {
		cycles = uint64(math.Round(float64(st.Instructions) * float64(sumCycles) / float64(sumInstrs)))
	}
	return st, cycles, t
}

// timerCost is the median cost of one time.Now/time.Since pair, taken off
// every per-event timing.
func timerCost() time.Duration {
	xs := make([]float64, 0, 2001)
	for i := 0; i < 2001; i++ {
		s := time.Now()
		xs = append(xs, float64(time.Since(s)))
	}
	return time.Duration(median(xs))
}

var instSink isa.Inst

// replayLayers records cfg r on a reassembled machine, checks it against
// sim.Simulate, and returns the per-layer replay metrics.
func replayLayers(m config.Machine, r config.Run) (map[string]float64, error) {
	r = normalize(r)
	if err := supported(r); err != nil {
		return nil, err
	}
	rec := &recording{}
	mc, err := assemble(m, r, rec)
	if err != nil {
		return nil, err
	}
	cst, cycles, _ := drive(mc.core, r.Instructions, r.Sample)
	dstats := mc.dl1.Stats()
	var l2stats cache.Stats
	var tstats tier.Stats
	if mc.prot != nil {
		l2stats, tstats = mc.prot.CacheStats(), mc.prot.TierStats()
	} else {
		l2stats = mc.l2.Stats()
	}
	if err := fidelity(m, r, cst, cycles, dstats, l2stats, mc.mem); err != nil {
		return nil, &oracleError{err}
	}

	profile, err := workload.ByName(r.Benchmark)
	if err != nil {
		return nil, err
	}
	over := timerCost()
	instr := float64(cst.Instructions)
	nNext := 0
	for _, mr := range rec.modes {
		if !mr.warm {
			nNext += mr.n
		}
	}
	var (
		genNext, genWarm, cpuRun, cpuWarm, loads, stores, dl1Other, l2t, il1t, tierAcc, tierInj []float64
		whole                                                                                   []float64
		nLoad, nStore, nL2, nTier                                                               int
		cpuT                                                                                    coreTimes
	)
	for rep := 0; rep < replayReps; rep++ {
		tn, tw, err := replayGenerator(profile, r.Seed, rec)
		if err != nil {
			return nil, err
		}
		genNext = append(genNext, float64(tn))
		genWarm = append(genWarm, float64(tw))

		// Core on recorded cache latencies.
		pd := &playDL1{}
		for _, e := range rec.dl1 {
			if e.kind != evInject {
				pd.ev = append(pd.ev, e)
			}
		}
		pi := &playLevel{ev: rec.il1}
		c := cpu.New(m.CPU, &playStream{insts: rec.insts}, pi, pd)
		st, _, ct := drive(c, r.Instructions, r.Sample)
		if st.Cycles != cst.Cycles || pd.mismatch+pi.mismatch > 0 {
			return nil, &oracleError{fmt.Errorf("replay: core replay diverged (cycles %d vs %d, %d mismatched calls)",
				st.Cycles, cst.Cycles, pd.mismatch+pi.mismatch)}
		}
		cpuT = ct
		cpuRun = append(cpuRun, float64(ct.run))
		cpuWarm = append(cpuWarm, float64(ct.warm))

		// dL1 on recorded L2 latencies.
		tl, ts, to, nl, ns, err := replayDL1(m, r, rec, over, dstats)
		if err != nil {
			return nil, err
		}
		loads, stores, dl1Other = append(loads, float64(tl)), append(stores, float64(ts)), append(dl1Other, float64(to))
		nLoad, nStore = nl, ns

		t, err := replayIL1(m, rec, mc.il1.Stats())
		if err != nil {
			return nil, err
		}
		il1t = append(il1t, float64(t))

		// Second level.
		if mc.prot == nil {
			t, err := replayL2(m, rec, l2stats)
			if err != nil {
				return nil, err
			}
			l2t, nL2 = append(l2t, float64(t)), len(rec.l2)
		} else {
			ta, ti, n, err := replayTier(m, r, rec, over, l2stats, tstats)
			if err != nil {
				return nil, err
			}
			tierAcc, tierInj, nTier = append(tierAcc, float64(ta)), append(tierInj, float64(ti)), n
		}

		// The whole simulation, for the gap.
		start := time.Now()
		if _, err := sim.Simulate(m, r); err != nil {
			return nil, err
		}
		whole = append(whole, float64(time.Since(start)))
	}

	per := func(xs []float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return median(xs) / float64(n)
	}
	out := map[string]float64{
		"workload.next_ns":        per(genNext, nNext),
		"workload.warm_ns":        per(genWarm, len(rec.insts)-nNext),
		"cpu.run_ns":              per(cpuRun, int(cpuT.runInstr)),
		"cpu.warm_ns":             per(cpuWarm, int(cpuT.warmInstr)),
		"core.load_ns":            per(loads, nLoad),
		"core.store_ns":           per(stores, nStore),
		"core.accesses_per_instr": float64(nLoad+nStore) / instr,
		"cache.l2_access_ns":      per(l2t, nL2),
		"tier.access_ns":          per(tierAcc, nTier),
		"tier.accesses_per_instr": float64(nTier) / instr,
	}
	self := median(genNext) + median(genWarm) + median(cpuRun) + median(cpuWarm) +
		median(loads) + median(stores) + median(dl1Other) + median(il1t)
	if mc.prot == nil {
		self += median(l2t)
	} else {
		self += median(tierAcc) + median(tierInj)
	}
	out["layers.gap_pct"] = (median(whole) - self) / median(whole) * 100
	return out, nil
}

// replayGenerator re-emits the recorded stream from a fresh generator,
// calling Next and NextWarm in their recorded order, and returns the time
// spent in each.
func replayGenerator(profile workload.Profile, seed int64, rec *recording) (tNext, tWarm time.Duration, err error) {
	g, err := workload.New(profile, seed)
	if err != nil {
		return 0, 0, err
	}
	for _, mr := range rec.modes {
		start := time.Now()
		if mr.warm {
			for i := 0; i < mr.n; i++ {
				instSink, _ = g.NextWarm()
			}
			tWarm += time.Since(start)
		} else {
			for i := 0; i < mr.n; i++ {
				instSink, _ = g.Next()
			}
			tNext += time.Since(start)
		}
	}
	if instSink != rec.insts[len(rec.insts)-1] {
		return 0, 0, &oracleError{errors.New("replay: generator re-emitted a different stream")}
	}
	return tNext, tWarm, nil
}

// replayIL1 replays the core's fetches on a fresh il1 whose next level
// answers with the recorded L2 latencies.
func replayIL1(m config.Machine, rec *recording, want cache.Stats) (time.Duration, error) {
	var l2ev []levelEvent
	for _, e := range rec.l2 {
		if !e.inject && e.origin == fromIL1 {
			l2ev = append(l2ev, e)
		}
	}
	pl := &playLevel{ev: l2ev}
	il1 := cache.New(il1Config(m, pl))
	start := time.Now()
	for _, e := range rec.il1 {
		il1.Access(e.now, e.addr, e.kind)
	}
	t := time.Since(start)
	if pl.mismatch > 0 || il1.Stats() != want {
		return 0, &oracleError{errors.New("replay: il1 replay diverged")}
	}
	return t, nil
}

// replayL2 replays every access the plain L2 saw on a fresh L2 over a
// fresh memory.
func replayL2(m config.Machine, rec *recording, want cache.Stats) (time.Duration, error) {
	l2 := cache.New(l2Config(m, cache.NewMemory(m.MemLatency, m.DL1Block)))
	start := time.Now()
	for _, e := range rec.l2 {
		l2.Access(e.now, e.addr, e.kind)
	}
	t := time.Since(start)
	if l2.Stats() != want {
		return 0, &oracleError{errors.New("replay: L2 replay diverged")}
	}
	return t, nil
}

// replayDL1 replays the dL1's calls, injections included, on a fresh dL1
// whose next level answers with the recorded L2 latencies. It returns
// the time spent in loads, in stores and in everything else (WouldHit
// probes and injections), and the load and store counts.
func replayDL1(m config.Machine, r config.Run, rec *recording, over time.Duration, want core.Stats) (tl, ts, to time.Duration, nl, ns int, err error) {
	var l2ev []levelEvent
	for _, e := range rec.l2 {
		if !e.inject && e.origin == fromDL1 {
			l2ev = append(l2ev, e)
		}
	}
	pl := &playLevel{ev: l2ev}
	mem := cache.NewMemory(m.MemLatency, m.DL1Block)
	dl1 := core.New(dl1Config(m, r, pl, mem, energy.NewMeter(r.Energy)))
	inj := dl1Injector(m, r)
	if inj != nil {
		inj.NextAfter(0)
	}
	for _, e := range rec.dl1 {
		start := time.Now()
		switch e.kind {
		case evLoad:
			dl1.Load(e.now, e.addr)
			tl += time.Since(start) - over
			nl++
		case evStore:
			dl1.Store(e.now, e.addr)
			ts += time.Since(start) - over
			ns++
		case evWouldHit:
			dl1.WouldHit(e.addr)
			to += time.Since(start) - over
		case evInject:
			dl1.Inject(inj)
			inj.NextAfter(e.now)
			to += time.Since(start) - over
		}
	}
	if pl.mismatch > 0 || !reflect.DeepEqual(dl1.Stats(), want) {
		return 0, 0, 0, 0, 0, &oracleError{fmt.Errorf("replay: dL1 replay diverged (%d L2 calls differ from the recording)", pl.mismatch)}
	}
	return tl, ts, to, nl, ns, nil
}

// replayTier replays the tier's accesses and injections on a fresh tier.
func replayTier(m config.Machine, r config.Run, rec *recording, over time.Duration, want cache.Stats, wantTier tier.Stats) (acc, injt time.Duration, n int, err error) {
	mem := cache.NewMemory(m.MemLatency, m.DL1Block)
	prot := tier.New(tierConfig(m, r, mem, energy.NewMeter(r.Energy)))
	inj := tierInjector(m, r)
	if inj != nil {
		inj.NextAfter(0)
	}
	for _, e := range rec.l2 {
		start := time.Now()
		if e.inject {
			prot.Inject(inj)
			inj.NextAfter(e.now)
			injt += time.Since(start) - over
			continue
		}
		prot.Access(e.now, e.addr, e.kind)
		acc += time.Since(start) - over
		n++
	}
	if prot.CacheStats() != want || !reflect.DeepEqual(prot.TierStats(), wantTier) {
		return 0, 0, 0, &oracleError{errors.New("replay: tier replay diverged")}
	}
	return acc, injt, n, nil
}

// fidelity is the replay gate: the reassembled machine must report the
// same cycles and dL1/L2/memory counters as sim.Simulate for the same
// configuration, or its layer times describe a different machine.
func fidelity(m config.Machine, r config.Run, cst cpu.Stats, cycles uint64, ds core.Stats, ls cache.Stats, mem *cache.Memory) error {
	ref, err := sim.Simulate(m, r)
	if err != nil {
		return err
	}
	type counters struct {
		Instructions, Cycles                            uint64
		DL1Reads, DL1ReadHits, DL1ReadMisses            uint64
		DL1Writes, DL1WriteHits, DL1WriteMisses, DL1WBs uint64
		ErrorsDetected, ReplAttempts, ReplSuccesses     uint64
		L2Accesses, L2Misses, MemAccesses               uint64
	}
	got := counters{
		cst.Instructions, cycles,
		ds.Reads, ds.ReadHits, ds.ReadMisses,
		ds.Writes, ds.WriteHits, ds.WriteMisses, ds.Writebacks,
		ds.ErrorsDetected, ds.ReplAttempts, ds.ReplSuccesses,
		ls.Accesses(), ls.Misses(), mem.Accesses(),
	}
	want := counters{
		ref.Instructions, ref.Cycles,
		ref.DL1Reads, ref.DL1ReadHits, ref.DL1ReadMisses,
		ref.DL1Writes, ref.DL1WriteHits, ref.DL1WriteMisses, ref.DL1Writebacks,
		ref.ErrorsDetected, ref.ReplAttempts, ref.ReplSuccesses,
		ref.L2Accesses, ref.L2Misses, ref.MemAccesses,
	}
	if got != want {
		return fmt.Errorf("replay fidelity: reassembled %s reports %+v, sim.Simulate %+v", r.Name(), got, want)
	}
	return nil
}
