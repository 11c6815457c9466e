// Package runner is the parallel experiment engine: it fans independent
// sim.Simulate calls across a bounded pool of workers while keeping every
// result observably identical to the serial path.
//
// Guarantees:
//
//   - Determinism: each simulation is a pure function of its
//     (config.Machine, config.Run) inputs — every run builds its own RNGs,
//     caches, and meters — so results do not depend on goroutine
//     scheduling, and batch results are returned in submission order.
//     Output derived from a batch is byte-for-byte identical at any worker
//     count.
//   - Cancellation: Submit honours context cancellation and per-run
//     timeouts. In-flight simulations abort promptly (the core polls a
//     stop flag once per simulated cycle), queued ones never start, and
//     batch collection reports whatever completed (partial results).
//   - Caching: results are content-addressed by a stable hash of the
//     full input (see KeyFor) and served through a pluggable Cache stack —
//     by default an in-memory LRU, optionally layered over a persistent
//     disk store (internal/store) so repeated sweep points survive process
//     restarts. A singleflight layer coalesces concurrent identical
//     submissions either way. Cached reports are copied on return; callers
//     can never corrupt each other.
//   - Draining: Drain moves the runner into shutdown mode — runs already
//     holding a worker slot finish (and persist), runs still queued settle
//     immediately with ErrDraining. The serving layer uses this for
//     graceful SIGTERM handling.
//   - Observability: progress, throughput, and per-tier cache counters are
//     exposed via internal/metrics.Progress for CLI progress lines and the
//     daemon's expvar page.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store"
)

// ErrDraining is the settlement error for runs that were still queued
// (waiting for a worker slot) when Drain was called, and for runs
// submitted after it.
var ErrDraining = errors.New("runner draining: queued run rejected")

// SimulateFunc executes one simulation. The default is
// sim.SimulateContext; tests substitute stubs.
type SimulateFunc func(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, error)

// Executor is the seam between the runner and whatever actually executes a
// simulation that missed every cache tier. The tier result names where the
// work happened (SourceSimulated for in-process execution, SourceRemote for
// a cluster worker) and becomes the Pending's Source. Implementations must
// be safe for concurrent use; the runner's worker pool bounds how many
// Execute calls are in flight at once.
type Executor interface {
	Execute(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, string, error)
}

// simExecutor adapts a SimulateFunc to the Executor seam: plain in-process
// execution.
type simExecutor struct{ fn SimulateFunc }

func (e simExecutor) Execute(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, string, error) {
	rep, err := e.fn(ctx, m, r)
	return rep, SourceSimulated, err
}

// Options configure a Runner.
type Options struct {
	// Workers bounds the number of concurrently executing simulations.
	// <= 0 means runtime.GOMAXPROCS(0).
	Workers int

	// CacheSize is the in-memory cache capacity in settled reports: 0
	// means DefaultCacheSize, negative disables caching (and singleflight
	// coalescing) entirely.
	CacheSize int

	// Cache overrides the cache stack built from CacheSize. Use
	// NewTiered(NewMemoryCache(...), NewStoreCache(...)) to layer the
	// in-memory cache over a persistent disk store. When Cache is non-nil
	// CacheSize is ignored (except that a negative CacheSize still
	// disables caching outright).
	Cache Cache

	// Timeout, when > 0, bounds each individual simulation.
	Timeout time.Duration

	// Progress, when non-nil, receives submission/completion/throughput
	// counts. Nil allocates a private one (readable via Progress()).
	Progress *metrics.Progress

	// Simulate substitutes the simulation function (tests). Nil means
	// sim.SimulateContext. Ignored when Executor is set.
	Simulate SimulateFunc

	// Executor substitutes the whole execution seam — cache misses are
	// handed to it instead of the in-process simulator. The cluster
	// coordinator plugs in here to dispatch runs to remote workers. Nil
	// means in-process execution via Simulate.
	Executor Executor

	// Claimer, when non-nil, extends the in-process singleflight across a
	// fleet: before executing a cache miss, the flight owner asks the
	// Claimer (the sharded store) who should simulate the key. A cold
	// popular key then triggers exactly one simulation fleet-wide, not one
	// per front end. Nil keeps coalescing process-local.
	Claimer store.Claimer
}

// Runner executes simulations on a bounded worker pool with memoization.
// It is safe for concurrent use and needs no shutdown: workers are
// goroutines that exist only while work is in flight.
type Runner struct {
	slots     chan struct{}
	cache     Cache
	flight    *flightGroup
	claimer   store.Claimer
	timeout   time.Duration
	prog      *metrics.Progress
	executor  Executor
	drain     chan struct{}
	drainOnce sync.Once
}

// New returns a Runner with the given options.
func New(o Options) *Runner {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	prog := o.Progress
	if prog == nil {
		prog = metrics.NewProgress()
	}
	var cache Cache
	if o.CacheSize >= 0 {
		if o.Cache != nil {
			cache = o.Cache
		} else {
			cache = NewMemoryCache(o.CacheSize, prog)
		}
	}
	var flight *flightGroup
	if cache != nil {
		flight = newFlightGroup()
	}
	executor := o.Executor
	if executor == nil {
		simFn := o.Simulate
		if simFn == nil {
			simFn = sim.SimulateContext
		}
		executor = simExecutor{fn: simFn}
	}
	var claimer store.Claimer
	if cache != nil {
		claimer = o.Claimer
	}
	return &Runner{
		slots:    make(chan struct{}, workers),
		cache:    cache,
		flight:   flight,
		claimer:  claimer,
		timeout:  o.Timeout,
		prog:     prog,
		executor: executor,
		drain:    make(chan struct{}),
	}
}

// Drain moves the runner into shutdown mode, once: submissions that have
// not yet acquired a worker slot — queued now or submitted later — settle
// immediately with ErrDraining, while runs already executing are
// unaffected and finish normally (persisting their results through the
// cache stack). Waiters coalesced onto an executing run still receive its
// result.
func (r *Runner) Drain() {
	r.drainOnce.Do(func() { close(r.drain) })
}

// Draining reports whether Drain has been called.
func (r *Runner) Draining() bool {
	select {
	case <-r.drain:
		return true
	default:
		return false
	}
}

// Workers returns the worker-pool size.
func (r *Runner) Workers() int { return cap(r.slots) }

// Progress returns the runner's counters.
func (r *Runner) Progress() *metrics.Progress { return r.prog }

// Pending is a handle to a submitted simulation.
type Pending struct {
	done chan struct{}
	rep  *metrics.Report
	err  error
	src  string
}

// Wait blocks until the simulation settles and returns its result. It is
// safe to call from multiple goroutines and more than once.
func (p *Pending) Wait() (*metrics.Report, error) {
	<-p.done
	return p.rep, p.err
}

// Source reports where a successful result came from: SourceSimulated,
// SourceRemote, SourceMemory, or SourceDisk. It blocks until the
// simulation settles and returns "" for failed runs.
func (p *Pending) Source() string {
	<-p.done
	return p.src
}

// Submit enqueues one simulation and returns immediately. The run starts
// as soon as a worker slot frees up; a context cancelled before then
// settles the Pending without the simulation ever starting.
func (r *Runner) Submit(ctx context.Context, m config.Machine, run config.Run) *Pending {
	if ctx == nil {
		ctx = context.Background() //icrvet:ignore ctxflow nil-ctx compatibility seam: Submit's documented default for non-cancellable callers
	}
	p := &Pending{done: make(chan struct{})}
	r.prog.AddSubmitted(1)
	go func() {
		defer close(p.done)
		// Explicit pre-checks: when the context is already cancelled (or
		// the runner already draining) the select below could still win
		// the slot branch by chance, and such a run must never start.
		if err := ctx.Err(); err != nil {
			p.err = fmt.Errorf("runner: %s: %w", run.Name(), err)
			r.prog.AddFailed(1)
			return
		}
		if r.Draining() {
			p.err = fmt.Errorf("runner: %s: %w", run.Name(), ErrDraining)
			r.prog.AddFailed(1)
			return
		}
		select {
		case r.slots <- struct{}{}:
			defer func() { <-r.slots }()
		case <-ctx.Done():
			p.err = fmt.Errorf("runner: %s: %w", run.Name(), ctx.Err())
			r.prog.AddFailed(1)
			return
		case <-r.drain:
			p.err = fmt.Errorf("runner: %s: %w", run.Name(), ErrDraining)
			r.prog.AddFailed(1)
			return
		}
		rep, src, err := r.simulate(ctx, m, run)
		if err != nil {
			p.err = fmt.Errorf("runner: %s: %w", run.Name(), err)
			r.prog.AddFailed(1)
			return
		}
		p.rep, p.src = rep, src
	}()
	return p
}

// Run submits one simulation and waits for it.
func (r *Runner) Run(ctx context.Context, m config.Machine, run config.Run) (*metrics.Report, error) {
	return r.Submit(ctx, m, run).Wait()
}

// RunBatch submits every run and waits for all of them. Results are in
// submission order regardless of completion order. On failure the error
// of the lowest-index failing run is returned (a deterministic choice)
// and the result slice still carries every run that did complete —
// partial results under cancellation. RunBatch returns only after every
// submitted run has settled, so no work leaks past it.
func (r *Runner) RunBatch(ctx context.Context, m config.Machine, runs []config.Run) ([]*metrics.Report, error) {
	pendings := make([]*Pending, len(runs))
	for i, run := range runs {
		pendings[i] = r.Submit(ctx, m, run)
	}
	return Collect(pendings)
}

// Collect waits for every pending and returns results in order, with the
// lowest-index error (if any). Entries that failed are nil.
func Collect(pendings []*Pending) ([]*metrics.Report, error) {
	reports := make([]*metrics.Report, len(pendings))
	var firstErr error
	for i, p := range pendings {
		rep, err := p.Wait()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		reports[i] = rep
	}
	return reports, firstErr
}

// simulate executes one run through the cache stack (when eligible),
// reporting where the result came from.
func (r *Runner) simulate(ctx context.Context, m config.Machine, run config.Run) (*metrics.Report, string, error) {
	if r.cache == nil {
		return r.exec(ctx, m, run)
	}
	key, ok := KeyFor(m, run)
	if !ok {
		// Inputs without a canonical encoding (a cpu hook, a non-finite
		// float) cannot be content-addressed; run uncached.
		return r.exec(ctx, m, run)
	}
	for {
		e, owner := r.flight.claim(key)
		if owner {
			if rep, tier, err := r.cacheGet(ctx, key); err == nil {
				r.flight.settle(key, e, rep, nil)
				// The cache keeps its own copy; hand the caller another
				// so later hits never observe caller mutations.
				return copyReport(rep), tier, nil
			} else if !errors.Is(err, store.ErrMiss) {
				// A sick layer (disk I/O trouble, dead shard) degrades to
				// execution — visible in the counter, fatal to nothing.
				r.prog.AddCacheError(1)
			}
			r.prog.AddCacheMiss(1)

			// Fleet-wide anti-stampede: ask the sharded store who should
			// simulate this key. Only the flight owner gets here, so one
			// process issues at most one claim per key.
			var release func()
			if r.claimer != nil {
				owned, rel, cerr := r.claimer.Claim(ctx, key.String())
				switch {
				case cerr != nil:
					// Claim errors only surface for caller cancellation
					// (shard trouble degrades to owned=true inside the
					// claimer).
					r.flight.settle(key, e, nil, cerr)
					return nil, "", cerr
				case !owned:
					// Another fleet member simulated it; its result should
					// now be one Get away.
					if rep, tier, err := r.cacheGet(ctx, key); err == nil {
						r.flight.settle(key, e, rep, nil)
						return copyReport(rep), tier, nil
					}
					// Not visible (replica lag, shard loss): simulate
					// locally — duplicate work, never wrong results.
				default:
					release = rel
				}
			}

			rep, tier, err := r.exec(ctx, m, run)
			if err == nil {
				if perr := r.cache.Put(ctx, key, rep); perr != nil {
					r.prog.AddPutError(1)
					if release != nil {
						// The Put that would have cleared the fleet claim
						// never landed; free the waiters explicitly.
						release()
					}
				}
			} else if release != nil {
				release()
			}
			r.flight.settle(key, e, rep, err)
			if err != nil {
				return nil, "", err
			}
			return copyReport(rep), tier, nil
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, "", ctx.Err()
		}
		if e.err == nil {
			// Coalesced onto the owner's in-memory result.
			r.prog.AddMemoHit(1)
			return copyReport(e.rep), SourceMemory, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		// The owner failed — possibly its own caller's cancellation, which
		// must not poison this caller. The entry was dropped at settle;
		// loop to claim ownership and retry.
	}
}

// cacheGet reads the cache stack and accounts the hit to its tier.
func (r *Runner) cacheGet(ctx context.Context, key Key) (*metrics.Report, string, error) {
	rep, tier, err := r.cache.Get(ctx, key)
	if err != nil {
		return nil, "", err
	}
	switch tier {
	case SourceDisk:
		r.prog.AddDiskHit(1)
	case SourceShard:
		r.prog.AddShardHit(1)
	default:
		r.prog.AddMemoHit(1)
	}
	return rep, tier, nil
}

// exec hands one run to the executor with the per-run timeout applied.
func (r *Runner) exec(ctx context.Context, m config.Machine, run config.Run) (*metrics.Report, string, error) {
	if r.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.timeout)
		defer cancel()
	}
	r.prog.AddStarted(1)
	rep, tier, err := r.executor.Execute(ctx, m, run)
	if err != nil {
		return nil, "", err
	}
	if tier == SourceRemote {
		r.prog.AddRemote(1)
	}
	r.prog.AddCompleted(rep.Instructions)
	return rep, tier, nil
}
