package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Defaults for Options.
const (
	DefaultLeaseTTL    = 15 * time.Second
	DefaultMaxAttempts = 5
	DefaultRetryBase   = 250 * time.Millisecond
	DefaultRetryMax    = 10 * time.Second
	DefaultWorkerTTL   = time.Minute
)

// Options configure a Coordinator.
type Options struct {
	// LeaseTTL is how long a worker may hold a task without renewing
	// before it is reassigned. <= 0 means DefaultLeaseTTL.
	LeaseTTL time.Duration

	// MaxAttempts bounds dispatch attempts (first lease + reassignments +
	// transient-failure retries) before the task fails for good. <= 0
	// means DefaultMaxAttempts.
	MaxAttempts int

	// RetryBase and RetryMax shape the exponential backoff applied before
	// a task is eligible for re-lease after a transient failure or lease
	// expiry. <= 0 means the defaults.
	RetryBase time.Duration
	RetryMax  time.Duration

	// WorkerTTL is how long a silent worker (no lease, renew, heartbeat,
	// or upload) stays listed in Stats. <= 0 means DefaultWorkerTTL.
	WorkerTTL time.Duration

	// Local executes runs that cannot be serialized for the wire
	// (function hooks, unknown hint policies). Nil means
	// sim.SimulateContext.
	Local runner.SimulateFunc

	// Seed seeds the backoff jitter; 0 means 1. Jitter affects only
	// retry timing, never results.
	Seed int64

	// now substitutes the clock (tests). Nil means time.Now.
	now func() time.Time
}

type taskState int

const (
	taskQueued taskState = iota
	taskLeased
)

// task is one enqueued simulation, addressed by its content key.
type task struct {
	id        string
	spec      []byte // canonical encoding (config.Encode)
	state     taskState
	worker    string    // current lessee (taskLeased)
	deadline  time.Time // lease expiry (taskLeased)
	notBefore time.Time // backoff gate (taskQueued)
	attempt   int       // dispatch attempts so far
	waiters   int       // Execute calls waiting on done

	done chan struct{}
	rep  *metrics.Report
	err  error
}

// workerState tracks one registered worker.
type workerState struct {
	id       string
	slots    int
	lastSeen time.Time
	leased   int
	prog     *metrics.Progress
}

// Coordinator farms simulation tasks to remote workers. It implements
// runner.Executor: plug it into runner.Options.Executor and every cache
// miss becomes a leased task. Create with New, stop with Close.
type Coordinator struct {
	opts Options

	mu       sync.Mutex
	tasks    map[string]*task // all unsettled tasks, by content key
	queue    []*task          // dispatch order (FIFO among eligible)
	workers  map[string]*workerState
	draining bool
	wake     chan struct{} // closed+replaced to wake long-polling leases
	rng      *rand.Rand    // jitter; guarded by mu

	// Cumulative counters (guarded by mu).
	reassigned uint64 // leases expired and re-queued
	retried    uint64 // transient failures re-queued
	driftErrs  uint64 // key-mismatch uploads (wire drift tripwire)
	duplicate  uint64 // uploads for already-settled or unknown tasks

	closed chan struct{}
	wg     sync.WaitGroup
}

// New returns a running Coordinator (its lease-expiry sweeper is started;
// call Close to stop it).
func New(o Options) *Coordinator {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = DefaultLeaseTTL
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	if o.RetryBase <= 0 {
		o.RetryBase = DefaultRetryBase
	}
	if o.RetryMax <= 0 {
		o.RetryMax = DefaultRetryMax
	}
	if o.WorkerTTL <= 0 {
		o.WorkerTTL = DefaultWorkerTTL
	}
	if o.Local == nil {
		o.Local = sim.SimulateContext
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	if o.now == nil {
		o.now = time.Now
	}
	c := &Coordinator{
		opts:    o,
		tasks:   make(map[string]*task),
		workers: make(map[string]*workerState),
		wake:    make(chan struct{}),
		rng:     rand.New(rand.NewSource(seed)),
		closed:  make(chan struct{}),
	}
	c.wg.Add(1)
	go c.sweeper()
	return c
}

// Close stops the background lease sweeper. It does not drain: call Drain
// first for a graceful shutdown.
func (c *Coordinator) Close() {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	c.wg.Wait()
}

// Drain stops granting leases and fails every queued (unleased) task with
// runner.ErrDraining. Tasks already leased may still renew and upload —
// workers finish in-flight work — and Execute rejects new submissions.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return
	}
	c.draining = true
	for _, t := range c.queue {
		c.settleLocked(t, nil, fmt.Errorf("cluster: %w", runner.ErrDraining))
	}
	c.queue = nil
	c.wakeLocked()
}

// Draining reports whether Drain has been called.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Execute implements runner.Executor: it enqueues the run as a cluster
// task and blocks until a worker uploads the result, the task exhausts its
// attempts, ctx ends, or the coordinator drains. Runs that cannot be
// serialized fall back to local execution.
func (c *Coordinator) Execute(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, string, error) {
	spec, key, ok := runner.SpecFor(m, r)
	if !ok {
		rep, err := c.opts.Local(ctx, m, r)
		return rep, runner.SourceSimulated, err
	}
	t, err := c.enqueue(key.String(), spec)
	if err != nil {
		return nil, "", err
	}
	select {
	case <-t.done:
		if t.err != nil {
			return nil, "", t.err
		}
		// Each waiter gets its own copy: the runner caches the returned
		// pointer, and no two cache stacks may share one mutable report.
		cp := *t.rep
		return &cp, runner.SourceRemote, nil
	case <-ctx.Done():
		c.abandon(t)
		return nil, "", ctx.Err()
	}
}

// enqueue registers a task for key, coalescing onto an identical
// unsettled task if one exists.
func (c *Coordinator) enqueue(id string, spec []byte) (*task, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return nil, fmt.Errorf("cluster: %w", runner.ErrDraining)
	}
	if t, ok := c.tasks[id]; ok {
		t.waiters++
		return t, nil
	}
	t := &task{
		id:      id,
		spec:    spec,
		state:   taskQueued,
		waiters: 1,
		done:    make(chan struct{}),
	}
	c.tasks[id] = t
	c.queue = append(c.queue, t)
	c.wakeLocked()
	return t, nil
}

// abandon drops one waiter; a queued task nobody waits for is removed so
// workers never execute work whose submitter gave up. A leased task stays:
// the in-flight execution settles it and the result is dropped.
func (c *Coordinator) abandon(t *task) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-t.done:
		return
	default:
	}
	t.waiters--
	if t.waiters <= 0 && t.state == taskQueued {
		delete(c.tasks, t.id)
		c.removeFromQueueLocked(t)
	}
}

// Lease grants the next eligible task to a worker, waiting up to wait for
// one to appear (long poll). It returns ok=false when nothing is eligible
// within the wait, and ErrDraining once the coordinator drains.
func (c *Coordinator) Lease(ctx context.Context, workerID string, wait time.Duration) (Task, bool, error) {
	deadline := c.opts.now().Add(wait)
	for {
		c.mu.Lock()
		now := c.opts.now()
		c.sweepLocked(now)
		if c.draining {
			c.mu.Unlock()
			return Task{}, false, fmt.Errorf("cluster: %w", runner.ErrDraining)
		}
		w := c.touchWorkerLocked(workerID, now)
		if t := c.nextEligibleLocked(now); t != nil {
			t.state = taskLeased
			t.worker = workerID
			t.attempt++
			t.deadline = now.Add(c.opts.LeaseTTL)
			c.removeFromQueueLocked(t)
			w.leased++
			w.prog.AddSubmitted(1)
			w.prog.AddStarted(1)
			lease := Task{
				ID:      t.id,
				Attempt: t.attempt,
				LeaseMS: c.opts.LeaseTTL.Milliseconds(),
				Spec:    t.spec,
			}
			c.mu.Unlock()
			return lease, true, nil
		}
		wake := c.wake
		c.mu.Unlock()
		remaining := deadline.Sub(c.opts.now())
		if remaining <= 0 {
			return Task{}, false, nil
		}
		timer := time.NewTimer(minDuration(remaining, c.opts.LeaseTTL/4))
		select {
		case <-wake:
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return Task{}, false, ctx.Err()
		case <-c.closed:
			timer.Stop()
			return Task{}, false, nil
		}
		timer.Stop()
	}
}

// Renew extends a lease. ok=false means the lease is lost — expired and
// reassigned, or already settled — and the worker should abandon the run.
func (c *Coordinator) Renew(workerID, taskID string) (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.now()
	c.touchWorkerLocked(workerID, now)
	t, ok := c.tasks[taskID]
	if !ok || t.state != taskLeased || t.worker != workerID {
		return 0, false
	}
	t.deadline = now.Add(c.opts.LeaseTTL)
	return c.opts.LeaseTTL, true
}

// Heartbeat refreshes a worker's liveness and reports drain state.
func (c *Coordinator) Heartbeat(workerID string) (draining bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(workerID, c.opts.now())
	return c.draining
}

// Register upserts a worker.
func (c *Coordinator) Register(workerID string, slots int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.touchWorkerLocked(workerID, c.opts.now())
	if slots > 0 {
		w.slots = slots
	}
}

// LeaseTTL returns the configured lease duration.
func (c *Coordinator) LeaseTTL() time.Duration { return c.opts.LeaseTTL }

// Complete records a task result. Uploads are idempotent: a result for an
// unknown or already-settled task (a reassigned lease finishing late) is
// acknowledged and dropped. A key mismatch marks wire drift and fails the
// task loudly.
func (c *Coordinator) Complete(req CompleteRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.now()
	w := c.touchWorkerLocked(req.Worker, now)
	t, ok := c.tasks[req.Task]
	if !ok {
		c.duplicate++
		return nil
	}
	if t.state == taskLeased && t.worker == req.Worker {
		w.leased--
	}
	switch {
	case req.Key != "" && req.Key != t.id:
		c.driftErrs++
		c.settleLocked(t, nil, fmt.Errorf(
			"cluster: wire drift: worker %s recomputed key %s for task %s; a config field does not round-trip",
			req.Worker, req.Key, t.id))
	case req.Report != nil:
		w.prog.AddCompleted(req.Report.Instructions)
		c.settleLocked(t, req.Report, nil)
	case req.Transient && t.attempt < c.opts.MaxAttempts:
		w.prog.AddFailed(1)
		c.retried++
		c.requeueLocked(t, now, req.Error)
	case req.Error != "":
		w.prog.AddFailed(1)
		c.settleLocked(t, nil, fmt.Errorf(
			"cluster: task %s failed on worker %s (attempt %d/%d): %s",
			t.id, req.Worker, t.attempt, c.opts.MaxAttempts, req.Error))
	default:
		c.settleLocked(t, nil, fmt.Errorf(
			"cluster: empty completion for task %s from worker %s", t.id, req.Worker))
	}
	return nil
}

// settleLocked finishes a task and wakes its waiters. Callers hold c.mu.
func (c *Coordinator) settleLocked(t *task, rep *metrics.Report, err error) {
	select {
	case <-t.done:
		c.duplicate++
		return
	default:
	}
	t.rep, t.err = rep, err
	delete(c.tasks, t.id)
	close(t.done)
}

// requeueLocked puts a leased task back in the queue behind an
// exponential-backoff-with-jitter gate. Callers hold c.mu.
func (c *Coordinator) requeueLocked(t *task, now time.Time, cause string) {
	if c.draining {
		c.settleLocked(t, nil, fmt.Errorf("cluster: %w", runner.ErrDraining))
		return
	}
	if t.waiters <= 0 {
		// Every submitter gave up while the task was leased.
		c.settleLocked(t, nil, fmt.Errorf("cluster: task %s abandoned (%s)", t.id, cause))
		return
	}
	t.state = taskQueued
	t.worker = ""
	t.notBefore = now.Add(c.backoffLocked(t.attempt))
	c.queue = append(c.queue, t)
	c.wakeLocked()
}

// backoffLocked returns RetryBase·2^(attempt-1) capped at RetryMax, plus
// up to 50% jitter so a burst of expired leases does not re-dispatch in
// lockstep. Callers hold c.mu.
func (c *Coordinator) backoffLocked(attempt int) time.Duration {
	d := c.opts.RetryBase
	for i := 1; i < attempt && d < c.opts.RetryMax; i++ {
		d *= 2
	}
	if d > c.opts.RetryMax {
		d = c.opts.RetryMax
	}
	return d + time.Duration(c.rng.Int63n(int64(d)/2+1))
}

// nextEligibleLocked returns the first queued task whose backoff gate has
// passed. Callers hold c.mu.
func (c *Coordinator) nextEligibleLocked(now time.Time) *task {
	for _, t := range c.queue {
		if !t.notBefore.After(now) {
			return t
		}
	}
	return nil
}

func (c *Coordinator) removeFromQueueLocked(t *task) {
	for i, q := range c.queue {
		if q == t {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

// touchWorkerLocked upserts a worker's liveness. Callers hold c.mu.
func (c *Coordinator) touchWorkerLocked(id string, now time.Time) *workerState {
	w, ok := c.workers[id]
	if !ok {
		w = &workerState{id: id, prog: metrics.NewProgress()}
		c.workers[id] = w
	}
	w.lastSeen = now
	return w
}

// wakeLocked signals every long-polling Lease. Callers hold c.mu.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// sweeper periodically reclaims expired leases even when no worker is
// calling in — the case that matters most: every worker died.
func (c *Coordinator) sweeper() {
	defer c.wg.Done()
	tick := time.NewTicker(maxDuration(c.opts.LeaseTTL/4, 10*time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			c.mu.Lock()
			c.sweepLocked(c.opts.now())
			c.mu.Unlock()
		case <-c.closed:
			return
		}
	}
}

// sweepLocked re-queues tasks whose lease expired and expires silent
// workers. Callers hold c.mu.
func (c *Coordinator) sweepLocked(now time.Time) {
	for _, t := range c.tasks {
		if t.state != taskLeased || t.deadline.After(now) {
			continue
		}
		if w, ok := c.workers[t.worker]; ok {
			w.leased--
			w.prog.AddFailed(1)
		}
		c.reassigned++
		if t.attempt >= c.opts.MaxAttempts {
			c.settleLocked(t, nil, fmt.Errorf(
				"cluster: task %s: lease expired on attempt %d/%d (worker %s)",
				t.id, t.attempt, c.opts.MaxAttempts, t.worker))
			continue
		}
		c.requeueLocked(t, now, "lease expired on worker "+t.worker)
	}
	for id, w := range c.workers {
		if w.leased <= 0 && now.Sub(w.lastSeen) > c.opts.WorkerTTL {
			delete(c.workers, id)
		}
	}
}

// WorkerStats is one worker's row in Stats.
type WorkerStats struct {
	Worker   string                   `json:"worker"`
	Slots    int                      `json:"slots"`
	Leased   int                      `json:"leased"`
	IdleSecs float64                  `json:"idle_secs"`
	Progress metrics.ProgressSnapshot `json:"progress"`
}

// Stats is the coordinator's observability snapshot, shaped for expvar.
type Stats struct {
	Queued     int           `json:"queued"`
	Leased     int           `json:"leased"`
	Draining   bool          `json:"draining"`
	Reassigned uint64        `json:"reassigned"`
	Retried    uint64        `json:"retried"`
	DriftErrs  uint64        `json:"drift_errors"`
	Duplicate  uint64        `json:"duplicate_uploads"`
	Workers    []WorkerStats `json:"workers"`
}

// StatsSnapshot returns current queue/lease occupancy and per-worker
// progress counters, workers sorted by id for stable output.
func (c *Coordinator) StatsSnapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.now()
	s := Stats{
		Queued:     len(c.queue),
		Leased:     len(c.tasks) - len(c.queue),
		Draining:   c.draining,
		Reassigned: c.reassigned,
		Retried:    c.retried,
		DriftErrs:  c.driftErrs,
		Duplicate:  c.duplicate,
	}
	for _, w := range c.workers {
		//icrvet:ignore determinism collection order is irrelevant: sortWorkers orders the slice by id before it is returned
		s.Workers = append(s.Workers, WorkerStats{
			Worker:   w.id,
			Slots:    w.slots,
			Leased:   w.leased,
			IdleSecs: now.Sub(w.lastSeen).Seconds(),
			Progress: w.prog.Snapshot(),
		})
	}
	sortWorkers(s.Workers)
	return s
}

func sortWorkers(ws []WorkerStats) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].Worker < ws[j-1].Worker; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}

func minDuration(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
