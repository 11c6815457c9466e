package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/runner"
)

// WorkerOptions configure a Worker.
type WorkerOptions struct {
	// BaseURL is the coordinator, e.g. "http://host:8080" (required).
	BaseURL string

	// ID names this worker in leases and stats (required).
	ID string

	// Runner executes leased tasks locally (required). Its cache tiers
	// apply: a task re-leased to the same worker is served from memo.
	Runner *runner.Runner

	// Slots is the number of concurrent leases this worker pulls.
	// <= 0 means the runner's worker-pool size.
	Slots int

	// Client performs the HTTP calls. Nil means a client with no overall
	// timeout (long polls and uploads are bounded per-request).
	Client *http.Client

	// PollWait is the lease long-poll duration. <= 0 means 5s.
	PollWait time.Duration

	// Logf, when non-nil, receives one line per lifecycle event
	// (registered, lease lost, upload retry). Nil discards.
	Logf func(format string, args ...any)
}

// Worker is the icrworker engine: it pulls leased tasks from a
// coordinator, executes them on a local runner, and uploads the results.
// Create with NewWorker, run with Run, stop gracefully with Drain.
type Worker struct {
	o         WorkerOptions
	drain     chan struct{}
	drainOnce sync.Once

	mu  sync.Mutex
	rng *rand.Rand // retry jitter; guarded by mu
}

// NewWorker validates options and returns a Worker.
func NewWorker(o WorkerOptions) (*Worker, error) {
	if o.BaseURL == "" {
		return nil, errors.New("cluster: worker needs a coordinator BaseURL")
	}
	if o.ID == "" {
		return nil, errors.New("cluster: worker needs an ID")
	}
	if o.Runner == nil {
		return nil, errors.New("cluster: worker needs a Runner")
	}
	if o.Slots <= 0 {
		o.Slots = o.Runner.Workers()
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.PollWait <= 0 {
		o.PollWait = 5 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	h := fnv.New64a()
	//icrvet:ignore droppederr hash.Hash.Write is documented to never return an error
	h.Write([]byte(o.ID))
	return &Worker{
		o:     o,
		drain: make(chan struct{}),
		rng:   rand.New(rand.NewSource(int64(h.Sum64()) | 1)),
	}, nil
}

// Drain stops pulling new leases, once. Tasks already executing finish
// and upload, then Run returns. Safe to call from a signal handler path.
func (w *Worker) Drain() {
	w.drainOnce.Do(func() { close(w.drain) })
}

// Progress returns the local runner's counters.
func (w *Worker) Progress() *metrics.Progress { return w.o.Runner.Progress() }

// Run registers with the coordinator and serves leases until ctx is
// cancelled (hard stop: in-flight executions abort, nothing uploads) or
// Drain is called (graceful: in-flight tasks finish and upload). A
// graceful stop returns nil.
func (w *Worker) Run(ctx context.Context) error {
	hb, err := w.register(ctx)
	if err != nil {
		return err
	}
	w.o.Logf("worker %s: registered with %s (lease %dms, %d slots)",
		w.o.ID, w.o.BaseURL, hb.LeaseMS, w.o.Slots)

	done := make(chan struct{})
	defer close(done)
	go w.heartbeatLoop(ctx, done, time.Duration(hb.HeartbeatMS)*time.Millisecond)

	var wg sync.WaitGroup
	for i := 0; i < w.o.Slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.leaseLoop(ctx)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil && !w.draining() {
		return err
	}
	w.o.Logf("worker %s: drained cleanly", w.o.ID)
	return nil
}

func (w *Worker) draining() bool {
	select {
	case <-w.drain:
		return true
	default:
		return false
	}
}

// register announces the worker, retrying with backoff until the
// coordinator answers or the worker stops.
func (w *Worker) register(ctx context.Context) (RegisterResponse, error) {
	var resp RegisterResponse
	for attempt := 1; ; attempt++ {
		status, err := w.post(ctx, PathRegister,
			RegisterRequest{Worker: w.o.ID, Slots: w.o.Slots}, &resp)
		if err == nil && status == http.StatusOK {
			return resp, nil
		}
		if err == nil {
			err = fmt.Errorf("cluster: register: coordinator returned %d", status)
		}
		if attempt >= 8 {
			return RegisterResponse{}, err
		}
		w.o.Logf("worker %s: register attempt %d failed: %v", w.o.ID, attempt, err)
		if !w.sleep(ctx, w.backoff(attempt)) {
			return RegisterResponse{}, ctx.Err()
		}
	}
}

// heartbeatLoop keeps the registration warm until Run returns.
func (w *Worker) heartbeatLoop(ctx context.Context, done <-chan struct{}, every time.Duration) {
	if every <= 0 {
		every = 10 * time.Second
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			var resp HeartbeatResponse
			if _, err := w.post(ctx, PathHeartbeat, HeartbeatRequest{Worker: w.o.ID}, &resp); err == nil && resp.Draining {
				w.o.Logf("worker %s: coordinator is draining", w.o.ID)
			}
		case <-done:
			return
		case <-ctx.Done():
			return
		}
	}
}

// leaseLoop pulls and executes tasks until the worker stops.
func (w *Worker) leaseLoop(ctx context.Context) {
	errStreak := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-w.drain:
			return
		default:
		}
		var lease LeaseResponse
		status, err := w.post(ctx, PathLease,
			LeaseRequest{Worker: w.o.ID, WaitMS: w.o.PollWait.Milliseconds()}, &lease)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return
			}
			errStreak++
			w.o.Logf("worker %s: lease poll failed: %v", w.o.ID, err)
			if !w.sleep(ctx, w.backoff(errStreak)) {
				return
			}
		case status == http.StatusNoContent:
			errStreak = 0
		case status == http.StatusOK:
			errStreak = 0
			w.execute(ctx, lease.Task)
		default:
			// Draining coordinator (503) or anything unexpected: back off
			// and keep polling; the worker's own lifecycle decides exit.
			errStreak++
			if !w.sleep(ctx, w.backoff(errStreak)) {
				return
			}
		}
	}
}

// execute runs one leased task: decode, verify the content key, simulate
// on the local runner under a renewed lease, upload the result.
func (w *Worker) execute(ctx context.Context, task Task) {
	m, r, err := config.Decode(task.Spec)
	if err != nil {
		w.complete(ctx, CompleteRequest{
			Worker: w.o.ID, Task: task.ID, Error: err.Error(),
		})
		return
	}
	key, ok := runner.KeyFor(m, r)
	if !ok || key.String() != task.ID {
		// Never execute a spec whose decoded form does not hash back to
		// the task's content address: that would simulate a different
		// configuration than the coordinator asked for.
		w.complete(ctx, CompleteRequest{
			Worker: w.o.ID, Task: task.ID, Key: key.String(),
			Error: fmt.Sprintf("decoded spec hashes to %s, task is %s (wire drift)", key, task.ID),
		})
		return
	}

	execCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	leaseLost := make(chan struct{})
	renewDone := make(chan struct{})
	go w.renewLoop(execCtx, task, time.Duration(task.LeaseMS)*time.Millisecond, cancel, leaseLost, renewDone)

	rep, err := w.o.Runner.Run(execCtx, m, r)
	cancel()
	<-renewDone

	select {
	case <-leaseLost:
		// Someone else owns the task now; executing it twice is safe
		// (pure function), uploading twice is pointless.
		w.o.Logf("worker %s: lease lost on task %s (attempt %d); dropping result", w.o.ID, task.ID, task.Attempt)
		return
	default:
	}
	if ctx.Err() != nil {
		return // hard stop: nothing to upload
	}
	req := CompleteRequest{Worker: w.o.ID, Task: task.ID, Key: task.ID}
	switch {
	case err == nil:
		req.Report = rep
	case errors.Is(err, context.DeadlineExceeded):
		// The local per-run timeout tripped: a faster or idler worker may
		// still make it.
		req.Error = err.Error()
		req.Transient = true
	default:
		req.Error = err.Error()
	}
	w.complete(ctx, req)
}

// renewLoop extends the task's lease at a third of its TTL until the
// execution context ends. A refused renewal (410: lease reassigned or task
// settled) cancels the execution and marks the lease lost.
func (w *Worker) renewLoop(ctx context.Context, task Task, ttl time.Duration, cancel context.CancelFunc, leaseLost chan<- struct{}, done chan<- struct{}) {
	defer close(done)
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	tick := time.NewTicker(maxDuration(ttl/3, time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			var resp RenewResponse
			status, err := w.post(ctx, PathRenew,
				RenewRequest{Worker: w.o.ID, Task: task.ID}, &resp)
			if err != nil {
				continue // transient; the lease may still be alive
			}
			if status == http.StatusGone {
				close(leaseLost)
				cancel()
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// complete uploads a result, retrying transient failures: a result that
// took real simulation time is worth several attempts. Runs on the hard
// context only for cancellation — during drain uploads proceed.
func (w *Worker) complete(ctx context.Context, req CompleteRequest) {
	var resp CompleteResponse
	for attempt := 1; ; attempt++ {
		status, err := w.post(ctx, PathComplete, req, &resp)
		if err == nil && status == http.StatusOK {
			return
		}
		if ctx.Err() != nil || attempt >= 6 {
			w.o.Logf("worker %s: dropping result for task %s after %d upload attempts (%v, status %d)",
				w.o.ID, req.Task, attempt, err, status)
			return
		}
		if !w.sleep(ctx, w.backoff(attempt)) {
			return
		}
	}
}

// post sends one JSON request and decodes the JSON response (2xx bodies
// into out; non-2xx bodies are drained and discarded). 204 leaves out
// untouched.
func (w *Worker) post(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, fmt.Errorf("cluster: encoding %s request: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.o.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("cluster: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.o.Client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("cluster: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("cluster: decoding %s response: %w", path, err)
		}
		return resp.StatusCode, nil
	}
	//icrvet:ignore droppederr draining the body only recycles the connection; failures are unactionable
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodyBytes))
	return resp.StatusCode, nil
}

// backoff returns an exponential delay with jitter for retry attempt n.
func (w *Worker) backoff(n int) time.Duration {
	d := DefaultRetryBase
	for i := 1; i < n && d < DefaultRetryMax; i++ {
		d *= 2
	}
	if d > DefaultRetryMax {
		d = DefaultRetryMax
	}
	w.mu.Lock()
	j := time.Duration(w.rng.Int63n(int64(d)/2 + 1))
	w.mu.Unlock()
	return d + j
}

// sleep waits for d, interruptible by ctx and drain; false means stop.
func (w *Worker) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	case <-w.drain:
		return false
	}
}
