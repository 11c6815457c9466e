package cluster

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/runner"
)

// stubReport builds a deterministic report from the run, mimicking what a
// pure simulation does: same input, same output, on any worker.
func stubReport(r config.Run) *metrics.Report {
	return &metrics.Report{
		Benchmark:    r.Benchmark,
		Scheme:       r.Scheme.Name(),
		Instructions: r.Instructions,
		Cycles:       uint64(r.Seed)*1000 + r.Instructions,
	}
}

func newTestCoordinator(t *testing.T, o Options) *Coordinator {
	t.Helper()
	c := New(o)
	t.Cleanup(c.Close)
	return c
}

// leaseOne pulls a single task for workerID, failing the test on error or
// an empty grant within the wait.
func leaseOne(t *testing.T, c *Coordinator, workerID string, wait time.Duration) Task {
	t.Helper()
	task, ok, err := c.Lease(context.Background(), workerID, wait)
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	if !ok {
		t.Fatalf("lease: no task within %s", wait)
	}
	return task
}

// runInputs returns distinct wire-safe inputs per seed.
func runInputs(seed int64) (config.Machine, config.Run) {
	m := config.Default()
	r := config.NewRun("vpr", core.BaseP())
	r.Instructions = 50000
	r.Seed = seed
	return m, r
}

func TestCoordinatorExecuteRoundTrip(t *testing.T) {
	c := newTestCoordinator(t, Options{LeaseTTL: time.Second})
	m, r := runInputs(1)

	done := make(chan struct{})
	go func() {
		defer close(done)
		task := leaseOne(t, c, "w1", 2*time.Second)
		gotM, gotR, err := config.Decode(task.Spec)
		if err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		key, _ := runner.KeyFor(gotM, gotR)
		if err := c.Complete(CompleteRequest{
			Worker: "w1", Task: task.ID, Key: key.String(), Report: stubReport(gotR),
		}); err != nil {
			t.Errorf("complete: %v", err)
		}
	}()

	rep, tier, err := c.Execute(context.Background(), m, r)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if tier != runner.SourceRemote {
		t.Errorf("tier = %q, want %q", tier, runner.SourceRemote)
	}
	if want := stubReport(r); rep == nil || *rep != *want {
		t.Errorf("report = %+v, want %+v", rep, want)
	}
	<-done

	stats := c.StatsSnapshot()
	if len(stats.Workers) != 1 || stats.Workers[0].Worker != "w1" {
		t.Fatalf("worker stats = %+v, want one row for w1", stats.Workers)
	}
	if got := stats.Workers[0].Progress.Completed; got != 1 {
		t.Errorf("w1 completed = %d, want 1", got)
	}
}

// TestCoordinatorReassignsExpiredLease: a worker that leases a task and
// goes silent must lose it; the task is re-leased to whoever asks next and
// the first worker's late upload is dropped as a duplicate.
func TestCoordinatorReassignsExpiredLease(t *testing.T) {
	c := newTestCoordinator(t, Options{
		LeaseTTL:  30 * time.Millisecond,
		RetryBase: time.Millisecond,
		RetryMax:  2 * time.Millisecond,
	})
	m, r := runInputs(2)

	var execErr error
	var rep *metrics.Report
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rep, _, execErr = c.Execute(context.Background(), m, r)
	}()

	dead := leaseOne(t, c, "zombie", time.Second)
	// zombie never renews; the lease expires and the sweeper re-queues it.
	task := leaseOne(t, c, "healthy", 2*time.Second)
	if task.ID != dead.ID {
		t.Fatalf("reassigned task %s, want %s", task.ID, dead.ID)
	}
	if task.Attempt != dead.Attempt+1 {
		t.Errorf("reassigned attempt = %d, want %d", task.Attempt, dead.Attempt+1)
	}
	if err := c.Complete(CompleteRequest{
		Worker: "healthy", Task: task.ID, Key: task.ID, Report: stubReport(r),
	}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if execErr != nil {
		t.Fatalf("Execute: %v", execErr)
	}
	if want := stubReport(r); *rep != *want {
		t.Errorf("report = %+v, want %+v", rep, want)
	}

	// The zombie wakes up and uploads anyway: acknowledged, dropped.
	if err := c.Complete(CompleteRequest{
		Worker: "zombie", Task: dead.ID, Key: dead.ID, Report: stubReport(r),
	}); err != nil {
		t.Fatalf("zombie upload: %v", err)
	}
	stats := c.StatsSnapshot()
	if stats.Reassigned == 0 {
		t.Error("Reassigned = 0, want > 0")
	}
	if stats.Duplicate == 0 {
		t.Error("Duplicate = 0 after zombie upload, want > 0")
	}
}

// TestCoordinatorRetriesTransientFailures: a transient failure re-queues
// with backoff until MaxAttempts, then surfaces; a permanent failure
// surfaces immediately.
func TestCoordinatorFailureHandling(t *testing.T) {
	t.Run("transient-then-success", func(t *testing.T) {
		c := newTestCoordinator(t, Options{
			LeaseTTL: time.Second, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
			MaxAttempts: 3,
		})
		m, r := runInputs(3)
		var wg sync.WaitGroup
		var rep *metrics.Report
		var execErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, _, execErr = c.Execute(context.Background(), m, r)
		}()
		task := leaseOne(t, c, "w1", time.Second)
		if err := c.Complete(CompleteRequest{
			Worker: "w1", Task: task.ID, Key: task.ID, Error: "overloaded", Transient: true,
		}); err != nil {
			t.Fatal(err)
		}
		retry := leaseOne(t, c, "w1", time.Second)
		if retry.Attempt != 2 {
			t.Errorf("retry attempt = %d, want 2", retry.Attempt)
		}
		if err := c.Complete(CompleteRequest{
			Worker: "w1", Task: retry.ID, Key: retry.ID, Report: stubReport(r),
		}); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if execErr != nil || rep == nil {
			t.Fatalf("Execute after retry: rep=%v err=%v", rep, execErr)
		}
		if got := c.StatsSnapshot().Retried; got != 1 {
			t.Errorf("Retried = %d, want 1", got)
		}
	})

	t.Run("transient-exhausts-attempts", func(t *testing.T) {
		c := newTestCoordinator(t, Options{
			LeaseTTL: time.Second, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
			MaxAttempts: 2,
		})
		m, r := runInputs(4)
		var wg sync.WaitGroup
		var execErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, execErr = c.Execute(context.Background(), m, r)
		}()
		for i := 0; i < 2; i++ {
			task := leaseOne(t, c, "w1", time.Second)
			if err := c.Complete(CompleteRequest{
				Worker: "w1", Task: task.ID, Key: task.ID, Error: "still overloaded", Transient: true,
			}); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		if execErr == nil || !strings.Contains(execErr.Error(), "still overloaded") {
			t.Fatalf("Execute = %v, want the exhausted transient error", execErr)
		}
	})

	t.Run("permanent-fails-immediately", func(t *testing.T) {
		c := newTestCoordinator(t, Options{LeaseTTL: time.Second, MaxAttempts: 5})
		m, r := runInputs(5)
		var wg sync.WaitGroup
		var execErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, execErr = c.Execute(context.Background(), m, r)
		}()
		task := leaseOne(t, c, "w1", time.Second)
		if err := c.Complete(CompleteRequest{
			Worker: "w1", Task: task.ID, Key: task.ID, Error: "bad scheme",
		}); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if execErr == nil || !strings.Contains(execErr.Error(), "bad scheme") {
			t.Fatalf("Execute = %v, want the permanent error", execErr)
		}
	})
}

// TestCoordinatorDriftTripwire: an upload whose recomputed key differs
// from the task's content address fails the task loudly.
func TestCoordinatorDriftTripwire(t *testing.T) {
	c := newTestCoordinator(t, Options{LeaseTTL: time.Second})
	m, r := runInputs(6)
	var wg sync.WaitGroup
	var execErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, execErr = c.Execute(context.Background(), m, r)
	}()
	task := leaseOne(t, c, "w1", time.Second)
	if err := c.Complete(CompleteRequest{
		Worker: "w1", Task: task.ID,
		Key:    strings.Repeat("ab", 32), // a different hash: the decoded spec drifted
		Report: stubReport(r),
	}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if execErr == nil || !strings.Contains(execErr.Error(), "wire drift") {
		t.Fatalf("Execute = %v, want a wire-drift error", execErr)
	}
	if got := c.StatsSnapshot().DriftErrs; got != 1 {
		t.Errorf("DriftErrs = %d, want 1", got)
	}
}

// TestCoordinatorDrain: draining fails queued tasks with ErrDraining,
// rejects new submissions, refuses leases — but a task already leased may
// still complete and deliver its result.
func TestCoordinatorDrain(t *testing.T) {
	c := newTestCoordinator(t, Options{LeaseTTL: time.Second})
	mLeased, rLeased := runInputs(7)
	mQueued, rQueued := runInputs(8)

	var wg sync.WaitGroup
	var leasedRep *metrics.Report
	var leasedErr, queuedErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		leasedRep, _, leasedErr = c.Execute(context.Background(), mLeased, rLeased)
	}()
	task := leaseOne(t, c, "w1", time.Second) // rLeased is now in flight
	go func() {
		defer wg.Done()
		_, _, queuedErr = c.Execute(context.Background(), mQueued, rQueued)
	}()
	// Wait until the second task is queued before draining.
	for i := 0; c.StatsSnapshot().Queued == 0; i++ {
		if i > 1000 {
			t.Fatal("second task never queued")
		}
		time.Sleep(time.Millisecond)
	}

	c.Drain()

	if _, _, err := c.Execute(context.Background(), mQueued, rQueued); !errors.Is(err, runner.ErrDraining) {
		t.Errorf("Execute during drain = %v, want ErrDraining", err)
	}
	if _, _, err := c.Lease(context.Background(), "w1", 0); !errors.Is(err, runner.ErrDraining) {
		t.Errorf("Lease during drain = %v, want ErrDraining", err)
	}

	// The leased task still renews and uploads.
	if _, ok := c.Renew("w1", task.ID); !ok {
		t.Error("renew of an in-flight lease refused during drain")
	}
	if err := c.Complete(CompleteRequest{
		Worker: "w1", Task: task.ID, Key: task.ID, Report: stubReport(rLeased),
	}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if leasedErr != nil || leasedRep == nil {
		t.Errorf("in-flight task during drain: rep=%v err=%v, want success", leasedRep, leasedErr)
	}
	if !errors.Is(queuedErr, runner.ErrDraining) {
		t.Errorf("queued task during drain = %v, want ErrDraining", queuedErr)
	}
}

// TestCoordinatorLocalFallback: inputs that cannot be serialized execute
// through Options.Local instead of the fleet.
func TestCoordinatorLocalFallback(t *testing.T) {
	var localCalls int
	c := newTestCoordinator(t, Options{
		LeaseTTL: time.Second,
		Local: func(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, error) {
			localCalls++
			return stubReport(r), nil
		},
	})
	m, r := runInputs(9)
	m.CPU.EachCycle = func(uint64) {} // opaque: not wire-safe
	rep, tier, err := c.Execute(context.Background(), m, r)
	if err != nil {
		t.Fatal(err)
	}
	if tier != runner.SourceSimulated {
		t.Errorf("tier = %q, want %q", tier, runner.SourceSimulated)
	}
	if localCalls != 1 || rep == nil {
		t.Errorf("local fallback: calls=%d rep=%v", localCalls, rep)
	}
}

// TestCoordinatorCoalescesIdenticalSubmissions: two Executes of one key
// produce one task; both get the report (as distinct copies).
func TestCoordinatorCoalescesIdenticalSubmissions(t *testing.T) {
	c := newTestCoordinator(t, Options{LeaseTTL: time.Second})
	m, r := runInputs(10)

	var wg sync.WaitGroup
	reps := make([]*metrics.Report, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], _, errs[i] = c.Execute(context.Background(), m, r)
		}(i)
	}
	// Both submissions must be attached to the one task before it is
	// leased and settled; otherwise the latecomer enqueues a fresh task
	// with nobody left to serve it.
	bothAttached := func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, tk := range c.tasks {
			if tk.waiters == 2 {
				return true
			}
		}
		return false
	}
	for i := 0; !bothAttached(); i++ {
		if i > 2000 {
			t.Fatal("submissions never coalesced onto one task")
		}
		time.Sleep(time.Millisecond)
	}
	task := leaseOne(t, c, "w1", 2*time.Second)
	if err := c.Complete(CompleteRequest{
		Worker: "w1", Task: task.ID, Key: task.ID, Report: stubReport(r),
	}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// No second task may exist.
	if _, ok, err := c.Lease(context.Background(), "w1", 0); err != nil || ok {
		t.Fatalf("second lease: ok=%v err=%v, want empty queue", ok, err)
	}
	for i := 0; i < 2; i++ {
		if errs[i] != nil || reps[i] == nil {
			t.Fatalf("submission %d: rep=%v err=%v", i, reps[i], errs[i])
		}
	}
	if reps[0] == reps[1] {
		t.Error("coalesced submissions share one *Report; each needs its own copy")
	}
}
