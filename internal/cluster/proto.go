// Package cluster turns icrd into the coordinator of a simulation fleet:
// remote icrworker processes register over HTTP/JSON, pull leased tasks,
// execute them with the ordinary local engine, and upload the resulting
// metrics.Report. The coordinator plugs into internal/runner behind the
// Executor seam, so everything above it — experiment drivers, figure CSVs,
// the memo/disk cache tiers — behaves exactly as in single-node mode.
//
// Correctness model:
//
//   - Content addressing: a task's spec is the canonical encoding of its
//     (Machine, Run) input (config.Encode) and its ID is runner.KeyFor's
//     SHA-256 of those same bytes. Workers decode the spec, recompute the
//     key from the decoded input, and refuse on mismatch, so an input
//     that stops round-tripping turns into a loud error, never a silently
//     different simulation.
//   - At-least-once + idempotent: a lease that expires (worker crash,
//     partition, slow machine) is reassigned, so one task may execute on
//     several workers. Simulation is a pure function of its inputs, so
//     every execution yields the identical report; the first upload wins
//     and later ones are acknowledged and dropped. Results flow through
//     the runner's content-addressed cache tiers, so the disk store
//     persists a fleet result exactly once.
//   - Determinism: the coordinator returns reports to the runner, which
//     preserves submission-order collection; figure output is
//     byte-identical to a single-node run no matter which worker ran
//     which task or how many leases expired along the way.
//   - Backoff: transiently failed tasks (worker timeout, lease expiry)
//     are re-queued with exponential backoff plus jitter, capped at
//     MaxAttempts before the error is surfaced to the submitter.
//   - Drain: Coordinator.Drain stops granting leases and fails queued
//     tasks with runner.ErrDraining; leased tasks may still renew and
//     upload, so SIGTERM lets the fleet finish in-flight work.
package cluster

import (
	"encoding/json"

	"repro/internal/metrics"
)

// Wire paths (mounted on icrd's mux; see Coordinator.Handler).
const (
	PathRegister  = "/cluster/v1/register"
	PathHeartbeat = "/cluster/v1/heartbeat"
	PathLease     = "/cluster/v1/lease"
	PathRenew     = "/cluster/v1/renew"
	PathComplete  = "/cluster/v1/complete"
)

// RegisterRequest announces a worker to the coordinator. Workers
// re-register freely (process restart, coordinator restart): registration
// is an upsert.
type RegisterRequest struct {
	Worker string `json:"worker"`
	// Slots is the worker's concurrent task capacity (informational,
	// surfaced in the coordinator's stats).
	Slots int `json:"slots,omitempty"`
}

// RegisterResponse tells the worker the coordinator's timing contract.
type RegisterResponse struct {
	// LeaseMS is the lease duration; workers must renew well within it.
	LeaseMS int64 `json:"lease_ms"`
	// HeartbeatMS is how often the worker should heartbeat.
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

// HeartbeatRequest keeps a worker's registration alive between leases.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
}

// HeartbeatResponse carries coordinator state back on the heartbeat.
type HeartbeatResponse struct {
	// Draining is true once the coordinator stops granting leases; a
	// worker may use it to finish up and exit.
	Draining bool `json:"draining"`
}

// LeaseRequest asks for one task. The coordinator holds the request open
// for up to WaitMS when the queue is empty (long poll), so idle workers
// learn about new work without a tight poll loop.
type LeaseRequest struct {
	Worker string `json:"worker"`
	WaitMS int64  `json:"wait_ms,omitempty"`
}

// LeaseResponse carries the granted task. An empty queue is a 204, not a
// LeaseResponse.
type LeaseResponse struct {
	Task Task `json:"task"`
}

// Task is one leased unit of work.
type Task struct {
	// ID is the content address: runner.KeyFor(Machine, Run) in hex.
	ID string `json:"id"`
	// Attempt is the 1-based dispatch attempt (diagnostics; retries and
	// lease reassignments increment it).
	Attempt int `json:"attempt"`
	// LeaseMS is the lease duration granted with this task.
	LeaseMS int64 `json:"lease_ms"`
	// Spec is the simulation input in its canonical encoding
	// (config.Encode): the very bytes ID hashes. Workers decode it with
	// config.Decode.
	Spec json.RawMessage `json:"spec"`
}

// RenewRequest extends a lease mid-execution.
type RenewRequest struct {
	Worker string `json:"worker"`
	Task   string `json:"task"`
}

// RenewResponse confirms the extension. A lost lease (expired and
// reassigned, or task settled) is a 410, telling the worker to abandon
// the execution.
type RenewResponse struct {
	LeaseMS int64 `json:"lease_ms"`
}

// CompleteRequest uploads a task result: exactly one of Report or Error
// is set.
type CompleteRequest struct {
	Worker string `json:"worker"`
	Task   string `json:"task"`
	// Key is the worker's recomputed content address of the decoded spec.
	// The coordinator rejects the result on mismatch — the wire-drift
	// tripwire.
	Key    string          `json:"key,omitempty"`
	Report *metrics.Report `json:"report,omitempty"`
	Error  string          `json:"error,omitempty"`
	// Transient marks an error worth retrying on another lease (worker
	// overload, local timeout) as opposed to a deterministic simulation
	// failure that would recur anywhere.
	Transient bool `json:"transient,omitempty"`
}

// CompleteResponse acknowledges the upload (idempotent: completing an
// already-settled or unknown task also acknowledges).
type CompleteResponse struct{}
