// Package obs is SQLoop's dependency-free observability layer: a
// Tracer interface carrying typed execution events, and a lightweight
// metrics registry (counters, gauges, duration histograms) with
// snapshot export. The paper's entire evaluation (§VI) depends on
// seeing inside iterative execution — per-iteration runtimes, message
// table counts, convergence of Sync vs. Async vs. AsyncP — and every
// layer of this repository (core executors, embedded engine, driver,
// wire protocol) reports through this package.
//
// The package deliberately imports nothing beyond the standard
// library's sync/time/fmt so that any layer, including the engine and
// the wire protocol, can depend on it without cycles.
package obs

import (
	"sync"
	"time"
)

// Event is one typed execution event. Concrete event types are plain
// structs so observers can switch on them; Name returns a stable
// snake_case identifier for logging and counting.
type Event interface {
	Name() string
}

// Tracer receives execution events. Implementations must be safe for
// concurrent use: parallel executors emit PartitionDone from worker
// goroutines while the coordinator emits round events.
type Tracer interface {
	Emit(ev Event)
}

// ExecStart is emitted once when an iterative or recursive CTE begins
// executing (after validation, before any table work).
type ExecStart struct {
	// Kind is "iterative" or "recursive".
	Kind string
	// CTE is the CTE's declared name.
	CTE string
	// Mode names the requested execution mode (before auto-selection
	// and fallback).
	Mode string
}

// Name implements Event.
func (ExecStart) Name() string { return "exec_start" }

// ExecEnd is emitted once when the CTE execution finishes (successfully
// or not).
type ExecEnd struct {
	// CTE is the CTE's declared name.
	CTE string
	// Mode names the mode that actually ran.
	Mode string
	// Iterations is the number of completed rounds.
	Iterations int
	// Elapsed is the wall time of the execution.
	Elapsed time.Duration
	// Err holds the failure message, empty on success.
	Err string
}

// Name implements Event.
func (ExecEnd) Name() string { return "exec_end" }

// RoundStart is emitted when a round/iteration begins. Under the
// asynchronous executors a "round" is virtual — it completes when the
// slowest partition advances — so RoundStart is emitted at the moment
// the round is recognized, immediately before its RoundEnd.
type RoundStart struct {
	// Round is the 1-based round number.
	Round int
}

// Name implements Event.
func (RoundStart) Name() string { return "round_start" }

// RoundEnd is emitted when a round/iteration completes. One RoundEnd is
// emitted per counted iteration in every mode, so observers can rely on
// count(RoundEnd) == ExecStats.Iterations.
type RoundEnd struct {
	// Round is the 1-based round number.
	Round int
	// Changed is the number of rows changed during the round (the
	// paper's per-iteration delta size).
	Changed int64
	// Duration is the wall time of the round.
	Duration time.Duration
	// Partitions counts partition tasks that completed in the round
	// (0 for the single-threaded executors).
	Partitions int
	// MessageTables counts message tables created during the round.
	MessageTables int
	// MaxWorker and MinWorker are the longest and shortest per-partition
	// worker times observed in the round — the straggler spread (§V-B
	// barrier cost). Zero for the single-threaded executors.
	MaxWorker time.Duration
	MinWorker time.Duration
}

// Name implements Event.
func (RoundEnd) Name() string { return "round_end" }

// PartitionDone is emitted by the parallel executors whenever one
// partition task finishes on a worker connection.
type PartitionDone struct {
	// Round is the partition's 1-based completed round count at the
	// time the task finished.
	Round int
	// Part is the partition index.
	Part int
	// Phase is "compute", "gather" or "pair" (the fused
	// gather-then-compute task of the async scheduler).
	Phase string
	// Changed is the number of rows the task changed.
	Changed int64
	// Duration is the task's wall time on the worker.
	Duration time.Duration
}

// Name implements Event.
func (PartitionDone) Name() string { return "partition_done" }

// Fallback is emitted when a requested parallel mode falls back to
// single-threaded execution because the analyzer (§V-A) did not qualify
// the query.
type Fallback struct {
	// CTE is the CTE's declared name.
	CTE string
	// Reason is the analyzer's explanation.
	Reason string
}

// Name implements Event.
func (Fallback) Name() string { return "fallback" }

// TerminationCheck is emitted each time the UNTIL condition (Table I of
// the paper) is evaluated.
type TerminationCheck struct {
	// Round is the 1-based round the check ran after.
	Round int
	// Kind is "iterations", "updates" or "expr".
	Kind string
	// Updated is the row-change count handed to the check.
	Updated int64
	// Satisfied reports whether the condition held.
	Satisfied bool
}

// Name implements Event.
func (TerminationCheck) Name() string { return "termination_check" }

// Checkpoint is emitted after the execution state of an iterative or
// recursive CTE is snapshotted to disk at a round boundary.
type Checkpoint struct {
	// CTE is the CTE's declared name.
	CTE string
	// Round is the 1-based round the snapshot captures.
	Round int
	// Tables is the number of state tables in the snapshot.
	Tables int
	// Bytes is the snapshot file size.
	Bytes int64
	// Elapsed is the wall time spent reading state and writing the file.
	Elapsed time.Duration
}

// Name implements Event.
func (Checkpoint) Name() string { return "checkpoint" }

// ShardExchange is emitted once per Compute task of a sharded
// execution that shipped rows: the rows its message table emitted for
// keys owned by other shards, routed to their owners.
type ShardExchange struct {
	// Round is the 1-based round the exchanging task ran in (under the
	// async schedulers, the round in progress when it was dispatched).
	Round int
	// Shard is the source shard index the rows were read from.
	Shard int
	// Rows is how many rows left this shard for other shards.
	Rows int64
	// Tables is the number of message tables the rows were read from.
	Tables int
	// Duration is the wall time of reading, routing and encoding them.
	Duration time.Duration
}

// Name implements Event.
func (ShardExchange) Name() string { return "shard_exchange" }

// ShardFailover is emitted when the shard-group coordinator replaces a
// dead shard endpoint with a standby replica before replaying the run
// from the last group checkpoint.
type ShardFailover struct {
	// Shard is the partition index whose endpoint was replaced.
	Shard int
	// From and To are the old (dead) and new (standby) engine DSNs.
	From string
	To   string
	// Round is the checkpointed round the replay resumes after (0 when
	// no snapshot existed yet and the run replays from the seed).
	Round int
	// Epoch is the group topology epoch after the swap.
	Epoch int64
}

// Name implements Event.
func (ShardFailover) Name() string { return "shard_failover" }

// ShardRebalance is emitted when a shard group repartitions online
// between rounds: partition rows are re-routed by PARTHASH under the
// new shard count and shipped through the batch codec.
type ShardRebalance struct {
	// Round is the completed round the repartition landed after.
	Round int
	// From and To are the old and new shard counts.
	From int
	To   int
	// Epoch is the group topology epoch after the change.
	Epoch int64
	// Rows counts partition rows that changed owner.
	Rows int64
	// Duration is the wall time of the whole repartition wave.
	Duration time.Duration
}

// Name implements Event.
func (ShardRebalance) Name() string { return "shard_rebalance" }

// Restore is emitted when an execution starts from a snapshot instead
// of the seed query.
type Restore struct {
	// CTE is the CTE's declared name.
	CTE string
	// Round is the checkpointed round execution resumes after.
	Round int
	// Key identifies the snapshot (query+mode+engine hash).
	Key string
}

// Name implements Event.
func (Restore) Name() string { return "restore" }

// Retry is emitted when CTE execution restarts after a recoverable
// failure (a lost engine connection with checkpointing enabled).
type Retry struct {
	// CTE is the CTE's declared name.
	CTE string
	// Attempt is the 1-based recovery attempt.
	Attempt int
	// Err is the failure that triggered the retry.
	Err string
	// Backoff is the sleep taken before this attempt.
	Backoff time.Duration
}

// Name implements Event.
func (Retry) Name() string { return "retry" }

// NopTracer discards every event.
type NopTracer struct{}

// Emit implements Tracer.
func (NopTracer) Emit(Event) {}

// FuncTracer adapts a function to the Tracer interface.
type FuncTracer func(Event)

// Emit implements Tracer.
func (f FuncTracer) Emit(ev Event) { f(ev) }

// multiTracer fans one event out to several tracers in order.
type multiTracer []Tracer

// Emit implements Tracer.
func (m multiTracer) Emit(ev Event) {
	for _, t := range m {
		t.Emit(ev)
	}
}

// Multi combines tracers, skipping nils. It returns nil when nothing
// remains so callers can test for "no observer at all".
func Multi(ts ...Tracer) Tracer {
	var kept multiTracer
	for _, t := range ts {
		if t != nil {
			kept = append(kept, t)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	default:
		return kept
	}
}

// Recorder is a Tracer that stores every event, for tests and for
// EXPLAIN ANALYZE-style reporting. Safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Tracer.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
}

// Events returns a copy of the recorded events in emission order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Count returns how many recorded events carry the given Name.
func (r *Recorder) Count(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ev := range r.events {
		if ev.Name() == name {
			n++
		}
	}
	return n
}

// Reset discards all recorded events.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = nil
}
