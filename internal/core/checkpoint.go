package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"sqloop/internal/ckpt"
	"sqloop/internal/obs"
	"sqloop/internal/sqlparser"
)

// This file connects the executors to internal/ckpt. All snapshot I/O
// goes through engine-neutral SQL on the coordinator connection: the
// middleware can checkpoint any engine it can query, exactly as it can
// execute against any engine it can reach — no storage-format access,
// no engine cooperation.
//
// Snapshots are only taken at round boundaries, where the executors'
// invariants make the visible state self-contained: the terminator has
// just refreshed Rdelta to equal R, the Sync barrier has drained every
// message table, and the async executors drain in-flight messages into
// the partition deltas before saving (the same soft barrier their
// termination checks use). Restoring therefore only needs the table
// contents and the round counter.

// CheckpointInfo describes one stored snapshot (see ckpt.Info).
type CheckpointInfo = ckpt.Info

// ckptRun is one execution's checkpoint context; a nil *ckptRun means
// checkpointing is disabled and every method no-ops.
type ckptRun struct {
	s       *SQLoop
	store   *ckpt.Store
	key     string
	query   string
	mode    string
	cteName string
	every   int
	// token is the execution's working-table namespace token, recorded
	// in every snapshot so a restore can recreate the same table names.
	token string
	// resumed is the snapshot this run restores from; nil for a fresh
	// start. Executors clear it when its shape does not match theirs
	// (e.g. the partition count changed between runs).
	resumed *ckpt.Snapshot
}

// execToken settles the run's namespace token: a restored run adopts
// the snapshot's token (its table names embed it), a fresh run mints a
// new one. Safe on a nil receiver (checkpointing disabled): the token
// is then always fresh.
func (r *ckptRun) execToken() string {
	if r == nil {
		return newExecToken()
	}
	if r.token == "" {
		if r.resumed != nil {
			r.token = r.resumed.Token
		} else {
			r.token = newExecToken()
		}
	}
	return r.token
}

// newCkptRun opens the snapshot store and loads any snapshot matching
// this query under the current mode and engine. Corrupt snapshots are
// discarded, not fatal: a damaged file must not make the query
// unrunnable.
func (s *SQLoop) newCkptRun(cte *sqlparser.LoopCTEStmt) (*ckptRun, error) {
	if !s.opts.Checkpoint.enabled() {
		return nil, nil
	}
	store, err := ckpt.NewStore(s.opts.Checkpoint.Dir)
	if err != nil {
		return nil, err
	}
	query := sqlparser.Format(cte)
	r := &ckptRun{
		s: s, store: store,
		query:   query,
		mode:    s.opts.Mode.String(),
		cteName: cte.Name,
		every:   s.opts.Checkpoint.every(),
	}
	r.key = ckpt.Key(query, r.mode, s.dsn)
	snap, err := store.Load(r.key)
	if err != nil {
		var ce *ckpt.CorruptError
		if !errors.As(err, &ce) {
			return nil, err
		}
		_ = store.Remove(r.key)
		snap = nil
	}
	r.resumed = snap
	return r, nil
}

// due reports whether a checkpoint is scheduled after the given round.
func (r *ckptRun) due(round int) bool {
	return r != nil && round > 0 && round%r.every == 0
}

// restoring reports whether this run starts from a snapshot.
func (r *ckptRun) restoring() bool { return r != nil && r.resumed != nil }

// save writes one snapshot of the named tables, reading tables[i] on
// conn(i) (a shard group's partitions live on different engines), each
// projected to tableCols (nil for all its columns). A parallel run
// passes each partition's completed-round counter and its group's
// topology epoch.
func (r *ckptRun) save(ctx context.Context, conn func(i int) *dbConn, round int, partRounds []int, epoch int64, cols, tables, tableCols []string) error {
	if r == nil {
		return nil
	}
	start := time.Now()
	snap := &ckpt.Snapshot{
		Key: r.key, Query: r.query, Mode: r.mode, Engine: r.s.dsn,
		CTE: r.cteName, Token: r.token, Round: round, Partitions: len(partRounds),
		Epoch:      epoch,
		PartRounds: append([]int(nil), partRounds...),
		Columns:    append([]string(nil), cols...),
		CreatedAt:  time.Now().UTC(),
	}
	for i, t := range tables {
		ts, err := r.readTable(ctx, conn(i), t, tableCols)
		if err != nil {
			return err
		}
		snap.Tables = append(snap.Tables, ts)
	}
	n, err := r.store.Save(snap)
	if err != nil {
		return fmt.Errorf("checkpoint of %s at round %d: %w", r.cteName, round, err)
	}
	elapsed := time.Since(start)
	r.s.tracer.Emit(obs.Checkpoint{CTE: r.cteName, Round: round,
		Tables: len(snap.Tables), Bytes: n, Elapsed: elapsed})
	r.s.metrics.Counter("sqloop_checkpoints_total").Inc()
	r.s.metrics.Counter("sqloop_checkpoint_bytes_total").Add(n)
	r.s.metrics.Histogram("sqloop_checkpoint_seconds").Observe(elapsed)
	if hook := r.s.opts.AfterCheckpoint; hook != nil {
		if err := hook(); err != nil {
			return fmt.Errorf("after-checkpoint hook at round %d: %w", round, err)
		}
	}
	return nil
}

// readTable captures one table's contents: the listed columns, or all
// of them when cols is nil.
func (r *ckptRun) readTable(ctx context.Context, c *dbConn, name string, cols []string) (ckpt.TableState, error) {
	res, err := c.runStmt(ctx, &sqlparser.SelectStmt{Body: selectCols(name, cols)})
	if err != nil {
		return ckpt.TableState{}, err
	}
	return ckpt.TableState{Name: name, Columns: res.Columns, Rows: res.Rows}, nil
}

// restoreTable recreates one table from snapshot state, batching rows
// into VALUES inserts.
func (r *ckptRun) restoreTable(ctx context.Context, c *dbConn, ts ckpt.TableState, pk bool) error {
	if _, err := c.runStmt(ctx, dropTable(ts.Name)); err != nil {
		return err
	}
	if _, err := c.runStmt(ctx, createAnyTable(ts.Name, ts.Columns, pk)); err != nil {
		return err
	}
	if err := insertRows(ctx, c, ts.Name, nil, ts.Rows); err != nil {
		return fmt.Errorf("restore %s: %w", ts.Name, err)
	}
	return nil
}

// markResumed emits the restore event once the executor has committed
// to starting from the snapshot.
func (r *ckptRun) markResumed() {
	r.s.tracer.Emit(obs.Restore{CTE: r.cteName, Round: r.resumed.Round, Key: r.key})
	r.s.metrics.Counter("sqloop_restores_total").Inc()
}

// finish removes the snapshot after a successful completion and stamps
// the stats; a completed query must not resume on its next run.
func (r *ckptRun) finish(stats *ExecStats) {
	if r == nil {
		return
	}
	if r.resumed != nil {
		stats.ResumedFromRound = r.resumed.Round
	}
	_ = r.store.Remove(r.key)
}

// recoverable classifies an execution failure as transport-level (the
// engine connection died; the data survived) rather than semantic.
// ConnLost is duck-typed so core does not import the driver package.
func recoverable(err error) bool {
	var lost interface{ ConnLost() bool }
	if errors.As(err, &lost) && lost.ConnLost() {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// ListCheckpoints lists every snapshot in the configured directory,
// newest first.
func (s *SQLoop) ListCheckpoints() ([]CheckpointInfo, error) {
	if !s.opts.Checkpoint.enabled() {
		return nil, fmt.Errorf("core: checkpointing is not enabled (set Options.Checkpoint.Dir)")
	}
	store, err := ckpt.NewStore(s.opts.Checkpoint.Dir)
	if err != nil {
		return nil, err
	}
	return store.List()
}

// ResumeQuery runs query, requiring a stored snapshot to resume from:
// it errors when no snapshot matches the query under the current mode
// and engine. Exec picks snapshots up automatically; ResumeQuery is for
// callers that must know they are resuming (the CLI after a crash).
func (s *SQLoop) ResumeQuery(ctx context.Context, query string) (*Result, error) {
	if !s.opts.Checkpoint.enabled() {
		return nil, fmt.Errorf("core: checkpointing is not enabled (set Options.Checkpoint.Dir)")
	}
	st, err := sqlparser.Parse(query)
	if err != nil {
		return nil, err
	}
	cte, ok := st.(*sqlparser.LoopCTEStmt)
	if !ok {
		return nil, fmt.Errorf("core: ResumeQuery requires an iterative or recursive CTE")
	}
	key := ckpt.Key(sqlparser.Format(cte), s.opts.Mode.String(), s.dsn)
	store, err := ckpt.NewStore(s.opts.Checkpoint.Dir)
	if err != nil {
		return nil, err
	}
	snap, err := store.Load(key)
	if err != nil {
		return nil, err
	}
	if snap == nil {
		return nil, fmt.Errorf("core: no checkpoint for this query (key %s)", key)
	}
	return s.execLoopCTE(ctx, cte)
}
