// Package core implements SQLoop itself — the paper's contribution: a
// middleware that accepts recursive and iterative CTEs, translates them
// into regular SQL for any engine reachable through database/sql, and
// transparently parallelizes iterative queries that aggregate over a
// self-join using synchronous (Sync), asynchronous (Async, DAIC-based)
// and prioritized asynchronous (AsyncP) execution (§IV–V of the paper).
package core

import (
	"container/list"
	"context"
	"database/sql"
	"fmt"
	"hash/maphash"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"sqloop/internal/obs"
	"sqloop/internal/serve"
	"sqloop/internal/sqlparser"
)

// Mode selects how the iterative part of a CTE is executed.
type Mode int

// Execution modes. ModeAuto picks Async when the query analysis
// qualifies the CTE for parallelization and Single otherwise.
const (
	ModeAuto Mode = iota
	ModeSingle
	ModeSync
	ModeAsync
	ModeAsyncPrio
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeSingle:
		return "single"
	case ModeSync:
		return "sync"
	case ModeAsync:
		return "async"
	case ModeAsyncPrio:
		return "asyncp"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode resolves a mode name.
func ParseMode(name string) (Mode, error) {
	switch strings.ToLower(name) {
	case "", "auto":
		return ModeAuto, nil
	case "single", "script":
		return ModeSingle, nil
	case "sync":
		return ModeSync, nil
	case "async":
		return ModeAsync, nil
	case "asyncp", "prio", "prioritized":
		return ModeAsyncPrio, nil
	default:
		return ModeAuto, fmt.Errorf("core: unknown mode %q", name)
	}
}

// Options configures a SQLoop instance. The zero value is usable.
type Options struct {
	// Mode selects the execution strategy (default ModeAuto).
	Mode Mode
	// Threads is the size of the connection/worker pool (default: half
	// the CPUs, at least 1 — §V-B of the paper).
	Threads int
	// Partitions is the number of hash partitions of the CTE table
	// (default 256, the paper's default).
	Partitions int
	// Dialect names the target engine's SQL dialect; every statement
	// SQLoop emits is rendered through it (the translation module,
	// §IV-B). Empty means generic.
	Dialect string
	// PriorityQuery is the user-supplied priority function for AsyncP
	// (§V-E): a SQL query with the placeholder $PART standing for a
	// partition table, returning one numeric value; higher runs first.
	// Empty derives a default from the aggregate.
	PriorityQuery string
	// KeepTable leaves the final CTE table materialized under the CTE's
	// name after Exec returns instead of dropping all working state.
	KeepTable bool
	// MaxIterations bounds any iterative/recursive execution as a
	// runaway guard (default 1_000_000).
	MaxIterations int
	// DisableMaterialization turns off the constant-join materialization
	// optimization (§V-B); used by the SQL-script baseline and ablation
	// benchmarks.
	DisableMaterialization bool
	// DisableStmtCache turns off the per-connection prepared-statement
	// cache: every statement is then sent to the engine as fresh text.
	// Escape hatch for engines with unstable prepared-statement support
	// and for cache-ablation benchmarks (results must be identical
	// either way).
	DisableStmtCache bool
	// OnRound, when set, is called after every completed round/iteration
	// with the 1-based round number and the number of rows changed in
	// that round. It runs on the coordinator goroutine.
	//
	// OnRound is an adapter over the Observer event API: internally it
	// is registered as a tracer that forwards obs.RoundEnd events. New
	// code should prefer Observer, which also sees per-partition
	// timings, fallback decisions and termination checks.
	OnRound func(round int, changed int64)
	// Observer, when set, receives typed execution events (see
	// internal/obs): ExecStart/ExecEnd, RoundStart/RoundEnd with delta
	// row counts, PartitionDone with per-worker timings, Fallback and
	// TerminationCheck. Parallel executors emit PartitionDone from
	// worker goroutines, so implementations must be safe for concurrent
	// use.
	Observer obs.Tracer
	// Metrics, when non-nil, is used as the instance's registry instead
	// of a fresh one. Sharing a registry lets other layers (the embedded
	// engine, the driver) report into the same snapshot — OpenEmbedded
	// relies on this.
	Metrics *obs.Registry
	// Checkpoint enables crash recovery for iterative and recursive
	// CTEs: execution state is snapshotted to disk at round boundaries
	// and a failed run resumes from the last snapshot instead of the
	// seed. Disabled when Dir is empty.
	Checkpoint CheckpointOptions
	// AfterCheckpoint, when set, runs after every successfully saved
	// snapshot. OpenEmbedded points it at the embedded engine's
	// Checkpoint method when the backend is durable, so a middleware
	// snapshot also flushes the engine's dirty pages and truncates its
	// write-ahead logs — the WAL↔checkpoint truncation contract. The
	// middleware itself attaches no meaning to it.
	AfterCheckpoint func() error
	// Tenant names this instance's tenant for admission control and
	// fair scheduling; empty means the default tenant. Only meaningful
	// together with Scheduler.
	Tenant string
	// Scheduler, when set, admits every iterative/recursive execution
	// before it runs (per-tenant concurrent-execution limits, typed
	// *serve.AdmissionError rejections) and fair-schedules concurrent
	// executions: the round loops yield their slot at round boundaries
	// so two tenants' fix-point computations interleave rounds instead
	// of serializing. Share one Scheduler across the instances that
	// should compete fairly.
	Scheduler *serve.Scheduler
}

// CheckpointOptions configures the checkpoint & recovery subsystem.
type CheckpointOptions struct {
	// Dir is the snapshot directory; empty disables checkpointing.
	Dir string
	// EveryRounds is the checkpoint interval K: state is saved after
	// every K-th completed round (default 1).
	EveryRounds int
	// MaxRecoveries bounds how many times one Exec call may restore
	// from a snapshot and continue after a recoverable failure
	// (default 3).
	MaxRecoveries int
	// RetryBackoff is the base sleep before a recovery attempt; each
	// attempt doubles it, with up to 50% jitter (default 100ms).
	RetryBackoff time.Duration
}

// enabled reports whether checkpointing is on.
func (c CheckpointOptions) enabled() bool { return c.Dir != "" }

// every returns the normalized interval.
func (c CheckpointOptions) every() int {
	if c.EveryRounds < 1 {
		return 1
	}
	return c.EveryRounds
}

// recoveries returns the normalized recovery bound.
func (c CheckpointOptions) recoveries() int {
	if c.MaxRecoveries < 1 {
		return 3
	}
	return c.MaxRecoveries
}

// backoff returns the sleep before recovery attempt n (1-based),
// doubling from the base with up to 50% jitter.
func (c CheckpointOptions) backoff(n int) time.Duration {
	d := c.RetryBackoff
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	for i := 1; i < n; i++ {
		d *= 2
		if d >= 5*time.Second {
			d = 5 * time.Second
			break
		}
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = runtime.NumCPU() / 2
		if o.Threads < 1 {
			o.Threads = 1
		}
	}
	if o.Partitions <= 0 {
		o.Partitions = 256
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 1_000_000
	}
	return o
}

// Result is the outcome of one Exec call.
type Result struct {
	// Columns and Rows hold the final query's result set.
	Columns []string
	Rows    [][]any
	// RowsAffected is set for plain DML statements.
	RowsAffected int64
	// Stats describes how an iterative/recursive CTE was executed.
	Stats ExecStats
}

// ExecStats reports what SQLoop did with a CTE.
type ExecStats struct {
	// Mode is the mode that actually ran (after auto-selection and
	// fallback).
	Mode Mode
	// Parallelized reports whether the partitioned executor ran.
	Parallelized bool
	// FallbackReason explains why a requested parallel mode fell back to
	// single-threaded execution (empty otherwise).
	FallbackReason string
	// Iterations is the number of iterations/rounds executed.
	Iterations int
	// MessageTables counts message tables created (§V-C).
	MessageTables int
	// Elapsed is the wall time of the CTE execution.
	Elapsed time.Duration
	// Rounds holds one entry per completed round/iteration — the
	// per-iteration trace the paper's §VI evaluation plots (delta sizes,
	// round runtimes, straggler spread). len(Rounds) == Iterations.
	Rounds []RoundStats
	// ResumedFromRound is the checkpointed round this execution resumed
	// after (0 when the run started from the seed). Recovery within one
	// Exec call and an explicit ResumeQuery both set it.
	ResumedFromRound int
	// Recoveries counts how many times this Exec call restarted from a
	// snapshot after a recoverable failure.
	Recoveries int
	// ShardCount is how many engine endpoints executed the CTE (0 for a
	// plain single-instance run, 1 when a shard group fell back to a
	// whole-run on one shard).
	ShardCount int
	// CrossShardRows counts message rows routed between shards over the
	// whole execution (0 unless ShardCount > 1).
	CrossShardRows int64
	// Failovers counts shard endpoints replaced by standby replicas
	// during this Exec call (elastic shard groups only).
	Failovers int
	// Rebalances counts online repartitions (shard-count changes between
	// rounds) during this Exec call (elastic shard groups only).
	Rebalances int
}

// RoundStats is the trace of one completed round/iteration.
type RoundStats struct {
	// Round is the 1-based round number.
	Round int
	// Changed is the number of rows changed during the round (the
	// per-iteration delta size).
	Changed int64
	// Duration is the wall time of the round. Under the asynchronous
	// executors rounds are virtual (a round completes when the slowest
	// partition advances), so Duration measures between completions.
	Duration time.Duration
	// Partitions counts partition tasks completed in the round (0 for
	// the single-threaded executors).
	Partitions int
	// MessageTables counts message tables created during the round.
	MessageTables int
	// MaxWorker and MinWorker are the longest and shortest per-task
	// worker times in the round — the straggler spread. Zero for the
	// single-threaded executors.
	MaxWorker time.Duration
	MinWorker time.Duration
}

// SQLoop is one middleware instance bound to a target engine.
type SQLoop struct {
	db      *sql.DB
	opts    Options
	dialect sqlparser.Dialect
	// dsn identifies the engine for checkpoint keys (may be empty, see
	// NewWithDB).
	dsn string
	// tracer is never nil: it fans out to Options.Observer and the
	// OnRound adapter, or discards events when neither is set.
	tracer obs.Tracer
	// metrics is this instance's registry. Every statement the
	// middleware issues is timed into it; OpenEmbedded additionally
	// routes engine- and driver-level instruments here.
	metrics *obs.Registry
}

// Open connects SQLoop to the database reachable at dsn via the named
// database/sql driver (the paper's JDBC URL + port step).
func Open(driverName, dsn string, opts Options) (*SQLoop, error) {
	db, err := sql.Open(driverName, dsn)
	if err != nil {
		return nil, fmt.Errorf("core: open %s: %w", dsn, err)
	}
	return NewWithDB(db, dsn, opts)
}

// NewWithDB wraps an existing database handle. dsn identifies the
// engine behind it in checkpoint keys; it may be empty.
func NewWithDB(db *sql.DB, dsn string, opts Options) (*SQLoop, error) {
	opts = opts.withDefaults()
	d, err := sqlparser.ParseDialect(opts.Dialect)
	if err != nil {
		return nil, err
	}
	// Workers + coordinator + samplers all need simultaneous
	// connections.
	db.SetMaxOpenConns(opts.Threads + 8)
	tracer := obs.Multi(opts.Observer, onRoundTracer(opts.OnRound))
	if tracer == nil {
		tracer = obs.NopTracer{}
	}
	metrics := opts.Metrics
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	return &SQLoop{db: db, opts: opts, dialect: d, dsn: dsn, tracer: tracer, metrics: metrics}, nil
}

// onRoundTracer adapts the legacy OnRound callback to the event API: it
// forwards every RoundEnd. Returns nil when no callback is set.
func onRoundTracer(fn func(round int, changed int64)) obs.Tracer {
	if fn == nil {
		return nil
	}
	return obs.FuncTracer(func(ev obs.Event) {
		if re, ok := ev.(obs.RoundEnd); ok {
			fn(re.Round, re.Changed)
		}
	})
}

// Metrics returns the instance's metrics registry. It always exists;
// callers snapshot it with Metrics().Snapshot().
func (s *SQLoop) Metrics() *obs.Registry { return s.metrics }

// DB exposes the underlying database handle (for samplers and tools).
func (s *SQLoop) DB() *sql.DB { return s.db }

// Options returns the effective options.
func (s *SQLoop) Options() Options { return s.opts }

// Close releases the database handle, and with it an embedded engine
// the handle owns (sqloop.OpenEmbedded).
func (s *SQLoop) Close() error { return s.db.Close() }

// Exec runs one statement: iterative and recursive CTEs are executed by
// SQLoop's loop executors; everything else passes through to the engine
// after dialect translation.
func (s *SQLoop) Exec(ctx context.Context, query string) (*Result, error) {
	st, err := sqlparser.Parse(query)
	if err != nil {
		return nil, err
	}
	if cte, ok := st.(*sqlparser.LoopCTEStmt); ok {
		return s.execLoopCTE(ctx, cte)
	}
	return s.execPlain(ctx, st)
}

// ExecScript runs a multi-statement script sequentially on one
// connection, returning the last statement's result.
func (s *SQLoop) ExecScript(ctx context.Context, script string) (*Result, error) {
	stmts, err := sqlparser.ParseAll(script)
	if err != nil {
		return nil, err
	}
	conn, err := s.db.Conn(ctx)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	c := s.newConn(conn)
	defer c.closeStmts()
	var res *Result
	for _, st := range stmts {
		if cte, ok := st.(*sqlparser.LoopCTEStmt); ok {
			res, err = s.execLoopCTE(ctx, cte)
		} else {
			res, err = c.runStmt(ctx, st)
		}
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// execPlain runs a non-CTE statement on a pooled connection.
func (s *SQLoop) execPlain(ctx context.Context, st sqlparser.Statement) (*Result, error) {
	conn, err := s.db.Conn(ctx)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	c := s.newConn(conn)
	defer c.closeStmts()
	res, err := c.runStmt(ctx, st)
	if err != nil {
		return nil, err
	}
	res.Stats.Mode = ModeSingle
	return res, nil
}

// execLoopCTE dispatches recursive vs iterative execution and brackets
// it with ExecStart/ExecEnd events.
func (s *SQLoop) execLoopCTE(ctx context.Context, cte *sqlparser.LoopCTEStmt) (*Result, error) {
	if err := validateCTE(cte); err != nil {
		return nil, err
	}
	kind := "iterative"
	if cte.Kind == sqlparser.CTERecursive {
		kind = "recursive"
	}
	// Admission: one scheduler slot per execution, spanning the whole
	// run including recovery attempts — the ticket's round-boundary
	// yields keep concurrent executions fair, not the recovery loop.
	if s.opts.Scheduler != nil {
		ticket, err := s.opts.Scheduler.Admit(ctx, s.opts.Tenant)
		if err != nil {
			return nil, err
		}
		defer ticket.Done()
		ctx = withTicket(ctx, ticket)
	}
	s.tracer.Emit(obs.ExecStart{Kind: kind, CTE: cte.Name, Mode: s.opts.Mode.String()})
	start := time.Now()
	run := func() (*Result, error) {
		if cte.Kind == sqlparser.CTERecursive {
			return s.execRecursive(ctx, cte)
		}
		return s.execIterative(ctx, cte)
	}
	res, err := run()
	// Recovery loop: with checkpointing on, a transport-level failure
	// (lost engine connection) restarts the executor, which restores
	// from the latest snapshot — including any taken by the attempt
	// that just failed — instead of the seed.
	if err != nil && s.opts.Checkpoint.enabled() {
		for attempt := 1; attempt <= s.opts.Checkpoint.recoveries() && recoverable(err); attempt++ {
			backoff := s.opts.Checkpoint.backoff(attempt)
			s.tracer.Emit(obs.Retry{CTE: cte.Name, Attempt: attempt, Err: err.Error(), Backoff: backoff})
			s.metrics.Counter("sqloop_recoveries_total").Inc()
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(backoff):
			}
			var res2 *Result
			if res2, err = run(); err == nil {
				res2.Stats.Recoveries = attempt
				res = res2
			}
		}
	}
	end := obs.ExecEnd{CTE: cte.Name, Elapsed: time.Since(start)}
	if err != nil {
		end.Err = err.Error()
		end.Mode = s.opts.Mode.String()
	} else {
		end.Mode = res.Stats.Mode.String()
		end.Iterations = res.Stats.Iterations
	}
	s.tracer.Emit(end)
	if err != nil {
		return nil, err
	}
	s.metrics.Counter("sqloop_cte_execs_total").Inc()
	s.metrics.Counter("sqloop_rounds_total").Add(int64(res.Stats.Iterations))
	s.metrics.Histogram("sqloop_cte_seconds").Observe(res.Stats.Elapsed)
	return res, nil
}

// validateCTE enforces the structural rules of §III.
func validateCTE(cte *sqlparser.LoopCTEStmt) error {
	if cte.Name == "" {
		return fmt.Errorf("core: CTE must be named")
	}
	if refs := countTableRefs(cte.Step, cte.Name); refs == 0 {
		return fmt.Errorf("core: the iterative/recursive part must reference %s", cte.Name)
	} else if cte.Kind == sqlparser.CTERecursive && refs > 1 {
		return fmt.Errorf("core: recursive CTEs must reference %s exactly once (linear recursion)", cte.Name)
	}
	if cte.Kind == sqlparser.CTEIterative && cte.Until == nil {
		return fmt.Errorf("core: iterative CTE requires an UNTIL termination condition")
	}
	return nil
}

// countTableRefs counts references to name in a body's FROM clauses.
func countTableRefs(b sqlparser.SelectBody, name string) int {
	n := 0
	sqlparser.WalkTableExprs(b, func(te sqlparser.TableExpr) bool {
		if tn, ok := te.(*sqlparser.TableName); ok && strings.EqualFold(tn.Name, name) {
			n++
		}
		return true
	})
	return n
}

// dbConn wraps one pinned connection with dialect-aware statement
// execution. All SQLoop-generated statements flow through runStmt so the
// translation module (§IV-B) touches every query, and every statement's
// latency lands in the instance's registry (resolved once here because
// registry lookups take a lock).
type dbConn struct {
	conn    *sql.Conn
	dialect sqlparser.Dialect

	// stmts caches prepared statements by rendered text so the
	// round-loop's repeated statements prepare once and bind thereafter
	// (nil disables caching). dbConn is single-goroutine, so the cache
	// is unsynchronized.
	stmts *stmtLRU

	stmtLatency *obs.Histogram
	stmtCount   *obs.Counter
	rowsOut     *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
}

// newConn wraps a pinned connection with the instance's dialect and
// statement instruments.
func (s *SQLoop) newConn(conn *sql.Conn) *dbConn {
	c := &dbConn{
		conn:        conn,
		dialect:     s.dialect,
		stmtLatency: s.metrics.Histogram("sqloop_statement_seconds"),
		stmtCount:   s.metrics.Counter("sqloop_statements_total"),
		rowsOut:     s.metrics.Counter("sqloop_rows_returned_total"),
		cacheHits:   s.metrics.Counter("sqloop_conn_stmt_cache_hits"),
		cacheMisses: s.metrics.Counter("sqloop_conn_stmt_cache_misses"),
	}
	if !s.opts.DisableStmtCache {
		c.stmts = newStmtLRU(dbConnStmtCacheSize)
	}
	return c
}

// dbConnStmtCacheSize bounds each connection's prepared-statement
// cache; the round-loop's working set (a handful of templates per CTE)
// fits with a wide margin.
const dbConnStmtCacheSize = 128

// stmtLRU is a bounded, single-goroutine LRU of prepared statements
// keyed by rendered statement text. Eviction closes the statement. A
// text is prepared only when it comes back: most of a round's
// statements name that round's own message tables and run once, and
// preparing one would cost a prepare and a release on top of its single
// execution (three round trips over the wire instead of one).
type stmtLRU struct {
	max int
	lru *list.List // of *stmtLRUEntry, front = most recent
	m   map[string]*list.Element
	// seen holds hashes of texts executed once without being prepared,
	// the last few max of them (seenLog keeps their order).
	seen    map[uint64]bool
	seenLog []uint64
}

// seenSeed hashes statement texts for stmtLRU.seen.
var seenSeed = maphash.MakeSeed()

type stmtLRUEntry struct {
	text string
	st   *sql.Stmt
}

func newStmtLRU(max int) *stmtLRU {
	return &stmtLRU{max: max, lru: list.New(), m: make(map[string]*list.Element),
		seen: make(map[uint64]bool)}
}

// again reports whether text ran before on this connection (and so is
// worth preparing), remembering it otherwise.
func (l *stmtLRU) again(text string) bool {
	h := maphash.String(seenSeed, text)
	if l.seen[h] {
		delete(l.seen, h)
		return true
	}
	l.seen[h] = true
	if l.seenLog = append(l.seenLog, h); len(l.seenLog) > 4*l.max {
		delete(l.seen, l.seenLog[0])
		l.seenLog = l.seenLog[1:]
	}
	return false
}

func (l *stmtLRU) get(text string) *sql.Stmt {
	el, ok := l.m[text]
	if !ok {
		return nil
	}
	l.lru.MoveToFront(el)
	return el.Value.(*stmtLRUEntry).st
}

func (l *stmtLRU) put(text string, st *sql.Stmt) {
	l.m[text] = l.lru.PushFront(&stmtLRUEntry{text: text, st: st})
	for l.lru.Len() > l.max {
		el := l.lru.Back()
		ent := el.Value.(*stmtLRUEntry)
		l.lru.Remove(el)
		delete(l.m, ent.text)
		_ = ent.st.Close()
	}
}

func (l *stmtLRU) closeAll() {
	for el := l.lru.Front(); el != nil; el = el.Next() {
		_ = el.Value.(*stmtLRUEntry).st.Close()
	}
	l.lru.Init()
	l.m = make(map[string]*list.Element)
	l.seen, l.seenLog = make(map[uint64]bool), nil
}

// preparedFor returns a cached prepared statement for text, preparing
// and caching it on its second use. A nil return means "use the direct
// text path" — caching disabled, a text's first use, or the engine
// refused to prepare (the direct execution will then surface the real
// error or just work).
func (c *dbConn) preparedFor(ctx context.Context, text string) *sql.Stmt {
	if c.stmts == nil {
		return nil
	}
	if st := c.stmts.get(text); st != nil {
		if c.cacheHits != nil {
			c.cacheHits.Inc()
		}
		return st
	}
	if c.cacheMisses != nil {
		c.cacheMisses.Inc()
	}
	if !c.stmts.again(text) {
		return nil
	}
	st, err := c.conn.PrepareContext(ctx, text)
	if err != nil {
		return nil
	}
	c.stmts.put(text, st)
	return st
}

// closeStmts releases every cached prepared statement. Call before the
// underlying connection goes back to the pool.
func (c *dbConn) closeStmts() {
	if c.stmts != nil {
		c.stmts.closeAll()
	}
}

// observeStmt records one executed statement.
func (c *dbConn) observeStmt(start time.Time, rows int64) {
	if c.stmtLatency == nil {
		return // bare dbConn (tests) — instruments not wired
	}
	c.stmtLatency.Observe(time.Since(start))
	c.stmtCount.Inc()
	if rows > 0 {
		c.rowsOut.Add(rows)
	}
}

// runStmt renders and executes one parsed statement.
func (c *dbConn) runStmt(ctx context.Context, st sqlparser.Statement) (*Result, error) {
	text := sqlparser.FormatDialect(st, c.dialect)
	if isQuery(st) {
		return c.query(ctx, text)
	}
	return c.exec(ctx, text)
}

// runSQL parses, translates and executes raw SQL text.
func (c *dbConn) runSQL(ctx context.Context, text string) (*Result, error) {
	st, err := sqlparser.Parse(text)
	if err != nil {
		return nil, err
	}
	return c.runStmt(ctx, st)
}

func isQuery(st sqlparser.Statement) bool {
	_, ok := st.(*sqlparser.SelectStmt)
	return ok
}

func (c *dbConn) exec(ctx context.Context, text string) (*Result, error) {
	start := time.Now()
	var (
		res sql.Result
		err error
	)
	if st := c.preparedFor(ctx, text); st != nil {
		res, err = st.ExecContext(ctx)
	} else {
		res, err = c.conn.ExecContext(ctx, text)
	}
	if err != nil {
		return nil, fmt.Errorf("exec %q: %w", abbreviate(text), err)
	}
	n, err := res.RowsAffected()
	if err != nil {
		return nil, err
	}
	c.observeStmt(start, 0)
	return &Result{RowsAffected: n}, nil
}

func (c *dbConn) query(ctx context.Context, text string) (*Result, error) {
	start := time.Now()
	var (
		rows *sql.Rows
		err  error
	)
	if st := c.preparedFor(ctx, text); st != nil {
		rows, err = st.QueryContext(ctx)
	} else {
		rows, err = c.conn.QueryContext(ctx, text)
	}
	if err != nil {
		return nil, fmt.Errorf("query %q: %w", abbreviate(text), err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return nil, err
	}
	out := &Result{Columns: cols}
	for rows.Next() {
		vals := make([]any, len(cols))
		ptrs := make([]any, len(cols))
		for i := range vals {
			ptrs[i] = &vals[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, vals)
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	c.observeStmt(start, int64(len(out.Rows)))
	return out, nil
}

// scalar runs a query expected to return a single numeric value;
// missing/NULL results return (0, false).
func (c *dbConn) scalar(ctx context.Context, text string) (float64, bool, error) {
	res, err := c.query(ctx, text)
	if err != nil {
		return 0, false, err
	}
	if len(res.Rows) == 0 || len(res.Rows[0]) == 0 || res.Rows[0][0] == nil {
		return 0, false, nil
	}
	switch v := res.Rows[0][0].(type) {
	case int64:
		return float64(v), true, nil
	case float64:
		return v, true, nil
	case bool:
		if v {
			return 1, true, nil
		}
		return 0, true, nil
	default:
		return 0, false, fmt.Errorf("core: scalar query returned %T", v)
	}
}

func abbreviate(s string) string {
	const max = 120
	if len(s) <= max {
		return s
	}
	return s[:max] + "..."
}
