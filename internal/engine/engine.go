// Package engine implements the embedded relational engine SQLoop runs
// against: a catalog of tables/views/indexes over pluggable storage
// backends, an AST-walking executor with hash joins and grouped
// aggregation, per-table read/write locking so independent connections
// execute concurrently, statement-level undo-based transactions, and a
// calibrated cost model that emulates the per-connection server work of
// the paper's testbed (see DESIGN.md, substitutions).
package engine

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqloop/internal/btree"
	"sqloop/internal/lsm"
	"sqloop/internal/obs"
	"sqloop/internal/pager"
	"sqloop/internal/sqlparser"
	"sqloop/internal/sqltypes"
	"sqloop/internal/storage"
)

// Config configures a new engine instance.
type Config struct {
	// Backend selects the storage data structure (defaults to heap).
	Backend storage.Kind
	// Dialect is the SQL dialect profile this engine advertises.
	Dialect sqlparser.Dialect
	// Cost, when non-nil, charges simulated per-row latency so that
	// multi-connection parallelism behaves like a multi-core server even
	// on a single-CPU host. nil disables all charging.
	Cost *CostModel
	// StmtCacheSize bounds the parsed-statement cache: 0 uses the
	// default (512 entries), negative disables caching entirely.
	StmtCacheSize int
	// DisableExprCompile selects the reference row path: expressions are
	// evaluated by the tree-walking interpreter and operator keys use
	// string encoding instead of 64-bit row hashes. The interpreter is
	// also the production fallback for nodes the compiler does not
	// support; this switch exists so the differential suites can run
	// every query on the reference path and compare. Results are
	// identical either way.
	DisableExprCompile bool
	// DisableVectorize selects the row-at-a-time reference for the
	// batch (vectorized) path: filters, projections, grouping and join
	// probes run compiled but one row at a time, as they do in
	// production when a batch kernel declines a window. Implied by
	// DisableExprCompile (the batch path rides on compiled programs).
	// Set by the differential suites only; results are identical either
	// way.
	DisableVectorize bool
	// DataDir is where the disk backend keeps its page and WAL files.
	// Empty means a throwaway temp directory (removed by Close). Ignored
	// by the in-memory backends.
	DataDir string
	// BufferPoolPages bounds the disk backend's buffer pool in 8 KiB
	// pages, shared across all tables (0 = default 256 = 2 MiB).
	BufferPoolPages int
	// WALCheckpointBytes, when positive, starts a background checkpointer
	// for the disk backend: any table whose write-ahead log grows past
	// this many bytes is checkpointed (pages flushed, WAL truncated)
	// without waiting for an explicit Checkpoint call, so long DML-only
	// runs keep bounded logs. 0 disables the background checkpointer.
	WALCheckpointBytes int64
}

// Profile returns the engine configuration that simulates the named
// database system ("pgsim"/"postgres", "mysim"/"mysql",
// "mariasim"/"mariadb"), pairing the dialect with its storage backend.
func Profile(name string) (Config, error) {
	d, err := sqlparser.ParseDialect(name)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{Dialect: d}
	switch d {
	case sqlparser.DialectMySim:
		cfg.Backend = storage.KindBTree
	case sqlparser.DialectMariaSim:
		cfg.Backend = storage.KindLSM
	default:
		cfg.Backend = storage.KindHeap
	}
	return cfg, nil
}

// Engine is one simulated database server instance. All sessions created
// from it share the catalog; each session corresponds to one client
// connection (the paper's "new process per JDBC connection").
type Engine struct {
	cfg Config

	mu     sync.RWMutex // guards catalog maps
	tables map[string]*Table
	views  map[string]*view

	rowid atomic.Int64 // synthetic key source for tables without a PK

	// catalogGen counts catalog changes (any CREATE/DROP of tables,
	// views or indexes); cached parses whose dependency set is unknown
	// are valid only for the generation they were taken under. Atomic
	// because CREATE INDEX takes only the table lock, not the catalog
	// mutex.
	catalogGen atomic.Uint64
	// objGens holds one generation counter per catalog object name
	// (lowercased string -> *atomic.Uint64): relcache-style invalidation
	// so DDL on one object leaves cached statements over others valid.
	objGens sync.Map
	// stmts caches parsed statements (nil = caching disabled).
	stmts *stmtCache

	// exprCompiles counts expression lowerings; exprCacheHits counts
	// program-cache reuses. Steady-state iterative rounds should grow
	// only the latter (see compile.go).
	exprCompiles  atomic.Int64
	exprCacheHits atomic.Int64

	// vecBatches counts batch windows executed on the vectorized path;
	// vecFallbacks counts windows (or whole grouped inputs) that bailed
	// to row-at-a-time execution to reproduce an interpreter error.
	vecBatches   atomic.Int64
	vecFallbacks atomic.Int64

	stats Stats

	// metrics, when set, receives per-statement latency and lock-wait
	// observations in addition to the logical Stats counters.
	metrics atomic.Pointer[obs.Registry]

	// pagerMu guards the lazily-opened durable backend (Backend ==
	// storage.KindDisk). pagerTemp marks a DataDir the engine created
	// itself and removes on Close.
	pagerMu   sync.Mutex
	pager     *pager.DB
	pagerDir  string
	pagerTemp bool

	// ckptStop/ckptDone control the background WAL checkpointer (started
	// lazily with the pager when Config.WALCheckpointBytes > 0; both nil
	// otherwise). Guarded by pagerMu.
	ckptStop chan struct{}
	ckptDone chan struct{}

	// closeMu is held shared by every statement and exclusively by
	// Close, so Close waits for in-flight statements and none runs over
	// released storage afterwards; closed is set by Close under it.
	closeMu sync.RWMutex
	closed  bool

	// recoverErr is a failed disk-catalog recovery (set once in New,
	// read-only after); while non-nil every statement errors instead of
	// running over an engine that silently dropped durable tables.
	recoverErr error
}

// view is a named stored query.
type view struct {
	name string
	body sqlparser.SelectBody
}

// Stats aggregates logical work counters across the engine, exposed for
// experiments: they measure algorithmic work independent of wall time.
type Stats struct {
	RowsScanned  atomic.Int64
	RowsJoined   atomic.Int64
	RowsGrouped  atomic.Int64
	RowsInserted atomic.Int64
	RowsUpdated  atomic.Int64 // rows actually changed
	RowsDeleted  atomic.Int64
	Statements   atomic.Int64
	// LockWaits counts lock acquisitions that found the lock held by
	// another connection; LockWaitNanos accumulates the blocked time.
	LockWaits     atomic.Int64
	LockWaitNanos atomic.Int64
}

// StatsSnapshot is a plain-value copy of Stats.
type StatsSnapshot struct {
	RowsScanned  int64
	RowsJoined   int64
	RowsGrouped  int64
	RowsInserted int64
	RowsUpdated  int64
	RowsDeleted  int64
	Statements   int64
	LockWaits    int64
	LockWait     time.Duration
}

// New creates an empty engine.
func New(cfg Config) *Engine {
	if cfg.Backend == 0 {
		cfg.Backend = storage.KindHeap
	}
	e := &Engine{
		cfg:    cfg,
		tables: make(map[string]*Table),
		views:  make(map[string]*view),
	}
	switch {
	case cfg.StmtCacheSize > 0:
		e.stmts = newStmtCache(cfg.StmtCacheSize)
	case cfg.StmtCacheSize == 0:
		e.stmts = newStmtCache(defaultStmtCacheSize)
	}
	if cfg.Backend == storage.KindDisk && cfg.DataDir != "" {
		e.recoverErr = e.recoverDiskCatalog()
	}
	return e
}

// Dialect reports the engine's SQL dialect profile.
func (e *Engine) Dialect() sqlparser.Dialect { return e.cfg.Dialect }

// Backend reports the storage backend kind.
func (e *Engine) Backend() storage.Kind { return e.cfg.Backend }

// Stats returns a snapshot of the logical work counters.
func (e *Engine) Stats() StatsSnapshot {
	return StatsSnapshot{
		RowsScanned:  e.stats.RowsScanned.Load(),
		RowsJoined:   e.stats.RowsJoined.Load(),
		RowsGrouped:  e.stats.RowsGrouped.Load(),
		RowsInserted: e.stats.RowsInserted.Load(),
		RowsUpdated:  e.stats.RowsUpdated.Load(),
		RowsDeleted:  e.stats.RowsDeleted.Load(),
		Statements:   e.stats.Statements.Load(),
		LockWaits:    e.stats.LockWaits.Load(),
		LockWait:     time.Duration(e.stats.LockWaitNanos.Load()),
	}
}

// VecStats reports the vectorized execution counters: batch windows
// run on the columnar path, and windows that fell back to
// row-at-a-time execution.
func (e *Engine) VecStats() (batches, fallbacks int64) {
	return e.vecBatches.Load(), e.vecFallbacks.Load()
}

// SetMetrics attaches a registry; the engine then reports statement
// latency (engine_statement_seconds), statement counts
// (engine_statements_total) and lock contention
// (engine_lock_waits_total, engine_lock_wait_seconds) into it. The disk
// backend additionally reports page I/O and buffer-pool hit rate. Pass
// nil to detach.
func (e *Engine) SetMetrics(r *obs.Registry) {
	e.metrics.Store(r)
	e.pagerMu.Lock()
	if e.pager != nil {
		e.pager.SetMetrics(r)
	}
	e.pagerMu.Unlock()
}

// newStore builds a fresh store of the configured backend. name is the
// catalog name of the owning table; the disk backend derives its file
// names from it and gives an unlogged table no write-ahead log. The
// in-memory backends ignore logged.
func (e *Engine) newStore(name string, logged bool) (storage.Store, error) {
	switch e.cfg.Backend {
	case storage.KindBTree:
		return btree.New(), nil
	case storage.KindLSM:
		return lsm.New(), nil
	case storage.KindDisk:
		db, err := e.pagerDB()
		if err != nil {
			return nil, err
		}
		return db.CreateStore(name, logged)
	default:
		return storage.NewHeap(), nil
	}
}

// pagerDB opens the durable backend on first use.
func (e *Engine) pagerDB() (*pager.DB, error) {
	e.pagerMu.Lock()
	defer e.pagerMu.Unlock()
	if e.pager != nil {
		return e.pager, nil
	}
	dir := e.cfg.DataDir
	if dir == "" {
		d, err := os.MkdirTemp("", "sqloop-pager-*")
		if err != nil {
			return nil, err
		}
		dir = d
		e.pagerTemp = true
	}
	db, err := pager.OpenDB(dir, pager.Options{
		BufferPoolPages: e.cfg.BufferPoolPages,
		Metrics:         e.metrics.Load(),
	})
	if err != nil {
		if e.pagerTemp {
			os.RemoveAll(dir)
			e.pagerTemp = false
		}
		return nil, err
	}
	e.pager, e.pagerDir = db, dir
	e.startCheckpointer()
	return db, nil
}

// startCheckpointer launches the background WAL checkpointer. Called
// with pagerMu held, once the pager is open; a no-op unless
// Config.WALCheckpointBytes is set.
func (e *Engine) startCheckpointer() {
	if e.ckptStop != nil || e.cfg.WALCheckpointBytes <= 0 {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	e.ckptStop, e.ckptDone = stop, done
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				e.checkpointOversized()
			}
		}
	}()
}

// checkpointOversized checkpoints every disk table whose write-ahead
// log has grown past Config.WALCheckpointBytes. It takes each table's
// write lock for the duration of its checkpoint, so a checkpoint never
// observes a statement's partial mutations; the pager's own Commit at
// statement boundaries means the flushed state is always consistent.
func (e *Engine) checkpointOversized() {
	e.mu.RLock()
	tables := make([]*Table, 0, len(e.tables))
	for _, t := range e.tables {
		tables = append(tables, t)
	}
	e.mu.RUnlock()
	for _, t := range tables {
		t.mu.Lock()
		if ds, ok := t.store.(*pager.DiskStore); ok && ds.WALSize() > e.cfg.WALCheckpointBytes {
			// A dropped or concurrently-closed store errors here; skipping
			// is harmless — the next tick retries live tables.
			_ = ds.Checkpoint()
		}
		t.mu.Unlock()
	}
}

// Checkpoint flushes the disk backend's dirty pages and truncates its
// write-ahead logs, bounding recovery replay. A no-op for the
// in-memory backends and before the first disk table exists.
func (e *Engine) Checkpoint() error {
	e.pagerMu.Lock()
	db := e.pager
	e.pagerMu.Unlock()
	if db == nil {
		return nil
	}
	return db.Checkpoint()
}

// ErrClosed is returned for a statement issued after Close.
var ErrClosed = errors.New("engine: closed")

// Close waits for in-flight statements, stops the background
// checkpointer, then releases the disk backend's files (flushing dirty
// state first) and removes the data directory when the engine created
// it as a temp dir. Statements issued afterwards fail with ErrClosed.
// Safe to call more than once.
func (e *Engine) Close() error {
	e.closeMu.Lock()
	e.closed = true
	e.closeMu.Unlock()
	e.pagerMu.Lock()
	defer e.pagerMu.Unlock()
	if e.ckptStop != nil {
		close(e.ckptStop)
		<-e.ckptDone
		e.ckptStop, e.ckptDone = nil, nil
	}
	if e.pager == nil {
		return nil
	}
	err := e.pager.Close()
	if e.pagerTemp {
		if rmErr := os.RemoveAll(e.pagerDir); rmErr != nil && err == nil {
			err = rmErr
		}
	}
	e.pager = nil
	return err
}

// Table is one base table: schema, primary data store and secondary hash
// indexes, guarded by its own RW mutex so different tables proceed in
// parallel across sessions.
type Table struct {
	name   string
	schema *sqltypes.Schema
	pkCol  int // -1 when keys are synthetic rowids
	// unlogged tables (CREATE UNLOGGED/TEMP) have no catalog.json entry
	// and, on the disk backend, no write-ahead log: they live only as
	// long as the engine that created them.
	unlogged bool

	mu      sync.RWMutex
	store   storage.Store
	indexes map[string]*hashIndex // by index name
}

// hashIndex maps a column value to the primary keys holding it, kept in
// insertion order so every read of a bucket (index lookup, index join)
// returns rows in the same order on every execution. Removal tombstones
// the entry and compacts the bucket once half of it is dead, so it is
// O(1) amortised; slot, the position of each primary key in its bucket,
// is built on the first removal (tables that are only ever appended to,
// like message and materialized-join tables, never pay for it).
//
// NULL and NaN values are not stored: `=` never matches NULL, so no
// lookup needs those rows, and the index stays the size of its other
// rows. NaN compares equal to every number under CompareSQL, so nan
// counts the NaN rows left out and a lookup by a number is refused
// while any remain (see indexPath).
type hashIndex struct {
	name    string
	col     int
	buckets map[sqltypes.Key]*ixBucket
	slot    map[sqltypes.Key]int // nil until the first removal
	nan     int
	// spare is the cleared entry array of the last bucket that emptied,
	// reused by the next new bucket: a frontier index empties and
	// refills its one bucket every round.
	spare []ixEntry
}

// ixBucket is one key's primary keys in insertion order; dead entries
// are skipped by readers.
type ixBucket struct {
	ents []ixEntry
	dead int
}

type ixEntry struct {
	pk   sqltypes.Key
	dead bool
}

func newHashIndex(name string, col int) *hashIndex {
	return &hashIndex{
		name:    name,
		col:     col,
		buckets: make(map[sqltypes.Key]*ixBucket),
	}
}

// unstored reports whether v is left out of the index (NULL or NaN),
// counting NaN rows in or out by delta.
func (ix *hashIndex) unstored(v sqltypes.Value, delta int) bool {
	if v.IsNull() {
		return true
	}
	if isNaNValue(v) {
		ix.nan += delta
		return true
	}
	return false
}

func (ix *hashIndex) add(pk sqltypes.Key, row sqltypes.Row) {
	if ix.unstored(row[ix.col], 1) {
		return
	}
	v := row[ix.col].MapKey()
	b, ok := ix.buckets[v]
	if !ok {
		b = &ixBucket{ents: ix.spare}
		ix.spare = nil
		ix.buckets[v] = b
	}
	if ix.slot != nil {
		ix.slot[pk] = len(b.ents)
	}
	b.ents = append(b.ents, ixEntry{pk: pk})
}

func (ix *hashIndex) remove(pk sqltypes.Key, row sqltypes.Row) {
	if ix.unstored(row[ix.col], -1) {
		return
	}
	v := row[ix.col].MapKey()
	b, ok := ix.buckets[v]
	if !ok {
		return
	}
	if ix.slot == nil {
		ix.slot = make(map[sqltypes.Key]int)
		for _, ob := range ix.buckets {
			for i, e := range ob.ents {
				if !e.dead {
					ix.slot[e.pk] = i
				}
			}
		}
	}
	i, ok := ix.slot[pk]
	if !ok || i >= len(b.ents) || b.ents[i].dead {
		return
	}
	delete(ix.slot, pk)
	b.ents[i].dead = true
	b.dead++
	switch live := len(b.ents) - b.dead; {
	case live == 0:
		delete(ix.buckets, v)
		clear(b.ents)
		ix.spare = b.ents[:0]
	case b.dead > live:
		kept := b.ents[:0]
		for _, e := range b.ents {
			if !e.dead {
				ix.slot[e.pk] = len(kept)
				kept = append(kept, e)
			}
		}
		clear(b.ents[len(kept):])
		b.ents, b.dead = kept, 0
	}
}

// move moves an updated row to the end of its new value's bucket when
// the indexed column changed; otherwise it keeps its place.
func (ix *hashIndex) move(pk sqltypes.Key, old, row sqltypes.Row) {
	if old[ix.col].MapKey() != row[ix.col].MapKey() {
		ix.remove(pk, old)
		ix.add(pk, row)
	}
}

// clear empties the index (TRUNCATE).
func (ix *hashIndex) clear() {
	ix.buckets = make(map[sqltypes.Key]*ixBucket)
	ix.slot = nil
	ix.nan = 0
	ix.spare = nil
}

// bucket returns the entries for key in insertion order; readers skip
// the dead ones.
func (ix *hashIndex) bucket(key sqltypes.Key) []ixEntry {
	if b, ok := ix.buckets[key]; ok {
		return b.ents
	}
	return nil
}

// live is the number of rows the bucket for key holds.
func (ix *hashIndex) live(key sqltypes.Key) int {
	if b, ok := ix.buckets[key]; ok {
		return len(b.ents) - b.dead
	}
	return 0
}

// lookupTable returns the table (case-insensitive) if it exists.
func (e *Engine) lookupTable(name string) (*Table, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[strings.ToLower(name)]
	return t, ok
}

// lookupView returns the view (case-insensitive) if it exists.
func (e *Engine) lookupView(name string) (*view, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	v, ok := e.views[strings.ToLower(name)]
	return v, ok
}

// TableNames lists tables (for tools/tests), sorted.
func (e *Engine) TableNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.tables))
	for n := range e.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TableLen returns the number of rows of a table (0 when absent).
func (e *Engine) TableLen(name string) int {
	t, ok := e.lookupTable(name)
	if !ok {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.store.Len()
}

// Result is the outcome of one statement.
type Result struct {
	// Columns names the result columns (empty for DML).
	Columns []string
	// Rows holds the result rows for queries.
	Rows []sqltypes.Row
	// RowsAffected counts rows changed by DML. For UPDATE it counts rows
	// whose values actually changed (MySQL semantics) — SQLoop's
	// "UNTIL n UPDATES" termination depends on this.
	RowsAffected int64
}

// Session is one client connection. Sessions are not safe for concurrent
// use by multiple goroutines (like database/sql connections).
type Session struct {
	eng *Engine
	tx  *txState
	// costDebt accumulates simulated latency not yet slept. Sleeping in
	// quanta instead of per statement keeps timer jitter (which is
	// per-sleep and systematically positive) from swamping the model.
	costDebt time.Duration

	// prepared holds the session's open prepared statements by handle
	// (see prepare.go). Lazily allocated; handles die with the session.
	prepared map[int64]*preparedStmt
	nextStmt int64
}

// costQuantum is the minimum accumulated charge worth one real sleep.
const costQuantum = 2 * time.Millisecond

// txState is an open explicit transaction: an undo log replayed on
// rollback. Isolation is read-committed at statement granularity, which
// satisfies SQLoop's OLAP assumption (§IV-C).
type txState struct {
	undo []undoRec
}

type undoKind int

const (
	undoInsert undoKind = iota + 1
	undoUpdate
	undoDelete
)

type undoRec struct {
	kind  undoKind
	table *Table
	key   sqltypes.Key
	old   sqltypes.Row
}

// NewSession opens a connection to the engine.
func (e *Engine) NewSession() *Session { return &Session{eng: e} }

// Exec parses (through the statement cache) and executes one statement
// with optional bind parameters.
func (s *Session) Exec(sql string, args ...sqltypes.Value) (*Result, error) {
	st, _, progs, err := s.eng.cachedParse(sql)
	if err != nil {
		return nil, err
	}
	return s.execStmt(st, args, progs)
}

// ExecScript executes a semicolon-separated script, returning the result
// of the last statement.
func (s *Session) ExecScript(sql string) (*Result, error) {
	stmts, err := sqlparser.ParseAll(sql)
	if err != nil {
		return nil, err
	}
	var res *Result
	for _, st := range stmts {
		res, err = s.ExecStmt(st, nil)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ExecStmt executes an already-parsed statement.
func (s *Session) ExecStmt(st sqlparser.Statement, args []sqltypes.Value) (*Result, error) {
	return s.execStmt(st, args, nil)
}

// execStmt executes a parsed statement, optionally reusing compiled
// expression programs cached on its statement-cache entry.
func (s *Session) execStmt(st sqlparser.Statement, args []sqltypes.Value, progs *progCache) (*Result, error) {
	s.eng.closeMu.RLock()
	defer s.eng.closeMu.RUnlock()
	if s.eng.closed {
		return nil, ErrClosed
	}
	s.eng.stats.Statements.Add(1)
	start := time.Now()
	x := &executor{sess: s, eng: s.eng, args: args, progs: progs}
	res, err := x.run(st)
	x.chargeCost()
	if r := s.eng.metrics.Load(); r != nil {
		r.Counter("engine_statements_total").Inc()
		r.Histogram("engine_statement_seconds").Observe(time.Since(start))
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Begin opens an explicit transaction (no-op if one is open).
func (s *Session) begin() {
	if s.tx == nil {
		s.tx = &txState{}
	}
}

// commit closes the open transaction, discarding undo state.
func (s *Session) commit() { s.tx = nil }

// rollback undoes every mutation recorded in the open transaction.
func (s *Session) rollback() {
	if s.tx == nil {
		return
	}
	undo := s.tx.undo
	s.tx = nil
	touched := make(map[*Table]struct{})
	for i := len(undo) - 1; i >= 0; i-- {
		r := undo[i]
		touched[r.table] = struct{}{}
		r.table.mu.Lock()
		switch r.kind {
		case undoInsert:
			if row, ok := r.table.store.Get(r.key); ok {
				r.table.removeFromIndexes(r.key, row)
				r.table.store.Delete(r.key)
			}
		case undoUpdate:
			if row, ok := r.table.store.Get(r.key); ok {
				r.table.store.Update(r.key, r.old)
				r.table.reindex(r.key, row, r.old)
			}
		case undoDelete:
			if _, ok := r.table.store.Get(r.key); !ok {
				_ = r.table.store.Insert(r.key, r.old)
				r.table.addToIndexes(r.key, r.old)
			}
		}
		r.table.mu.Unlock()
	}
	// The undo writes themselves must be durable before anyone else sees
	// the rolled-back state.
	for t := range touched {
		t.mu.Lock()
		t.commitStore()
		t.mu.Unlock()
	}
}

// record notes a mutation for rollback if a transaction is open.
func (s *Session) record(r undoRec) {
	if s.tx != nil {
		s.tx.undo = append(s.tx.undo, r)
	}
}

func (t *Table) addToIndexes(pk sqltypes.Key, row sqltypes.Row) {
	for _, ix := range t.indexes {
		ix.add(pk, row)
	}
}

func (t *Table) removeFromIndexes(pk sqltypes.Key, row sqltypes.Row) {
	for _, ix := range t.indexes {
		ix.remove(pk, row)
	}
}

// reindex moves an updated row between buckets of the indexes whose
// column it changed; in the others it keeps its place.
func (t *Table) reindex(pk sqltypes.Key, old, row sqltypes.Row) {
	for _, ix := range t.indexes {
		ix.move(pk, old, row)
	}
}

// lockTables acquires the locks for the statement's read and write sets
// in a global order (by table name) to stay deadlock free, and returns
// an unlock func. Acquisitions that find a lock held by another
// connection are counted as lock waits, with the blocked time
// accumulated into Stats and the attached metrics registry.
func (e *Engine) lockTables(reads, writes []*Table) func() {
	type lk struct {
		t     *Table
		write bool
	}
	m := make(map[string]*lk, len(reads)+len(writes))
	for _, t := range reads {
		m[t.name] = &lk{t: t}
	}
	for _, t := range writes {
		if e, ok := m[t.name]; ok {
			e.write = true
		} else {
			m[t.name] = &lk{t: t, write: true}
		}
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	locked := make([]*lk, 0, len(names))
	for _, n := range names {
		l := m[n]
		// TryLock distinguishes contended acquisitions without taxing the
		// uncontended fast path.
		if l.write {
			if !l.t.mu.TryLock() {
				w := time.Now()
				l.t.mu.Lock()
				e.noteLockWait(time.Since(w))
			}
		} else {
			if !l.t.mu.TryRLock() {
				w := time.Now()
				l.t.mu.RLock()
				e.noteLockWait(time.Since(w))
			}
		}
		locked = append(locked, l)
	}
	return func() {
		for i := len(locked) - 1; i >= 0; i-- {
			if locked[i].write {
				// Statement boundary: a durable store's mutations become
				// crash-safe before the write lock is released, so no other
				// connection can observe rows a crash could take back.
				locked[i].t.commitStore()
				locked[i].t.mu.Unlock()
			} else {
				locked[i].t.mu.RUnlock()
			}
		}
	}
}

// commitStore commits the table's store when the backend is durable.
// Must be called with the table's write lock held. Storage I/O failure
// at a commit point is not recoverable mid-statement.
func (t *Table) commitStore() {
	if c, ok := t.store.(storage.Committer); ok {
		if err := c.Commit(); err != nil {
			panic(fmt.Sprintf("engine: commit of table %q failed: %v", t.name, err))
		}
	}
}

// noteLockWait records one contended lock acquisition.
func (e *Engine) noteLockWait(d time.Duration) {
	e.stats.LockWaits.Add(1)
	e.stats.LockWaitNanos.Add(int64(d))
	if r := e.metrics.Load(); r != nil {
		r.Counter("engine_lock_waits_total").Inc()
		r.Histogram("engine_lock_wait_seconds").Observe(d)
	}
}

// CostModel converts logical work into simulated per-connection latency.
// It stands in for the paper's 32-core database server: each connection
// is charged wall-clock time proportional to the rows it touched, and
// the charges of different connections overlap (they sleep
// independently), exactly as separate server processes would.
type CostModel struct {
	PerStatement time.Duration // fixed per-statement overhead (round trip, parse, plan)
	PerRowScan   time.Duration
	PerRowJoin   time.Duration
	PerRowGroup  time.Duration
	PerRowWrite  time.Duration // insert/update/delete
	// Scale multiplies every charge; profiles use it to reflect the
	// relative speeds the paper observed across engines.
	Scale float64
}

// DefaultCost returns the calibrated cost model for a profile. The
// relative scales follow the paper's Fig. 4–6 ordering: the PostgreSQL
// profile is fastest, MariaDB next, MySQL slowest.
func DefaultCost(d sqlparser.Dialect) *CostModel {
	scale := 1.0
	switch d {
	case sqlparser.DialectMySim:
		scale = 3.0
	case sqlparser.DialectMariaSim:
		scale = 2.2
	}
	// Magnitudes follow measured row-at-a-time executor throughputs of
	// the simulated engines (roughly a microsecond per row through a
	// join, a couple hundred microseconds per statement round trip), so
	// per-row work dominates per-statement overhead at realistic
	// partition sizes — as it did on the paper's testbed.
	return &CostModel{
		PerStatement: 150 * time.Microsecond,
		PerRowScan:   800 * time.Nanosecond,
		PerRowJoin:   1500 * time.Nanosecond,
		PerRowGroup:  800 * time.Nanosecond,
		PerRowWrite:  2 * time.Microsecond,
		Scale:        scale,
	}
}

// charge computes the latency for the given work counters.
func (c *CostModel) charge(w workCounters) time.Duration {
	if c == nil {
		return 0
	}
	d := c.PerStatement +
		time.Duration(w.scanned)*c.PerRowScan +
		time.Duration(w.joined)*c.PerRowJoin +
		time.Duration(w.grouped)*c.PerRowGroup +
		time.Duration(w.written)*c.PerRowWrite
	if c.Scale > 0 {
		d = time.Duration(float64(d) * c.Scale)
	}
	return d
}

// workCounters tallies one statement's logical work.
type workCounters struct {
	scanned, joined, grouped, written int64
}

// ErrTableNotFound is returned when a statement references a missing
// table or view.
type ErrTableNotFound struct{ Name string }

func (e *ErrTableNotFound) Error() string {
	return fmt.Sprintf("engine: table or view %q does not exist", e.Name)
}

// ErrColumnNotFound is returned when an expression references an unknown
// column.
type ErrColumnNotFound struct{ Name string }

func (e *ErrColumnNotFound) Error() string {
	return fmt.Sprintf("engine: column %q does not exist", e.Name)
}
