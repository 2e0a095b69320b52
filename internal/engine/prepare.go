package engine

import (
	"container/list"
	"fmt"
	"hash/maphash"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sqloop/internal/sqlparser"
	"sqloop/internal/sqltypes"
)

// This file implements prepared statements and the parse cache behind
// them. SQLoop's executors send the same statement templates every
// round — only bind values change — so the engine keeps the parsed form
// of recent statements in a bounded cache (see stmtCache) keyed by
// (dialect, SQL text) and lets sessions pin a statement once (Prepare)
// and re-execute it by handle (ExecPrepared). Cached ASTs are shared
// read-only across sessions; the executor never mutates a statement it
// runs.
//
// Invalidation is relcache-style, per catalog object: every DDL bumps a
// generation counter for each object it touches (plus a whole-catalog
// generation), and a cached entry records the generations of the
// objects its statement references. The entry is served only while all
// of them are current, so a handle prepared before a DDL never replays
// a pre-DDL plan against the post-DDL catalog — while statements that
// don't reference the changed object survive. That distinction is what
// makes the cache effective for iterative queries: dropping or
// re-creating a per-round working table must not flush the
// loop-invariant round templates.
//
// Statements whose dependency set can't be derived (iterative CTEs and
// other compound forms) fall back to the whole-catalog generation:
// conservative, never stale. Pure DDL statements (CREATE/DROP/TRUNCATE
// and friends) carry an empty dependency set — their cached form is
// just the parse tree, which no catalog change can invalidate — so
// per-round snapshot churn like DROP TABLE delta; CREATE TABLE delta AS
// ... hits the cache from its second execution.

// defaultStmtCacheSize bounds the parse cache when Config.StmtCacheSize
// is zero.
const defaultStmtCacheSize = 512

// stmtKey identifies one cache entry. The dialect is part of the key so
// engines sharing SQL text across profiles can never serve each other's
// plans (cache keys follow the ISSUE's (dialect, SQL text) contract even
// though one Engine instance has a single dialect).
type stmtKey struct {
	dialect sqlparser.Dialect
	sql     string
}

// depSnapshot records what a cached parse depends on: the lowercased
// catalog objects the statement references with the generation each had
// when the snapshot was taken. names == nil means the dependency set
// could not be derived and `global` holds the whole-catalog fallback; a
// non-nil empty names slice means the statement depends on nothing and
// is always valid.
type depSnapshot struct {
	names  []string
	gens   []uint64
	global uint64
}

// stmtCacheEntry is one cached parse: the statement and the catalog
// dependencies it was validated under.
type stmtCacheEntry struct {
	key  stmtKey
	st   sqlparser.Statement
	deps depSnapshot
	// progs collects the compiled expression programs of this statement
	// (see compile.go); it lives and dies with the entry, so DDL
	// invalidation discards programs along with the parse.
	progs *progCache
	// reused marks an entry in the protected segment (see stmtCache).
	reused bool
}

// stmtCache is the bounded, mutex-guarded statement cache, a 2Q-style
// segmented LRU. A new entry starts on a short probation and moves to
// the protected segment on its first hit; an entry evicted from
// probation leaves a hash of its key behind, so a statement that comes
// back after a long gap — a round template, re-sent once per round —
// is admitted straight to the protected segment. Statements that run
// once (those naming a per-round working table, or carrying their rows
// as literals) thus never hold more than the probation's few slots,
// whose parse trees would otherwise pin most of the cache's memory.
type stmtCache struct {
	mu        sync.Mutex
	max       int
	probation *list.List // entries not hit since they were cached; front = most recent
	protected *list.List // entries hit at least once; front = most recent
	m         map[stmtKey]*list.Element
	ghosts    map[uint64]bool // hashes of keys evicted from probation
	ghostLog  []uint64        // ghosts in eviction order, at most 4*max

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

func newStmtCache(max int) *stmtCache {
	return &stmtCache{max: max, probation: list.New(), protected: list.New(),
		m: make(map[stmtKey]*list.Element), ghosts: make(map[uint64]bool)}
}

// ghostSeed hashes evicted keys for the ghost set.
var ghostSeed = maphash.MakeSeed()

// probationMax bounds the probation segment: an eighth of the cache, at
// least one entry.
func (c *stmtCache) probationMax() int { return max(1, c.max/8) }

// segment is the list holding ent.
func (c *stmtCache) segment(ent *stmtCacheEntry) *list.List {
	if ent.reused {
		return c.protected
	}
	return c.probation
}

// touch records a hit: a protected entry moves to the front, a
// probation entry is promoted. Caller holds c.mu.
func (c *stmtCache) touch(e *Engine, el *list.Element) {
	ent := el.Value.(*stmtCacheEntry)
	if ent.reused {
		c.protected.MoveToFront(el)
		return
	}
	c.probation.Remove(el)
	c.protect(e, ent)
}

// add caches a freshly parsed statement: on probation, or protected when
// its key was evicted from probation recently. Caller holds c.mu.
func (c *stmtCache) add(e *Engine, ent *stmtCacheEntry) {
	if h := maphash.String(ghostSeed, ent.key.sql); c.ghosts[h] {
		delete(c.ghosts, h)
		c.protect(e, ent)
		return
	}
	c.m[ent.key] = c.probation.PushFront(ent)
	c.evict(e)
}

// protect puts ent at the front of the protected segment, demoting that
// segment's least recent entry to probation when it is full. Caller
// holds c.mu.
func (c *stmtCache) protect(e *Engine, ent *stmtCacheEntry) {
	ent.reused = true
	c.m[ent.key] = c.protected.PushFront(ent)
	if c.protected.Len() > c.max-c.probationMax() {
		old := c.protected.Remove(c.protected.Back()).(*stmtCacheEntry)
		old.reused = false
		c.m[old.key] = c.probation.PushFront(old)
		c.evict(e)
	}
}

// evict trims the probation segment to its bound, remembering each
// evicted key as a ghost. Caller holds c.mu.
func (c *stmtCache) evict(e *Engine) {
	for c.probation.Len() > c.probationMax() {
		old := c.probation.Remove(c.probation.Back()).(*stmtCacheEntry)
		delete(c.m, old.key)
		h := maphash.String(ghostSeed, old.key.sql)
		c.ghosts[h] = true
		if c.ghostLog = append(c.ghostLog, h); len(c.ghostLog) > 4*c.max {
			delete(c.ghosts, c.ghostLog[0])
			c.ghostLog = c.ghostLog[1:]
		}
		c.evictions.Add(1)
		if r := e.metrics.Load(); r != nil {
			r.Counter("sqloop_stmt_cache_evictions").Inc()
		}
	}
}

// StmtCacheStats is a point-in-time view of the statement cache.
type StmtCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Size      int
}

// HitRate is hits / (hits + misses), 0 with no traffic.
func (s StmtCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// StmtCacheStats reports the statement cache counters (zero when the
// cache is disabled).
func (e *Engine) StmtCacheStats() StmtCacheStats {
	c := e.stmts
	if c == nil {
		return StmtCacheStats{}
	}
	c.mu.Lock()
	size := c.probation.Len() + c.protected.Len()
	c.mu.Unlock()
	return StmtCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Size:      size,
	}
}

// CatalogGen exposes the whole-catalog generation (tests and
// diagnostics).
func (e *Engine) CatalogGen() uint64 { return e.catalogGen.Load() }

// ObjectGen exposes one object's generation (tests and diagnostics).
func (e *Engine) ObjectGen(name string) uint64 {
	return e.objGen(strings.ToLower(name)).Load()
}

// noteDDL marks a catalog change to the named objects (lowercased by
// the caller or here — both are safe), invalidating every cached
// statement that references them plus all global-fallback entries.
// Each named object takes the new catalog generation as its own, so an
// object's generation is never reused and never zero once DDL named it.
func (e *Engine) noteDDL(names ...string) {
	g := e.catalogGen.Add(1)
	for _, n := range names {
		e.objGen(strings.ToLower(n)).Store(g)
	}
}

// forgetObjects drops the generation counters of dropped objects, so
// an execution that creates and drops a table per round does not grow
// the counter map without bound. Call it after noteDDL for the same
// names. A counter made later for the name starts at zero, which no
// entry cached while the object existed holds unless it predates any
// DDL on the name; such an entry only finds the object missing again.
func (e *Engine) forgetObjects(names ...string) {
	for _, n := range names {
		e.objGens.Delete(strings.ToLower(n))
	}
}

// objGen returns the generation counter for one lowercased object name,
// creating it on first sight.
func (e *Engine) objGen(lc string) *atomic.Uint64 {
	if v, ok := e.objGens.Load(lc); ok {
		return v.(*atomic.Uint64)
	}
	v, _ := e.objGens.LoadOrStore(lc, new(atomic.Uint64))
	return v.(*atomic.Uint64)
}

// snapshotDeps captures the current generations of everything st
// references.
func (e *Engine) snapshotDeps(st sqlparser.Statement) depSnapshot {
	ds := depSnapshot{global: e.catalogGen.Load()}
	if names, ok := stmtObjects(st); ok {
		ds.names = names
		ds.gens = make([]uint64, len(names))
		for i, n := range names {
			ds.gens[i] = e.objGen(n).Load()
		}
	}
	return ds
}

// depsValid reports whether a snapshot is still current.
func (e *Engine) depsValid(ds depSnapshot) bool {
	if ds.names == nil {
		return ds.global == e.catalogGen.Load()
	}
	for i, n := range ds.names {
		if e.objGen(n).Load() != ds.gens[i] {
			return false
		}
	}
	return true
}

// stmtObjects derives the catalog objects a statement references
// (lowercased, sorted, deduplicated). ok == false means the statement
// form isn't modeled and the caller must fall back to whole-catalog
// invalidation. DDL targets themselves are excluded: the cached
// artifact is the parse tree, and CREATE/DROP of the target doesn't
// change how its own statement parses — only statements that *read*
// the object care.
func stmtObjects(st sqlparser.Statement) ([]string, bool) {
	set := make(map[string]struct{})
	add := func(name string) {
		if name != "" {
			set[strings.ToLower(name)] = struct{}{}
		}
	}
	ok := true
	switch s := st.(type) {
	case *sqlparser.SelectStmt:
		for _, cte := range s.With {
			depsBody(cte.Body, add)
		}
		depsBody(s.Body, add)
		// Plain CTE names shadow catalog objects within the statement.
		for _, cte := range s.With {
			delete(set, strings.ToLower(cte.Name))
		}
	case *sqlparser.InsertStmt:
		add(s.Table)
		depsBody(s.Source, add)
	case *sqlparser.UpdateStmt:
		add(s.Table)
		for _, te := range s.From {
			depsTE(te, add)
		}
		for _, a := range s.Sets {
			depsExpr(a.Value, add)
		}
		depsExpr(s.Where, add)
	case *sqlparser.DeleteStmt:
		add(s.Table)
		depsExpr(s.Where, add)
	case *sqlparser.CreateTableStmt:
		depsBody(s.AsSelect, add) // CTAS reads its sources; plain CREATE has none
	case *sqlparser.CreateViewStmt:
		depsBody(s.Body, add)
	case *sqlparser.CreateIndexStmt, *sqlparser.DropStmt, *sqlparser.TruncateStmt, *sqlparser.TxStmt:
		// Parse-stable regardless of catalog state: no dependencies.
	default:
		ok = false
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, ok
}

// depsBody collects table/view references from a select body, including
// derived tables, join trees and expression subqueries (WalkTableExprs
// alone misses the latter two classes).
func depsBody(b sqlparser.SelectBody, add func(string)) {
	switch s := b.(type) {
	case nil:
	case *sqlparser.Select:
		for _, te := range s.From {
			depsTE(te, add)
		}
		for _, it := range s.Items {
			depsExpr(it.Expr, add)
		}
		depsExpr(s.Where, add)
		for _, g := range s.GroupBy {
			depsExpr(g, add)
		}
		depsExpr(s.Having, add)
		for _, o := range s.OrderBy {
			depsExpr(o.Expr, add)
		}
	case *sqlparser.SetOp:
		depsBody(s.Left, add)
		depsBody(s.Right, add)
	case *sqlparser.Values:
		for _, row := range s.Rows {
			for _, e := range row {
				depsExpr(e, add)
			}
		}
	}
}

// depsTE collects references from one table expression.
func depsTE(te sqlparser.TableExpr, add func(string)) {
	switch t := te.(type) {
	case nil:
	case *sqlparser.TableName:
		add(t.Name)
	case *sqlparser.SubqueryTable:
		depsBody(t.Body, add)
	case *sqlparser.JoinExpr:
		depsTE(t.Left, add)
		depsTE(t.Right, add)
		depsExpr(t.On, add)
	}
}

// depsExpr collects references from subqueries inside an expression.
// WalkExpr does not descend into subquery bodies, so those are handled
// explicitly before recursing over scalar children.
func depsExpr(e sqlparser.Expr, add func(string)) {
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		switch v := x.(type) {
		case *sqlparser.Subquery:
			depsBody(v.Body, add)
		case *sqlparser.ExistsExpr:
			depsBody(v.Body, add)
		case *sqlparser.InExpr:
			depsBody(v.Sub, add) // List items are walked by WalkExpr itself
		}
		return true
	})
}

// cachedParse parses sql through the statement cache and reports the
// dependency snapshot the result is valid under, plus the entry's
// compiled-program cache. With the statement cache disabled it degrades
// to a plain parse with a statement-local program cache.
func (e *Engine) cachedParse(sql string) (sqlparser.Statement, depSnapshot, *progCache, error) {
	// A failed disk-catalog recovery must not look like an empty engine:
	// statements could then silently re-create (and wipe) tables whose
	// data is still on disk. Fail every statement instead.
	if err := e.recoverErr; err != nil {
		return nil, depSnapshot{}, nil, fmt.Errorf("engine: disk catalog recovery failed: %w", err)
	}
	c := e.stmts
	if c == nil {
		st, err := sqlparser.Parse(sql)
		if err != nil {
			return nil, depSnapshot{}, nil, err
		}
		return st, e.snapshotDeps(st), newProgCache(), nil
	}
	key := stmtKey{dialect: e.cfg.Dialect, sql: sql}
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		ent := el.Value.(*stmtCacheEntry)
		if e.depsValid(ent.deps) {
			c.touch(e, el)
			c.mu.Unlock()
			c.hits.Add(1)
			if r := e.metrics.Load(); r != nil {
				r.Counter("sqloop_stmt_cache_hits").Inc()
			}
			return ent.st, ent.deps, ent.progs, nil
		}
		// Stale dependencies: drop the entry and re-parse below. This is
		// the DDL-invalidation miss.
		c.segment(ent).Remove(el)
		delete(c.m, key)
	}
	c.mu.Unlock()

	st, err := sqlparser.Parse(sql)
	if err != nil {
		// Parse failures are not cached: the error path is cold and a
		// poisoned entry could mask a later fix of a generated statement.
		return nil, depSnapshot{}, nil, err
	}
	deps := e.snapshotDeps(st)
	progs := newProgCache()
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		// Another session cached the same statement while we parsed:
		// share its AST and programs instead of splitting the cache.
		ent := el.Value.(*stmtCacheEntry)
		st, deps, progs = ent.st, ent.deps, ent.progs
	} else {
		c.add(e, &stmtCacheEntry{key: key, st: st, deps: deps, progs: progs})
	}
	c.mu.Unlock()
	c.misses.Add(1)
	if r := e.metrics.Load(); r != nil {
		r.Counter("sqloop_stmt_cache_misses").Inc()
	}
	return st, deps, progs, nil
}

// preparedStmt is one session-held prepared statement.
type preparedStmt struct {
	sql   string
	st    sqlparser.Statement
	deps  depSnapshot
	progs *progCache
}

// Prepare parses (through the cache) and pins a statement, returning a
// session-scoped handle for ExecPrepared. Handles die with the session.
func (s *Session) Prepare(sql string) (int64, error) {
	st, deps, progs, err := s.eng.cachedParse(sql)
	if err != nil {
		return 0, err
	}
	if s.prepared == nil {
		s.prepared = make(map[int64]*preparedStmt)
	}
	s.nextStmt++
	s.prepared[s.nextStmt] = &preparedStmt{sql: sql, st: st, deps: deps, progs: progs}
	return s.nextStmt, nil
}

// ExecPrepared executes a prepared handle with the given bind args. If
// any DDL touched an object the statement references since it was
// prepared (or last revalidated), the statement is re-parsed against
// the current catalog first, so a stale plan is never served. A
// still-valid re-execution counts as a cache hit: the handle served a
// statement without parsing, which is exactly what the hit/miss ratio
// is meant to measure.
func (s *Session) ExecPrepared(id int64, args []sqltypes.Value) (*Result, error) {
	ps, ok := s.prepared[id]
	if !ok {
		return nil, fmt.Errorf("engine: unknown prepared statement %d", id)
	}
	if s.eng.depsValid(ps.deps) {
		if c := s.eng.stmts; c != nil {
			c.hits.Add(1)
			if r := s.eng.metrics.Load(); r != nil {
				r.Counter("sqloop_stmt_cache_hits").Inc()
			}
		}
	} else {
		st, deps, progs, err := s.eng.cachedParse(ps.sql)
		if err != nil {
			return nil, err
		}
		ps.st, ps.deps, ps.progs = st, deps, progs
	}
	return s.execStmt(ps.st, args, ps.progs)
}

// ClosePrepared releases a handle. Closing an unknown handle is an
// error so protocol bugs surface instead of leaking.
func (s *Session) ClosePrepared(id int64) error {
	if _, ok := s.prepared[id]; !ok {
		return fmt.Errorf("engine: unknown prepared statement %d", id)
	}
	delete(s.prepared, id)
	return nil
}

// PreparedCount reports the session's live handles (tests).
func (s *Session) PreparedCount() int { return len(s.prepared) }
