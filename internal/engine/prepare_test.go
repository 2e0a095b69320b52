package engine

import (
	"fmt"
	"testing"

	"sqloop/internal/obs"
)

// TestPreparedDDLStalenessAcrossBackends prepares a statement, replaces
// the table underneath it, and re-executes the handle on every storage
// backend: the post-DDL execution must see the new catalog, never a
// pre-DDL plan.
func TestPreparedDDLStalenessAcrossBackends(t *testing.T) {
	for _, profile := range []string{"pgsim", "mysim", "mariasim"} {
		t.Run(profile, func(t *testing.T) {
			cfg, err := Profile(profile)
			if err != nil {
				t.Fatal(err)
			}
			eng := New(cfg)
			s := eng.NewSession()
			mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`)
			mustExec(t, s, `INSERT INTO t VALUES (1, 10)`)
			id, err := s.Prepare(`SELECT v FROM t WHERE id = 1`)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.ExecPrepared(id, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Rows[0][0].Int(); got != 10 {
				t.Fatalf("pre-DDL value = %d, want 10", got)
			}

			objGen := eng.ObjectGen("t")
			mustExec(t, s, `DROP TABLE t`)
			mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`)
			mustExec(t, s, `INSERT INTO t VALUES (1, 20)`)
			if eng.ObjectGen("t") == objGen {
				t.Fatal("DROP+CREATE of t did not bump its object generation")
			}
			res, err = s.ExecPrepared(id, nil)
			if err != nil {
				t.Fatalf("prepared handle after DDL: %v", err)
			}
			if got := res.Rows[0][0].Int(); got != 20 {
				t.Fatalf("post-DDL value = %d, want 20 (stale plan served?)", got)
			}
		})
	}
}

// TestStmtCacheSurvivesUnrelatedDDL is the relcache property: DDL on
// one object must not invalidate cached statements over another —
// that's what keeps the cache effective while iterative executions
// churn their working tables.
func TestStmtCacheSurvivesUnrelatedDDL(t *testing.T) {
	eng := New(Config{})
	s := eng.NewSession()
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 10)`)
	mustExec(t, s, `SELECT v FROM t`) // miss: fills the cache

	before := eng.StmtCacheStats()
	mustExec(t, s, `CREATE TABLE other (id BIGINT PRIMARY KEY)`)
	mustExec(t, s, `SELECT v FROM t`)
	after := eng.StmtCacheStats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("hits %d -> %d: DDL on `other` invalidated a statement over `t`",
			before.Hits, after.Hits)
	}

	// DDL on t itself (an index changes how its statements would plan)
	// must invalidate: the next execution re-parses.
	mustExec(t, s, `CREATE INDEX t_v ON t (v)`)
	mustExec(t, s, `SELECT v FROM t`)
	final := eng.StmtCacheStats()
	if final.Hits != after.Hits {
		t.Fatalf("hits %d -> %d: DDL on t did not invalidate its cached statement",
			after.Hits, final.Hits)
	}
	if final.Misses <= after.Misses {
		t.Fatalf("misses %d -> %d: expected a re-parse after DDL on t",
			after.Misses, final.Misses)
	}
}

// TestStmtCacheEvictionAndMetrics exercises the LRU bound and the
// sqloop_stmt_cache_* counters.
func TestStmtCacheEvictionAndMetrics(t *testing.T) {
	eng := New(Config{StmtCacheSize: 2})
	reg := obs.NewRegistry()
	eng.SetMetrics(reg)
	s := eng.NewSession()
	mustExec(t, s, `CREATE TABLE t (a BIGINT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)
	mustExec(t, s, `SELECT a FROM t`)
	mustExec(t, s, `SELECT a FROM t`) // hit
	for i := 0; i < 4; i++ {
		mustExec(t, s, fmt.Sprintf(`SELECT a + %d FROM t`, i)) // distinct texts force eviction
	}
	st := eng.StmtCacheStats()
	if st.Size > 2 {
		t.Fatalf("cache size = %d, exceeds configured max 2", st.Size)
	}
	if st.Hits < 1 || st.Misses < 6 || st.Evictions < 4 {
		t.Fatalf("stats = %+v, want >=1 hit, >=6 misses, >=4 evictions", st)
	}
	if got := reg.Counter("sqloop_stmt_cache_hits").Value(); got != st.Hits {
		t.Errorf("sqloop_stmt_cache_hits = %d, stats say %d", got, st.Hits)
	}
	if got := reg.Counter("sqloop_stmt_cache_misses").Value(); got != st.Misses {
		t.Errorf("sqloop_stmt_cache_misses = %d, stats say %d", got, st.Misses)
	}
	if got := reg.Counter("sqloop_stmt_cache_evictions").Value(); got != st.Evictions {
		t.Errorf("sqloop_stmt_cache_evictions = %d, stats say %d", got, st.Evictions)
	}
	if hr := st.HitRate(); hr <= 0 || hr >= 1 {
		t.Errorf("hit rate = %v, want in (0, 1)", hr)
	}
}

// TestStmtCacheDisabled checks the escape hatch: a negative size turns
// caching off entirely (stats stay zero) while prepared handles — and
// their DDL revalidation — keep working.
func TestStmtCacheDisabled(t *testing.T) {
	eng := New(Config{StmtCacheSize: -1})
	s := eng.NewSession()
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 1)`)
	mustExec(t, s, `SELECT v FROM t`)
	mustExec(t, s, `SELECT v FROM t`)
	if st := eng.StmtCacheStats(); st != (StmtCacheStats{}) {
		t.Fatalf("disabled cache reported stats %+v", st)
	}

	id, err := s.Prepare(`SELECT v FROM t WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `DROP TABLE t`)
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 2)`)
	res, err := s.ExecPrepared(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 2 {
		t.Fatalf("post-DDL value = %d, want 2", got)
	}
	if st := eng.StmtCacheStats(); st != (StmtCacheStats{}) {
		t.Fatalf("disabled cache reported stats %+v after prepared execution", st)
	}
}

// TestStmtCacheOneShotsStayOnProbation runs rounds of a few repeated
// templates among many statements that each run once: the one-shots
// pass through the small probation segment without evicting the
// templates, which hit from their third round on (the second brings
// them back from the ghost set straight into the protected segment).
func TestStmtCacheOneShotsStayOnProbation(t *testing.T) {
	eng := New(Config{StmtCacheSize: 16})
	s := eng.NewSession()
	mustExec(t, s, `CREATE TABLE t (a BIGINT)`)
	oneShot := 0
	round := func() {
		for k := 1; k <= 4; k++ {
			mustExec(t, s, fmt.Sprintf(`SELECT a FROM t WHERE a = %d`, k))
		}
		for i := 0; i < 20; i++ {
			oneShot++
			mustExec(t, s, fmt.Sprintf(`SELECT a + %d FROM t`, oneShot))
		}
	}
	round()
	round()
	before := eng.StmtCacheStats()
	for r := 0; r < 3; r++ {
		round()
	}
	st := eng.StmtCacheStats()
	if hits := st.Hits - before.Hits; hits != 12 {
		t.Errorf("template hits over three rounds = %d, want 12", hits)
	}
	if st.Size > 16 {
		t.Errorf("cache size = %d, exceeds configured max 16", st.Size)
	}
}

// TestDroppedObjectsForgetTheirGenerations creates and drops a table
// and its index per round, as an iterative execution does with its
// message tables: the generation counters of dropped objects go with
// them, and a statement cached over a dropped table still re-parses
// once a table of that name exists again.
func TestDroppedObjectsForgetTheirGenerations(t *testing.T) {
	eng := New(Config{})
	s := eng.NewSession()
	counters := func() int {
		n := 0
		eng.objGens.Range(func(any, any) bool { n++; return true })
		return n
	}
	for i := 0; i < 100; i++ {
		mustExec(t, s, fmt.Sprintf(`CREATE TABLE msg%d (id BIGINT, part BIGINT)`, i))
		mustExec(t, s, fmt.Sprintf(`CREATE INDEX msg%d_part ON msg%d (part)`, i, i))
		mustExec(t, s, fmt.Sprintf(`SELECT id FROM msg%d WHERE part = 1`, i))
		mustExec(t, s, fmt.Sprintf(`DROP TABLE msg%d`, i))
	}
	if n := counters(); n != 0 {
		t.Errorf("%d generation counters left after dropping every table", n)
	}

	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 10)`)
	mustExec(t, s, `SELECT v FROM t`)
	mustExec(t, s, `DROP TABLE t`)
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, w BIGINT, v BIGINT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 7, 20)`)
	before := eng.StmtCacheStats()
	res := mustExec(t, s, `SELECT v FROM t`)
	if got := res.Rows[0][0].Int(); got != 20 {
		t.Fatalf("v = %d after re-creating t, want 20", got)
	}
	if eng.StmtCacheStats().Hits != before.Hits {
		t.Error("statement cached over the dropped t was served without re-parsing")
	}
}
