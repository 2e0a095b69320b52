package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"sqloop/internal/driver"
	"sqloop/internal/engine"
)

// TestStmtCacheOnOffResultsIdentical runs the same SSSP computation with
// the statement cache enabled and disabled across every engine profile
// and execution mode: the cache is a pure performance layer, so the fix
// points must match exactly (SSSP converges to a unique fix point even
// under asynchronous schedules).
func TestStmtCacheOnOffResultsIdentical(t *testing.T) {
	want := refSSSP()
	for _, profile := range []string{"pgsim", "mysim", "mariasim"} {
		for _, mode := range allModes {
			t.Run(fmt.Sprintf("%s/%s", profile, mode), func(t *testing.T) {
				cfg, err := engine.Profile(profile)
				if err != nil {
					t.Fatal(err)
				}
				run := func(disable bool) map[int64]float64 {
					t.Helper()
					c := cfg
					opts := Options{Mode: mode, Threads: 3, Partitions: 4, Dialect: cfg.Dialect.String()}
					if disable {
						c.StmtCacheSize = -1
						opts.DisableStmtCache = true
					}
					s := newTestLoopCfg(t, c, opts, false)
					res, err := s.Exec(context.Background(), ssspCTE)
					if err != nil {
						t.Fatalf("disable=%v: %v", disable, err)
					}
					return rowsToMap(t, res)
				}
				on, off := run(false), run(true)
				if len(on) != len(off) || len(on) != len(want) {
					t.Fatalf("node counts: cache on %d, off %d, ref %d", len(on), len(off), len(want))
				}
				for n, v := range on {
					if o := off[n]; v != o {
						t.Errorf("node %d: cache on %v != cache off %v", n, v, o)
					}
					if w := want[n]; math.IsInf(w, 1) != math.IsInf(v, 1) ||
						(!math.IsInf(w, 1) && math.Abs(v-w) > 1e-9) {
						t.Errorf("node %d: distance %v, want %v", n, v, w)
					}
				}
			})
		}
	}
}

// TestIterativeRunHitsStmtCache pins the headline property of this PR:
// steady-state iteration rounds execute without DDL, so round statements
// stay cached and hit after round one.
func TestIterativeRunHitsStmtCache(t *testing.T) {
	eng := engine.New(engine.Config{})
	handle := t.Name()
	driver.RegisterEngine(handle, eng)
	t.Cleanup(func() { driver.UnregisterEngine(handle) })
	s, err := Open(driver.DriverName, driver.InprocDSN(handle), Options{Mode: ModeSingle})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ctx := context.Background()
	if _, err := s.Exec(ctx, `CREATE TABLE edges (src BIGINT, dst BIGINT, weight DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	for _, e := range testGraph {
		if _, err := s.Exec(ctx, fmt.Sprintf(`INSERT INTO edges VALUES (%d, %d, %v)`, e.src, e.dst, e.w)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Exec(ctx, ssspCTE); err != nil {
		t.Fatal(err)
	}
	st := eng.StmtCacheStats()
	if st.Hits == 0 {
		t.Fatalf("iterative run produced no statement-cache hits: %+v", st)
	}
}

// TestConnPreparesOnSecondUse pins the connection-level statement
// cache: a text's first execution goes direct, its second prepares and
// caches it, and later ones reuse the handle; the set of texts seen
// once stays bounded.
func TestConnPreparesOnSecondUse(t *testing.T) {
	eng := engine.New(engine.Config{})
	handle := t.Name()
	driver.RegisterEngine(handle, eng)
	t.Cleanup(func() { driver.UnregisterEngine(handle) })
	s, err := Open(driver.DriverName, driver.InprocDSN(handle), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ctx := context.Background()
	conn, err := s.db.Conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := s.newConn(conn)
	defer c.closeStmts()
	for i := 0; i < 3; i++ {
		if _, err := c.query(ctx, "SELECT 1"); err != nil {
			t.Fatal(err)
		}
		if got, want := c.stmts.lru.Len(), min(i, 1); got != want {
			t.Fatalf("after run %d: %d prepared statements, want %d", i+1, got, want)
		}
	}
	snap := s.Metrics().Snapshot()
	if hits, misses := snap.Counters["sqloop_conn_stmt_cache_hits"], snap.Counters["sqloop_conn_stmt_cache_misses"]; hits != 1 || misses != 2 {
		t.Errorf("conn cache hits/misses = %d/%d, want 1/2", hits, misses)
	}

	for i := 0; i < 10*dbConnStmtCacheSize; i++ {
		if _, err := c.query(ctx, fmt.Sprintf("SELECT %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(c.stmts.seen); n > 4*dbConnStmtCacheSize || len(c.stmts.seenLog) > 4*dbConnStmtCacheSize {
		t.Errorf("remembers %d texts seen once, bound %d", n, 4*dbConnStmtCacheSize)
	}
	if n := c.stmts.lru.Len(); n != 1 {
		t.Errorf("%d prepared statements after one-shot texts, want 1", n)
	}
}
