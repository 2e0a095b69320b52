package engine

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"sqloop/internal/obs"
	"sqloop/internal/pager"
	"sqloop/internal/sqltypes"
	"sqloop/internal/storage"
	"sqloop/internal/vec"
)

// lowerMorsels shrinks the morsel granule to one batch window so the
// parallel path engages on test-sized fixtures, restoring it on cleanup.
// Tests using it must not run in parallel with each other.
func lowerMorsels(t *testing.T) {
	t.Helper()
	old := morselRows
	morselRows = vec.BatchSize
	t.Cleanup(func() { morselRows = old })
}

// parRowsBig is sized to span several lowered morsels (> 2*1024 rows).
const parRowsBig = 3000

// loadParCorpus loads the large-fixture tables the worker-count sweep
// runs over: big (NULL rows, exact-binary floats, repeated group keys)
// and dim (duplicate and NULL join keys, itself above the parallel
// build threshold).
func loadParCorpus(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE big (id BIGINT PRIMARY KEY, a BIGINT, f DOUBLE, name TEXT, flag BOOLEAN)`)
	for i := 0; i < parRowsBig; i++ {
		if i%97 == 0 {
			mustExec(t, s, `INSERT INTO big VALUES (?, NULL, NULL, NULL, NULL)`, sqltypes.NewInt(int64(i)))
			continue
		}
		mustExec(t, s, `INSERT INTO big VALUES (?, ?, ?, ?, ?)`,
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i%61)),
			sqltypes.NewFloat(float64(i%13)*0.5), sqltypes.NewString(fmt.Sprintf("n_%d", i%50)),
			sqltypes.NewBool(i%3 == 0))
	}
	mustExec(t, s, `CREATE TABLE dim (a BIGINT, label TEXT)`)
	for i := 0; i < 2500; i++ {
		if i%500 == 250 {
			mustExec(t, s, `INSERT INTO dim VALUES (NULL, 'none')`)
			continue
		}
		mustExec(t, s, `INSERT INTO dim VALUES (?, ?)`,
			sqltypes.NewInt(int64(i%1250)), sqltypes.NewString(fmt.Sprintf("d_%d", i%40)))
	}
}

// parCorpus exercises every parallel region (filter, projection,
// grouping, join build, join probe) plus the stages downstream of the
// reassembled morsels (DISTINCT, ORDER BY, HAVING, LIMIT). Queries
// without ORDER BY pin the morsel-order reassembly contract: output row
// and group order must match serial execution exactly.
var parCorpus = []string{
	// Filters through the batch kernels.
	`SELECT id, a FROM big WHERE a * 2 + 1 > 40 ORDER BY id`,
	`SELECT id FROM big WHERE a IS NULL ORDER BY id`,
	`SELECT id FROM big WHERE flag OR a > 55 ORDER BY id`,
	`SELECT id FROM big WHERE name LIKE 'n_1%' ORDER BY id`,
	`SELECT COUNT(*) FROM big WHERE f BETWEEN 1.0 AND 4.5`,
	`SELECT id, a FROM big WHERE a % 7 = 3`, // no ORDER BY: raw morsel order
	// Projections.
	`SELECT id, a * 2, f + 0.5, name FROM big ORDER BY id LIMIT 50`,
	`SELECT id, CASE WHEN a > 30 THEN 'hi' ELSE 'lo' END, COALESCE(a, -1) FROM big ORDER BY id LIMIT 40 OFFSET 2950`,
	`SELECT id, a FROM big`, // full projection, raw morsel order
	// Grouping: NULL keys, expression keys, floats, HAVING, DISTINCT agg.
	`SELECT a, COUNT(*), SUM(f) FROM big GROUP BY a ORDER BY 1`,
	`SELECT a % 7, MIN(f), MAX(f), AVG(f) FROM big WHERE a IS NOT NULL GROUP BY a % 7 ORDER BY 1`,
	`SELECT a, COUNT(*) FROM big GROUP BY a HAVING COUNT(*) > 40 ORDER BY a`,
	`SELECT flag, COUNT(DISTINCT a) FROM big GROUP BY flag ORDER BY 1`,
	`SELECT name, SUM(a), COUNT(*) FROM big GROUP BY name ORDER BY 1`,
	`SELECT a, COUNT(*) FROM big GROUP BY a`, // no ORDER BY: first-seen group order
	`SELECT COUNT(*), SUM(a), MIN(f), MAX(name), AVG(f) FROM big`,
	`SELECT SUM(a) FROM big WHERE a > 1000`, // empty input, global aggregate
	// Hash joins: parallel build (dim > threshold) and parallel probe.
	`SELECT COUNT(*) FROM big JOIN dim ON big.a = dim.a`,
	`SELECT big.id, dim.label FROM big JOIN dim ON big.a = dim.a AND big.id > 2900 ORDER BY big.id, dim.label`,
	`SELECT COUNT(*) FROM big LEFT JOIN dim ON big.a = dim.a`,
	`SELECT big.id, dim.label FROM big JOIN dim ON big.a = dim.a WHERE big.id % 101 = 0`, // no ORDER BY
	// DISTINCT and set ops over parallel-projected outputs.
	`SELECT DISTINCT a FROM big ORDER BY 1`,
	`SELECT a FROM big WHERE a < 5 UNION SELECT a FROM dim WHERE a < 5 ORDER BY 1`,
}

// TestParallelWorkerEquivalence is the worker-count sweep: the large
// fixture corpus must render type-exactly identical at workers 1/2/4/8.
// The workers=1 leg is the serial reference and must dispatch no
// morsels at all.
func TestParallelWorkerEquivalence(t *testing.T) {
	lowerMorsels(t)

	var want []string
	for _, w := range []int{1, 2, 4, 8} {
		eng := New(Config{Workers: w})
		reg := obs.NewRegistry()
		eng.SetMetrics(reg)
		s := eng.NewSession()
		loadParCorpus(t, s)
		for i, q := range parCorpus {
			got := renderResult(mustExec(t, s, q))
			if w == 1 {
				want = append(want, got)
			} else if got != want[i] {
				t.Fatalf("workers=%d %s:\npar:\n%s\nserial:\n%s", w, q, got, want[i])
			}
		}
		morsels := reg.Counter("sqloop_parallel_morsels_total").Value()
		switch {
		case w == 1 && morsels != 0:
			t.Errorf("workers=1 ran %d morsels, want the serial path", morsels)
		case w > 1 && morsels == 0:
			t.Errorf("workers=%d ran zero parallel morsels over the corpus", w)
		case w > 1 && reg.Histogram("sqloop_parallel_worker_busy_seconds").Count() != morsels:
			t.Errorf("workers=%d busy-seconds observations != morsel count", w)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelSmallCorpusEquivalence runs the PR 8 vectorization corpus
// (small fixtures, below the parallel threshold even when lowered) at
// every worker count: plumbing a worker pool through must not perturb
// serial-sized queries.
func TestParallelSmallCorpusEquivalence(t *testing.T) {
	corpus := []string{
		`SELECT id, a FROM nums WHERE a * 2 + 1 > 7 ORDER BY id`,
		`SELECT id FROM nums WHERE a IN (1, 3, 5, NULL) ORDER BY id`,
		`SELECT id, CASE WHEN a > 5 THEN 'hi' ELSE 'lo' END, COALESCE(a, -1) FROM nums ORDER BY id`,
		`SELECT a, COUNT(*), SUM(f) FROM nums GROUP BY a ORDER BY 1`,
		`SELECT k, COUNT(*), SUM(v) FROM mix GROUP BY k ORDER BY 2, 3`,
		`SELECT flag, COUNT(DISTINCT a) FROM nums GROUP BY flag ORDER BY 1`,
		`SELECT n.id, o.label FROM nums AS n LEFT JOIN other AS o ON n.a = o.a ORDER BY n.id, o.label`,
		`SELECT id FROM nums WHERE a = (SELECT MIN(a) FROM nums) ORDER BY id`,
		`SELECT a FROM nums EXCEPT SELECT a FROM other ORDER BY 1`,
		`SELECT id FROM nums ORDER BY id LIMIT 5 OFFSET 3`,
	}
	serial := New(Config{Workers: 1}).NewSession()
	loadCompileCorpus(t, serial)
	for _, w := range []int{2, 4, 8} {
		s := New(Config{Workers: w}).NewSession()
		loadCompileCorpus(t, s)
		for _, q := range corpus {
			got := renderResult(mustExec(t, s, q))
			want := renderResult(mustExec(t, serial, q))
			if got != want {
				t.Fatalf("workers=%d %s:\npar:\n%s\nserial:\n%s", w, q, got, want)
			}
		}
	}
}

// TestParallelErrorIdentity pins the first-error-in-row-order contract:
// two distinct failing rows live in different morsels, and every worker
// count must surface exactly the serial path's error — the one from the
// lower-indexed row — for filters, projections, grouped aggregates and
// join probe keys.
func TestParallelErrorIdentity(t *testing.T) {
	lowerMorsels(t)

	const n = 4000
	load := func(t *testing.T, s *Session) {
		t.Helper()
		mustExec(t, s, `CREATE TABLE t (a BIGINT, b BIGINT, name TEXT)`)
		for i := 0; i < n; i++ {
			b := int64(i%7 + 1)
			name := fmt.Sprintf("%d", i)
			switch i {
			case 2100: // morsel 2 under the lowered granule
				b, name = 0, "badA"
			case 3500: // morsel 3
				b, name = 0, "badB"
			}
			mustExec(t, s, `INSERT INTO t VALUES (?, ?, ?)`,
				sqltypes.NewInt(int64(i)), sqltypes.NewInt(b), sqltypes.NewString(name))
		}
	}
	queries := []string{
		`SELECT a FROM t WHERE 10 / b > 1`,                          // filter kernel error
		`SELECT a, 10 / b FROM t`,                                   // projection kernel error
		`SELECT CAST(name AS BIGINT) FROM t WHERE a >= 2000`,        // value-carrying error: must name badA, not badB
		`SELECT b, SUM(10 / b) FROM t GROUP BY b`,                   // grouped argument error
		`SELECT x.a FROM t AS x JOIN t AS y ON 10 / x.b = y.a`,      // probe key error
		`SELECT COUNT(*) FROM t AS x JOIN t AS y ON x.a = 10 / y.b`, // build key error
	}
	serial := New(Config{Workers: 1}).NewSession()
	load(t, serial)
	want := make([]string, len(queries))
	for i, q := range queries {
		_, err := serial.Exec(q)
		if err == nil {
			t.Fatalf("serial %s: expected error", q)
		}
		want[i] = err.Error()
	}
	for _, w := range []int{2, 4, 8} {
		s := New(Config{Workers: w}).NewSession()
		load(t, s)
		for i, q := range queries {
			_, err := s.Exec(q)
			if err == nil {
				t.Fatalf("workers=%d %s: expected error", w, q)
			}
			if err.Error() != want[i] {
				t.Fatalf("workers=%d %s: error mismatch:\npar:    %v\nserial: %s", w, q, err, want[i])
			}
		}
	}
}

// TestEngineCloseDrainsPool closes an engine while parallel queries are
// in flight: the queries must complete without error (the dispatching
// goroutine's inline claim loop needs no pool), the worker goroutines
// must all exit (no leak), and Close plus post-Close queries must not
// panic.
func TestEngineCloseDrainsPool(t *testing.T) {
	lowerMorsels(t)

	before := runtime.NumGoroutine()
	// A mild scan cost stretches the queries so Close lands mid-flight.
	eng := New(Config{Workers: 8, Cost: &CostModel{PerRowScan: time.Microsecond, Scale: 1}})
	s := eng.NewSession()
	mustExec(t, s, `CREATE TABLE t (a BIGINT, b BIGINT)`)
	for i := 0; i < 3000; i++ {
		mustExec(t, s, `INSERT INTO t VALUES (?, ?)`,
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i%13)))
	}
	want := renderResult(mustExec(t, s, `SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b ORDER BY 1`))

	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			res, err := eng.NewSession().Exec(`SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b ORDER BY 1`)
			if err == nil && renderResult(res) != want {
				err = fmt.Errorf("result changed under concurrent Close")
			}
			done <- err
		}()
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatalf("query racing Close: %v", err)
		}
	}
	// Queries after Close still work (serially, via the inline claim loop).
	got := renderResult(mustExec(t, s, `SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b ORDER BY 1`))
	if got != want {
		t.Fatalf("post-Close result changed:\n%s\nvs\n%s", got, want)
	}
	if err := eng.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// goleak-style count check: every pool goroutine must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEffectiveWorkers pins the Config resolution: sub-1 values force
// serial, 0 tracks GOMAXPROCS.
func TestEffectiveWorkers(t *testing.T) {
	if got := effectiveWorkers(Config{Workers: 4}); got != 4 {
		t.Errorf("Workers=4: got %d", got)
	}
	if got := effectiveWorkers(Config{Workers: -3}); got != 1 {
		t.Errorf("Workers=-3: got %d", got)
	}
	if got := effectiveWorkers(Config{}); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers=0: got %d, want GOMAXPROCS", got)
	}
	eng := New(Config{Workers: 6})
	defer eng.Close()
	if eng.Workers() != 6 {
		t.Errorf("Engine.Workers() = %d, want 6", eng.Workers())
	}
}

// TestBackgroundCheckpointerBoundsWAL: with Config.WALCheckpointBytes
// set, a long DML-only run (no middleware snapshots, no explicit
// Checkpoint calls) must keep each table's WAL bounded; without it the
// WAL grows with the workload.
func TestBackgroundCheckpointerBoundsWAL(t *testing.T) {
	const threshold = 2048
	run := func(ckpt int64) int64 {
		eng := New(Config{Backend: storage.KindDisk, DataDir: t.TempDir(), WALCheckpointBytes: ckpt})
		defer eng.Close()
		s := eng.NewSession()
		mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, v TEXT)`)
		for i := 0; i < 600; i++ {
			mustExec(t, s, `INSERT INTO t VALUES (?, ?)`,
				sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("value-%d", i)))
		}
		tbl, ok := eng.lookupTable("t")
		if !ok {
			t.Fatal("table t missing")
		}
		ds := tbl.store.(*pager.DiskStore)
		if ckpt > 0 {
			// Quiesce: give the checkpointer a few ticks to truncate the
			// final tail.
			deadline := time.Now().Add(2 * time.Second)
			for ds.WALSize() > ckpt && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
		}
		return ds.WALSize()
	}
	bounded := run(threshold)
	unbounded := run(0)
	if bounded > threshold {
		t.Errorf("background checkpointer left WAL at %d bytes, threshold %d", bounded, threshold)
	}
	if unbounded <= threshold {
		t.Errorf("control run without checkpointer ended at %d bytes; workload too small to prove bounding", unbounded)
	}
	// Background truncation must not cost durability: a run under the
	// checkpointer, closed and reopened from the same directory, recovers
	// every committed row.
	dir := t.TempDir()
	eng := New(Config{Backend: storage.KindDisk, DataDir: dir, WALCheckpointBytes: threshold})
	s := eng.NewSession()
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, v TEXT)`)
	for i := 0; i < 200; i++ {
		mustExec(t, s, `INSERT INTO t VALUES (?, ?)`, sqltypes.NewInt(int64(i)), sqltypes.NewString("x"))
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := New(Config{Backend: storage.KindDisk, DataDir: dir})
	defer reopened.Close()
	res := mustExec(t, reopened.NewSession(), `SELECT COUNT(*) FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][0].GoValue() != int64(200) {
		t.Fatalf("recovered %s rows, want 200", renderResult(res))
	}
}
