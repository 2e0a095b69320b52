package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"sqloop/internal/pager"
	"sqloop/internal/sqlparser"
	"sqloop/internal/sqltypes"
	"sqloop/internal/storage"
)

// TestDiskBackendSQL runs the SQL surface end to end on the durable
// backend: DDL, DML, transactions with rollback, TRUNCATE, DROP and an
// engine restart that recovers the data from disk.
func TestDiskBackendSQL(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Backend:         storage.KindDisk,
		Dialect:         sqlparser.DialectPGSim,
		DataDir:         dir,
		BufferPoolPages: 64,
	}
	e := New(cfg)
	s := e.NewSession()
	mustExec := func(sql string) *Result {
		t.Helper()
		res, err := s.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	mustExec(`CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)`)
	mustExec(`INSERT INTO kv VALUES (1, 'one'), (2, 'two'), (3, 'three')`)
	mustExec(`UPDATE kv SET v = 'TWO' WHERE k = 2`)
	mustExec(`DELETE FROM kv WHERE k = 3`)

	res := mustExec(`SELECT k, v FROM kv ORDER BY k`)
	if len(res.Rows) != 2 || res.Rows[1][1].Str() != "TWO" {
		t.Fatalf("rows = %v", res.Rows)
	}

	// Rolled-back work must not survive.
	mustExec(`BEGIN`)
	mustExec(`INSERT INTO kv VALUES (9, 'phantom')`)
	mustExec(`ROLLBACK`)
	if res := mustExec(`SELECT * FROM kv WHERE k = 9`); len(res.Rows) != 0 {
		t.Fatal("rolled-back row visible")
	}

	mustExec(`CREATE TABLE copy AS SELECT k, v FROM kv`)
	if res := mustExec(`SELECT COUNT(*) FROM copy`); res.Rows[0][0].Int() != 2 {
		t.Fatalf("CTAS count = %v", res.Rows)
	}

	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	mustExec(`TRUNCATE TABLE copy`)
	if e.TableLen("copy") != 0 {
		t.Fatal("TRUNCATE left rows")
	}
	mustExec(`DROP TABLE copy`)
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A second engine over the same directory recovers the catalog from
	// the persisted manifest: kv is queryable with its pre-restart
	// contents, dropped copy stays dropped, and re-creating a recovered
	// table is rejected like any duplicate.
	e2 := New(cfg)
	s2 := e2.NewSession()
	res2, err := s2.Exec(`SELECT k, v FROM kv ORDER BY k`)
	if err != nil {
		t.Fatalf("query recovered table: %v", err)
	}
	if len(res2.Rows) != 2 || res2.Rows[0][0].Int() != 1 || res2.Rows[1][1].Str() != "TWO" {
		t.Fatalf("recovered rows = %v", res2.Rows)
	}
	if _, err := s2.Exec(`SELECT * FROM copy`); err == nil {
		t.Fatal("dropped table recovered")
	}
	if _, err := s2.Exec(`CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)`); err == nil {
		t.Fatal("re-creating a recovered table did not error")
	}
	if _, err := s2.Exec(`INSERT INTO kv VALUES (5, 'five')`); err != nil {
		t.Fatalf("insert after restart: %v", err)
	}
	if e2.TableLen("kv") != 3 {
		t.Fatalf("TableLen = %d", e2.TableLen("kv"))
	}
	if err := e2.Close(); err != nil {
		t.Fatalf("Close 2: %v", err)
	}
}

// TestDiskBackendCatalogRecovery covers the manifest round trip in
// depth: schema fidelity (types and primary-key position), synthetic
// rowid tables resuming their key allocator past recovered rows, and a
// corrupt manifest refusing statements instead of starting empty.
func TestDiskBackendCatalogRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Backend: storage.KindDisk,
		Dialect: sqlparser.DialectPGSim,
		DataDir: dir,
	}
	e := New(cfg)
	s := e.NewSession()
	mustExec := func(sess *Session, sql string) *Result {
		t.Helper()
		res, err := sess.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	mustExec(s, `CREATE TABLE typed (id BIGINT PRIMARY KEY, f DOUBLE, s TEXT, b BOOLEAN)`)
	mustExec(s, `INSERT INTO typed VALUES (10, 1.5, 'x', TRUE)`)
	// No PRIMARY KEY: rows get synthetic rowid keys.
	mustExec(s, `CREATE TABLE bag (n BIGINT)`)
	mustExec(s, `INSERT INTO bag VALUES (1), (2), (3)`)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := New(cfg)
	s2 := e2.NewSession()
	tbl, ok := e2.lookupTable("typed")
	if !ok {
		t.Fatal("typed not recovered")
	}
	if tbl.pkCol != 0 {
		t.Fatalf("pkCol = %d, want 0", tbl.pkCol)
	}
	wantTypes := []sqltypes.ColumnType{sqltypes.TypeInt, sqltypes.TypeFloat, sqltypes.TypeString, sqltypes.TypeBool}
	for i, want := range wantTypes {
		if got := tbl.schema.Columns[i].Type; got != want {
			t.Fatalf("column %d type = %v, want %v", i, got, want)
		}
	}
	// A typed insert must still coerce/reject against the recovered schema.
	if _, err := s2.Exec(`INSERT INTO typed VALUES ('nope', 1.0, 'x', FALSE)`); err == nil {
		t.Fatal("type check lost after recovery")
	}
	// Synthetic keys must not collide with recovered rows.
	mustExec(s2, `INSERT INTO bag VALUES (4), (5)`)
	if res := mustExec(s2, `SELECT COUNT(*) FROM bag`); res.Rows[0][0].Int() != 5 {
		t.Fatalf("bag count = %v (rowid collision?)", res.Rows)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt manifest: the engine must refuse statements, not start
	// empty over live table files.
	if err := os.WriteFile(filepath.Join(dir, diskCatalogFile), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	e3 := New(cfg)
	if _, err := e3.NewSession().Exec(`SELECT 1`); err == nil {
		t.Fatal("corrupt catalog did not refuse statements")
	}
	_ = e3.Close()
}

// TestDiskBackendTempDir checks the zero-config path: no DataDir means
// a temp directory created lazily and removed by Close.
func TestDiskBackendTempDir(t *testing.T) {
	e := New(Config{Backend: storage.KindDisk, Dialect: sqlparser.DialectPGSim})
	s := e.NewSession()
	if _, err := s.Exec(`CREATE TABLE t (a INT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO t VALUES (7)`); err != nil {
		t.Fatal(err)
	}
	e.pagerMu.Lock()
	dir := e.pagerDir
	e.pagerMu.Unlock()
	if dir == "" {
		t.Fatal("no temp data dir recorded")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err == nil {
		t.Fatalf("temp dir %s survived Close", dir)
	}
}

// TestDiskBackendUnlogged pins the lifetime of UNLOGGED/TEMP tables on
// the disk backend: no WAL file, no catalog.json entry, and gone —
// files included — once the engine that made them is closed or
// abandoned, while a logged table beside them survives both.
func TestDiskBackendUnlogged(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Backend:         storage.KindDisk,
		Dialect:         sqlparser.DialectPGSim,
		DataDir:         dir,
		BufferPoolPages: 8, // eviction writes the unlogged pages to disk
	}
	e := New(cfg)
	s := e.NewSession()
	mustExec := func(sess *Session, sql string) *Result {
		t.Helper()
		res, err := sess.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	mustExec(s, `CREATE TABLE kept (k INT PRIMARY KEY, v TEXT)`)
	mustExec(s, `CREATE UNLOGGED TABLE scratch (k INT PRIMARY KEY, v TEXT)`)
	var values strings.Builder
	for i := 0; i < 2000; i++ {
		if i > 0 {
			values.WriteString(", ")
		}
		fmt.Fprintf(&values, "(%d, 'row %d')", i, i)
	}
	mustExec(s, `INSERT INTO kept VALUES `+values.String())
	mustExec(s, `INSERT INTO scratch VALUES `+values.String())
	mustExec(s, `CREATE TEMP TABLE tmp AS SELECT k FROM scratch WHERE k < 10`)
	mustExec(s, `UPDATE scratch SET v = 'changed' WHERE k < 100`)
	mustExec(s, `DELETE FROM kept WHERE k >= 1000`)

	for _, f := range []string{"scratch.wal", "tmp.wal"} {
		if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
			t.Errorf("unlogged table has %s (stat: %v)", f, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "scratch.pages")); err != nil {
		t.Fatalf("unlogged page file: %v", err)
	}
	requireCatalog := func(dir string) {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, diskCatalogFile))
		if err != nil {
			t.Fatal(err)
		}
		var cat diskCatalog
		if err := json.Unmarshal(b, &cat); err != nil {
			t.Fatal(err)
		}
		if len(cat.Tables) != 1 || cat.Tables[0].Name != "kept" {
			t.Fatalf("catalog names %+v, want only kept", cat.Tables)
		}
	}
	requireCatalog(dir)

	// requireRestarted opens a fresh engine on dir: kept is intact, the
	// unlogged tables and their files are gone, and re-creating one
	// starts empty.
	requireRestarted := func(name, dir string) {
		t.Helper()
		c := cfg
		c.DataDir = dir
		e2 := New(c)
		defer e2.Close()
		s2 := e2.NewSession()
		res := mustExec(s2, `SELECT COUNT(*), MIN(v), MAX(k) FROM kept`)
		if got := fmt.Sprintf("%d %s %d", res.Rows[0][0].Int(), res.Rows[0][1].Str(), res.Rows[0][2].Int()); got != "1000 row 0 999" {
			t.Fatalf("%s: kept = %s", name, got)
		}
		for _, tbl := range []string{"scratch", "tmp"} {
			if _, err := s2.Exec(`SELECT * FROM ` + tbl); err == nil {
				t.Fatalf("%s: unlogged table %s survived", name, tbl)
			}
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range ents {
			if n := ent.Name(); strings.HasPrefix(n, "scratch.") || strings.HasPrefix(n, "tmp.") {
				t.Fatalf("%s: %s left in the data dir", name, n)
			}
		}
		mustExec(s2, `CREATE UNLOGGED TABLE scratch (k INT PRIMARY KEY, v TEXT)`)
		if n := e2.TableLen("scratch"); n != 0 {
			t.Fatalf("%s: re-created unlogged table holds %d rows", name, n)
		}
		mustExec(s2, `DROP TABLE scratch`)
		requireCatalog(dir)
	}

	// An abandoned engine: copy its files while it is still open, as a
	// crash would leave them.
	crashed := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, ent.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(crashed, "scratch.pages")); err != nil {
		t.Fatalf("crash image lacks the unlogged page file: %v", err)
	}
	requireRestarted("abandoned", crashed)

	mustExec(s, `DROP TABLE tmp`)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	requireRestarted("closed", dir)
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

// TestEngineCloseStopsCheckpointer closes a disk engine, whose
// background WAL checkpointer is running, while queries are in flight:
// Close must wait for them to finish with unchanged results, later
// statements must fail with ErrClosed, Close must be safe to call
// twice, and the checkpointer goroutine must exit (no leak).
func TestEngineCloseStopsCheckpointer(t *testing.T) {
	before := runtime.NumGoroutine()
	eng := New(Config{Backend: storage.KindDisk, DataDir: t.TempDir(), WALCheckpointBytes: 2048})
	s := eng.NewSession()
	mustExec(t, s, `CREATE TABLE t (a BIGINT, b BIGINT)`)
	for i := 0; i < 3000; i++ {
		mustExec(t, s, `INSERT INTO t VALUES (?, ?)`,
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i%13)))
	}
	const q = `SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b ORDER BY 1`
	want := renderResult(mustExec(t, s, q))

	// Holding t's lock parks the queries inside their statements until
	// Close has been called.
	tbl, _ := eng.lookupTable("t")
	tbl.mu.Lock()
	started := eng.Stats().Statements
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			res, err := eng.NewSession().Exec(q)
			if err == nil && renderResult(res) != want {
				err = fmt.Errorf("result changed under concurrent Close")
			}
			done <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().Statements < started+4 {
		if time.Now().After(deadline) {
			t.Fatal("queries never started")
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- eng.Close() }()
	tbl.mu.Unlock()
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatalf("query racing Close: %v", err)
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(q); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after Close: err = %v, want ErrClosed", err)
	}
	if err := eng.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
