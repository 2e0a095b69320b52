package driver

import (
	"database/sql"
	"fmt"
	"math"
	"strings"
	"testing"

	"sqloop/internal/engine"
	"sqloop/internal/obs"
	"sqloop/internal/wire"
)

func openInproc(t *testing.T) *sql.DB {
	t.Helper()
	eng := engine.New(engine.Config{})
	RegisterEngine(t.Name(), eng)
	t.Cleanup(func() { UnregisterEngine(t.Name()) })
	db, err := sql.Open(DriverName, InprocDSN(t.Name()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	return db
}

func TestInprocExecQuery(t *testing.T) {
	db := openInproc(t)
	if _, err := db.Exec(`CREATE TABLE t (id BIGINT PRIMARY KEY, name TEXT, v DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`INSERT INTO t VALUES (?, ?, ?), (?, ?, ?)`,
		int64(1), "a", 1.5, int64(2), "b", math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.RowsAffected(); n != 2 {
		t.Fatalf("affected = %d", n)
	}
	rows, err := db.Query(`SELECT id, name, v FROM t ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var (
		ids   []int64
		names []string
		vs    []float64
	)
	for rows.Next() {
		var id int64
		var name string
		var v float64
		if err := rows.Scan(&id, &name, &v); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		names = append(names, name)
		vs = append(vs, v)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || names[0] != "a" || !math.IsInf(vs[1], 1) {
		t.Fatalf("scan = %v %v %v", ids, names, vs)
	}
}

func TestNullScan(t *testing.T) {
	db := openInproc(t)
	if _, err := db.Exec(`CREATE TABLE t (a BIGINT, b DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1, NULL)`); err != nil {
		t.Fatal(err)
	}
	var b sql.NullFloat64
	if err := db.QueryRow(`SELECT b FROM t`).Scan(&b); err != nil {
		t.Fatal(err)
	}
	if b.Valid {
		t.Fatalf("b = %+v, want NULL", b)
	}
}

func TestTransactions(t *testing.T) {
	db := openInproc(t)
	if _, err := db.Exec(`CREATE TABLE t (id BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	var n int64
	if err := db.QueryRow(`SELECT COUNT(*) FROM t`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("count after rollback = %d", n)
	}
	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO t VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.QueryRow(`SELECT COUNT(*) FROM t`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("count after commit = %d", n)
	}
}

func TestPreparedStatements(t *testing.T) {
	db := openInproc(t)
	if _, err := db.Exec(`CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	st, err := db.Prepare(`INSERT INTO t VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := int64(0); i < 10; i++ {
		if _, err := st.Exec(i, i*i); err != nil {
			t.Fatal(err)
		}
	}
	var v int64
	if err := db.QueryRow(`SELECT v FROM t WHERE id = ?`, int64(7)).Scan(&v); err != nil {
		t.Fatal(err)
	}
	if v != 49 {
		t.Fatalf("v = %d", v)
	}
}

// TestOwnEngineCloseReleases pins the owning connector's contract:
// connections reach the engine through its inproc DSN, and closing the
// database handle unregisters the handle, drops the DSN's
// configuration and closes the engine.
func TestOwnEngineCloseReleases(t *testing.T) {
	reg := obs.NewRegistry()
	dsn := InprocDSN(t.Name())
	db := sql.OpenDB(OwnEngine(t.Name(), engine.New(engine.Config{}), Config{Metrics: reg}))
	if _, err := db.Exec(`CREATE TABLE t (id BIGINT)`); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("driver_statements_total").Value() == 0 {
		t.Fatal("connection did not report into the configured registry")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ConfigFor(dsn); got != (Config{}) {
		t.Fatalf("DSN config survived Close: %+v", got)
	}
	if _, err := (Driver{}).Open(dsn); err == nil {
		t.Fatal("handle still registered after Close")
	}
}

func TestBadDSNs(t *testing.T) {
	for _, dsn := range []string{
		"mysql://whatever",
		"sqlsim://",
		"sqlsim://inproc/unregistered",
		"sqlsim://nope/x",
		"sqlsim://tcp/127.0.0.1:1", // nothing listening
	} {
		db, err := sql.Open(DriverName, dsn)
		if err != nil {
			continue // open may fail eagerly
		}
		if err := db.Ping(); err == nil {
			t.Errorf("Ping(%q) succeeded", dsn)
		}
		_ = db.Close()
	}
}

func TestTCPDSN(t *testing.T) {
	eng := engine.New(engine.Config{})
	srv := wire.NewServer(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	db, err := sql.Open(DriverName, TCPDSN(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (id BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (?)`, int64(5)); err != nil {
		t.Fatal(err)
	}
	var id int64
	if err := db.QueryRow(`SELECT id FROM t`).Scan(&id); err != nil {
		t.Fatal(err)
	}
	if id != 5 {
		t.Fatalf("id = %d", id)
	}
	// Remote errors surface as errors without killing the pool.
	if _, err := db.Exec(`SELECT * FROM missing`); err == nil {
		t.Fatal("expected error")
	}
	if err := db.QueryRow(`SELECT COUNT(*) FROM t`).Scan(&id); err != nil {
		t.Fatal(err)
	}
}

func TestConnectionsAreIndependentSessions(t *testing.T) {
	// Two connections must be separate engine sessions: a transaction on
	// one must not leak onto the other. database/sql pools connections,
	// so pin them with Conn.
	db := openInproc(t)
	if _, err := db.Exec(`CREATE TABLE t (id BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	c1, err := db.Conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := db.Conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c1.ExecContext(ctx, `BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.ExecContext(ctx, `INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	// c2 inserting its own row is unaffected by c1's open transaction.
	if _, err := c2.ExecContext(ctx, `INSERT INTO t VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.ExecContext(ctx, `ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	var n int64
	if err := db.QueryRow(`SELECT COUNT(*) FROM t`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("count = %d, want only c2's row", n)
	}
}

// TestWireVersionBinaryVsJSON runs the same queries through a
// binary-framed connection and a JSON-capped one against a single
// server, checking database/sql sees identical rows — including the
// values JSON encodes specially (infinities, NULL, unicode).
func TestWireVersionBinaryVsJSON(t *testing.T) {
	eng := engine.New(engine.Config{})
	srv := wire.NewServer(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dsn := TCPDSN(addr)
	defer Configure(dsn, Config{})

	setup, err := sql.Open(DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec(`CREATE TABLE t (id BIGINT PRIMARY KEY, v DOUBLE, s TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		v := any(float64(i) / 4)
		s := any(fmt.Sprintf("héllo-%d", i))
		if i%5 == 0 {
			v = math.Inf(1)
		}
		if i%7 == 0 {
			s = nil
		}
		if _, err := setup.Exec(`INSERT INTO t VALUES (?, ?, ?)`, int64(i), v, s); err != nil {
			t.Fatal(err)
		}
	}
	setup.Close()

	read := func(ver int) string {
		t.Helper()
		Configure(dsn, Config{WireVer: ver})
		db, err := sql.Open(DriverName, dsn)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		rows, err := db.Query(`SELECT id, v, s FROM t ORDER BY id`)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var out strings.Builder
		for rows.Next() {
			var (
				id int64
				v  float64
				s  sql.NullString
			)
			if err := rows.Scan(&id, &v, &s); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%d|%v|%v;", id, v, s)
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}

	binary := read(wire.WireVersion)
	jsonOut := read(-1) // negative WireVer forces the JSON protocol
	if binary != jsonOut {
		t.Fatalf("binary and JSON connections disagree:\n%s\nvs\n%s", binary, jsonOut)
	}
	if binary == "" {
		t.Fatal("no rows read")
	}
	if got := srv.Metrics().Counter("sqloop_wire_rows_encoded").Value(); got == 0 {
		t.Fatal("binary connection never used the binary codec")
	}
	if got := srv.Metrics().Counter("sqloop_wire_bytes_json").Value(); got == 0 {
		t.Fatal("JSON-capped connection never used the JSON codec")
	}
}
