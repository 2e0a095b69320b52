package engine

import (
	"math"
	"strings"
	"testing"
	"time"

	"sqloop/internal/sqlparser"
	"sqloop/internal/sqltypes"
	"sqloop/internal/storage"
)

// newTestSession returns a session on a fresh heap-backed engine.
func newTestSession(t *testing.T) *Session {
	t.Helper()
	return New(Config{}).NewSession()
}

func mustExec(t *testing.T, s *Session, sql string, args ...sqltypes.Value) *Result {
	t.Helper()
	res, err := s.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func setupEdges(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE edges (src BIGINT, dst BIGINT, weight DOUBLE)`)
	for _, e := range [][3]any{
		{1, 2, 0.5}, {1, 3, 0.5}, {2, 3, 1.0}, {3, 1, 0.5}, {3, 4, 0.5}, {4, 1, 1.0},
	} {
		mustExec(t, s, `INSERT INTO edges VALUES (?, ?, ?)`,
			sqltypes.NewInt(int64(e[0].(int))), sqltypes.NewInt(int64(e[1].(int))),
			sqltypes.NewFloat(e[2].(float64)))
	}
}

func TestCreateInsertSelect(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, name TEXT, score DOUBLE)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 'a', 1.5), (2, 'b', 2.5), (3, 'c', 3.5)`)
	res := mustExec(t, s, `SELECT id, name FROM t WHERE score > 2 ORDER BY id`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Int() != 2 || res.Rows[0][1].Str() != "b" {
		t.Errorf("row0 = %v", res.Rows[0])
	}
	if res.Columns[0] != "id" || res.Columns[1] != "name" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestDuplicatePrimaryKey(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, v TEXT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 'a')`)
	if _, err := s.Exec(`INSERT INTO t VALUES (1, 'b')`); err == nil {
		t.Fatal("expected duplicate key error")
	}
}

func TestSelectExpressionForms(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE t (a BIGINT, b DOUBLE, s TEXT)`)
	mustExec(t, s, `INSERT INTO t VALUES (3, 1.5, 'x'), (5, NULL, 'y')`)
	tests := []struct {
		sql  string
		want string // String() of single value of first row
	}{
		{`SELECT a + 1 FROM t WHERE s = 'x'`, "4"},
		{`SELECT a * b FROM t WHERE s = 'x'`, "4.5"},
		{`SELECT COALESCE(b, 9.0) FROM t WHERE s = 'y'`, "9"},
		{`SELECT CASE WHEN a > 4 THEN 'big' ELSE 'small' END FROM t WHERE s = 'y'`, "big"},
		{`SELECT LEAST(a, 4) FROM t WHERE s = 'x'`, "3"},
		{`SELECT GREATEST(a, 4) FROM t WHERE s = 'x'`, "4"},
		{`SELECT ABS(0 - a) FROM t WHERE s = 'x'`, "3"},
		{`SELECT a IS NULL FROM t WHERE s = 'x'`, "false"},
		{`SELECT b IS NULL FROM t WHERE s = 'y'`, "true"},
		{`SELECT a IN (1, 3, 5) FROM t WHERE s = 'x'`, "true"},
		{`SELECT NOT (a = 3) FROM t WHERE s = 'x'`, "false"},
		{`SELECT MOD(a, 2) FROM t WHERE s = 'x'`, "1"},
		{`SELECT (SELECT MAX(a) FROM t)`, "5"},
		{`SELECT Infinity`, "Infinity"},
	}
	for _, tt := range tests {
		res := mustExec(t, s, tt.sql)
		if len(res.Rows) != 1 {
			t.Errorf("%s: %d rows", tt.sql, len(res.Rows))
			continue
		}
		if got := res.Rows[0][0].String(); got != tt.want {
			t.Errorf("%s = %q, want %q", tt.sql, got, tt.want)
		}
	}
}

func TestAggregates(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE n (g BIGINT, v DOUBLE)`)
	mustExec(t, s, `INSERT INTO n VALUES (1, 1.0), (1, 2.0), (1, NULL), (2, 10.0)`)
	res := mustExec(t, s, `SELECT g, SUM(v), COUNT(v), COUNT(*), AVG(v), MIN(v), MAX(v) FROM n GROUP BY g ORDER BY g`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	r := res.Rows[0]
	if r[1].Float() != 3.0 || r[2].Int() != 2 || r[3].Int() != 3 || r[4].Float() != 1.5 ||
		r[5].Float() != 1.0 || r[6].Float() != 2.0 {
		t.Errorf("group 1 aggregates = %v", r)
	}
	// Global aggregate without GROUP BY over empty filter.
	res = mustExec(t, s, `SELECT SUM(v), COUNT(*) FROM n WHERE g = 99`)
	if !res.Rows[0][0].IsNull() || res.Rows[0][1].Int() != 0 {
		t.Errorf("empty aggregates = %v", res.Rows[0])
	}
}

func TestGroupByHaving(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE n (g BIGINT, v BIGINT)`)
	mustExec(t, s, `INSERT INTO n VALUES (1, 1), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6)`)
	res := mustExec(t, s, `SELECT g, COUNT(*) AS c FROM n GROUP BY g HAVING COUNT(*) >= 2 ORDER BY c DESC`)
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 3 || res.Rows[1][0].Int() != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestJoins(t *testing.T) {
	s := newTestSession(t)
	setupEdges(t, s)
	mustExec(t, s, `CREATE TABLE nodes (id BIGINT PRIMARY KEY, label TEXT)`)
	mustExec(t, s, `INSERT INTO nodes VALUES (1, 'one'), (2, 'two'), (3, 'three'), (4, 'four'), (9, 'island')`)

	// Inner hash join.
	res := mustExec(t, s, `SELECT nodes.label, edges.dst FROM nodes JOIN edges ON nodes.id = edges.src WHERE nodes.id = 1 ORDER BY edges.dst`)
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "one" {
		t.Fatalf("inner join rows = %v", res.Rows)
	}

	// Left join pads with NULLs.
	res = mustExec(t, s, `SELECT nodes.id, edges.dst FROM nodes LEFT JOIN edges ON nodes.id = edges.src WHERE nodes.id = 9`)
	if len(res.Rows) != 1 || !res.Rows[0][1].IsNull() {
		t.Fatalf("left join rows = %v", res.Rows)
	}

	// Self join (the pattern SQLoop analyzes).
	res = mustExec(t, s, `
		SELECT a.src, b.dst FROM edges AS a JOIN edges AS b ON a.dst = b.src
		WHERE a.src = 1 ORDER BY b.dst`)
	if len(res.Rows) == 0 {
		t.Fatal("self join returned nothing")
	}

	// Non-equi join falls back to nested loop.
	res = mustExec(t, s, `SELECT COUNT(*) FROM nodes JOIN edges ON nodes.id < edges.src`)
	if res.Rows[0][0].Int() == 0 {
		t.Fatal("non-equi join returned nothing")
	}

	// Join with residual predicate alongside the equi key.
	res = mustExec(t, s, `SELECT COUNT(*) FROM nodes JOIN edges ON nodes.id = edges.src AND edges.weight > 0.6`)
	if got := res.Rows[0][0].Int(); got != 2 {
		t.Fatalf("residual join count = %d, want 2", got)
	}
}

func TestUnionAndDistinct(t *testing.T) {
	s := newTestSession(t)
	setupEdges(t, s)
	all := mustExec(t, s, `SELECT src FROM edges UNION ALL SELECT dst FROM edges`)
	if len(all.Rows) != 12 {
		t.Fatalf("UNION ALL rows = %d", len(all.Rows))
	}
	uniq := mustExec(t, s, `SELECT src FROM edges UNION SELECT dst FROM edges`)
	if len(uniq.Rows) != 4 {
		t.Fatalf("UNION rows = %d, want 4", len(uniq.Rows))
	}
	dis := mustExec(t, s, `SELECT DISTINCT src FROM edges`)
	if len(dis.Rows) != 4 {
		t.Fatalf("DISTINCT rows = %d, want 4", len(dis.Rows))
	}
}

func TestDerivedTableAndCTE(t *testing.T) {
	s := newTestSession(t)
	setupEdges(t, s)
	res := mustExec(t, s, `
		SELECT src, COUNT(*) FROM (SELECT src FROM edges UNION ALL SELECT dst AS src FROM edges) AS u
		GROUP BY src ORDER BY src`)
	if len(res.Rows) != 4 {
		t.Fatalf("derived rows = %v", res.Rows)
	}
	res = mustExec(t, s, `WITH u AS (SELECT src FROM edges UNION SELECT dst FROM edges) SELECT COUNT(*) FROM u`)
	if res.Rows[0][0].Int() != 4 {
		t.Fatalf("CTE count = %v", res.Rows[0])
	}
}

func TestViews(t *testing.T) {
	s := newTestSession(t)
	setupEdges(t, s)
	mustExec(t, s, `CREATE VIEW heavy AS SELECT * FROM edges WHERE weight >= 1.0`)
	res := mustExec(t, s, `SELECT COUNT(*) FROM heavy`)
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("view count = %v", res.Rows[0])
	}
	mustExec(t, s, `CREATE OR REPLACE VIEW heavy AS SELECT * FROM edges`)
	res = mustExec(t, s, `SELECT COUNT(*) FROM heavy`)
	if res.Rows[0][0].Int() != 6 {
		t.Fatalf("replaced view count = %v", res.Rows[0])
	}
	mustExec(t, s, `DROP VIEW heavy`)
	if _, err := s.Exec(`SELECT * FROM heavy`); err == nil {
		t.Fatal("dropped view still resolves")
	}
}

func TestViewOverUnionOfPartitions(t *testing.T) {
	// The exact pattern SQLoop uses: R redefined as a view over
	// partition tables.
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE p0 (id BIGINT PRIMARY KEY, v DOUBLE)`)
	mustExec(t, s, `CREATE TABLE p1 (id BIGINT PRIMARY KEY, v DOUBLE)`)
	mustExec(t, s, `INSERT INTO p0 VALUES (0, 1.0), (2, 2.0)`)
	mustExec(t, s, `INSERT INTO p1 VALUES (1, 3.0), (3, 4.0)`)
	mustExec(t, s, `CREATE VIEW r AS SELECT * FROM p0 UNION ALL SELECT * FROM p1`)
	res := mustExec(t, s, `SELECT SUM(v) FROM r`)
	if res.Rows[0][0].Float() != 10.0 {
		t.Fatalf("sum over partition view = %v", res.Rows[0])
	}
	// Writes to a partition are visible through the view.
	mustExec(t, s, `UPDATE p0 SET v = 5.0 WHERE id = 0`)
	res = mustExec(t, s, `SELECT SUM(v) FROM r`)
	if res.Rows[0][0].Float() != 14.0 {
		t.Fatalf("sum after partition update = %v", res.Rows[0])
	}
}

func TestUpdate(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, v DOUBLE)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, 3.0)`)
	res := mustExec(t, s, `UPDATE t SET v = v + 10 WHERE id > 1`)
	if res.RowsAffected != 2 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	// No-op update counts zero changed rows (MySQL semantics).
	res = mustExec(t, s, `UPDATE t SET v = v WHERE id = 1`)
	if res.RowsAffected != 0 {
		t.Fatalf("no-op update affected = %d", res.RowsAffected)
	}
	res = mustExec(t, s, `SELECT v FROM t WHERE id = 3`)
	if res.Rows[0][0].Float() != 13.0 {
		t.Fatalf("v = %v", res.Rows[0])
	}
}

func TestUpdateFromJoin(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE r (id BIGINT PRIMARY KEY, delta DOUBLE)`)
	mustExec(t, s, `CREATE TABLE msgs (id BIGINT, val DOUBLE)`)
	mustExec(t, s, `INSERT INTO r VALUES (1, 0.0), (2, 0.0), (3, 0.5)`)
	mustExec(t, s, `INSERT INTO msgs VALUES (1, 2.5), (2, 1.5), (9, 9.9)`)
	res := mustExec(t, s, `UPDATE r SET delta = r.delta + m.val FROM msgs AS m WHERE r.id = m.id`)
	if res.RowsAffected != 2 {
		t.Fatalf("affected = %d, want 2", res.RowsAffected)
	}
	got := mustExec(t, s, `SELECT delta FROM r ORDER BY id`)
	want := []float64{2.5, 1.5, 0.5}
	for i, w := range want {
		if got.Rows[i][0].Float() != w {
			t.Errorf("row %d delta = %v, want %v", i, got.Rows[i][0], w)
		}
	}
	// Aggregated FROM source (the Gather-task shape).
	mustExec(t, s, `INSERT INTO msgs VALUES (3, 1.0), (3, 2.0)`)
	res = mustExec(t, s, `UPDATE r SET delta = m.total FROM (SELECT id, SUM(val) AS total FROM msgs GROUP BY id) AS m WHERE r.id = m.id`)
	// Rows 1 and 2 are set to their current values, so only row 3 counts
	// under changed-rows semantics.
	if res.RowsAffected != 1 {
		t.Fatalf("aggregated update affected = %d, want 1", res.RowsAffected)
	}
	got = mustExec(t, s, `SELECT delta FROM r WHERE id = 3`)
	if got.Rows[0][0].Float() != 3.0 {
		t.Fatalf("id 3 delta = %v", got.Rows[0][0])
	}
}

func TestDeleteAndTruncate(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)`)
	res := mustExec(t, s, `DELETE FROM t WHERE v >= 2`)
	if res.RowsAffected != 2 {
		t.Fatalf("deleted = %d", res.RowsAffected)
	}
	res = mustExec(t, s, `TRUNCATE TABLE t`)
	if res.RowsAffected != 1 {
		t.Fatalf("truncated = %d", res.RowsAffected)
	}
	if got := mustExec(t, s, `SELECT COUNT(*) FROM t`); got.Rows[0][0].Int() != 0 {
		t.Fatal("table not empty after truncate")
	}
}

func TestCreateTableAs(t *testing.T) {
	s := newTestSession(t)
	setupEdges(t, s)
	mustExec(t, s, `CREATE TABLE m AS SELECT src, SUM(weight) AS w FROM edges GROUP BY src`)
	res := mustExec(t, s, `SELECT COUNT(*) FROM m`)
	if res.Rows[0][0].Int() != 4 {
		t.Fatalf("CTAS rows = %v", res.Rows[0])
	}
	res = mustExec(t, s, `SELECT w FROM m WHERE src = 1`)
	if res.Rows[0][0].Float() != 1.0 {
		t.Fatalf("CTAS aggregate = %v", res.Rows[0])
	}
}

func TestIndexLookup(t *testing.T) {
	s := newTestSession(t)
	setupEdges(t, s)
	mustExec(t, s, `CREATE INDEX idx_dst ON edges (dst)`)
	before := s.eng.Stats().RowsScanned
	res := mustExec(t, s, `SELECT src FROM edges WHERE dst = 3 ORDER BY src`)
	if len(res.Rows) != 2 {
		t.Fatalf("index lookup rows = %v", res.Rows)
	}
	after := s.eng.Stats().RowsScanned
	if after-before > 3 {
		t.Errorf("index lookup scanned %d rows, expected a point lookup", after-before)
	}
	// Index stays correct across updates and deletes.
	mustExec(t, s, `UPDATE edges SET dst = 4 WHERE src = 2`)
	res = mustExec(t, s, `SELECT COUNT(*) FROM edges WHERE dst = 3`)
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("after update, dst=3 count = %v", res.Rows[0])
	}
	mustExec(t, s, `DELETE FROM edges WHERE dst = 4`)
	res = mustExec(t, s, `SELECT COUNT(*) FROM edges WHERE dst = 4`)
	if res.Rows[0][0].Int() != 0 {
		t.Fatalf("after delete, dst=4 count = %v", res.Rows[0])
	}
}

func TestPrimaryKeyLookup(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`)
	for i := 0; i < 100; i++ {
		mustExec(t, s, `INSERT INTO t VALUES (?, ?)`, sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i*i)))
	}
	before := s.eng.Stats().RowsScanned
	res := mustExec(t, s, `SELECT v FROM t WHERE id = 7`)
	if res.Rows[0][0].Int() != 49 {
		t.Fatalf("pk lookup = %v", res.Rows[0])
	}
	if got := s.eng.Stats().RowsScanned - before; got > 2 {
		t.Errorf("pk lookup scanned %d rows", got)
	}
}

func TestTransactionsRollback(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 10)`)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO t VALUES (2, 20)`)
	mustExec(t, s, `UPDATE t SET v = 99 WHERE id = 1`)
	mustExec(t, s, `DELETE FROM t WHERE id = 1`)
	mustExec(t, s, `ROLLBACK`)
	res := mustExec(t, s, `SELECT id, v FROM t ORDER BY id`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 || res.Rows[0][1].Int() != 10 {
		t.Fatalf("after rollback: %v", res.Rows)
	}
	// Commit keeps changes.
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO t VALUES (3, 30)`)
	mustExec(t, s, `COMMIT`)
	res = mustExec(t, s, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("after commit: %v", res.Rows[0])
	}
}

func TestOrderByVariants(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE t (a BIGINT, b TEXT)`)
	mustExec(t, s, `INSERT INTO t VALUES (3, 'c'), (1, 'a'), (2, 'b')`)
	res := mustExec(t, s, `SELECT a AS x, b FROM t ORDER BY x DESC`)
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("order by alias: %v", res.Rows)
	}
	res = mustExec(t, s, `SELECT a, b FROM t ORDER BY 2`)
	if res.Rows[0][1].Str() != "a" {
		t.Fatalf("order by ordinal: %v", res.Rows)
	}
	res = mustExec(t, s, `SELECT b FROM t ORDER BY a * -1`)
	if res.Rows[0][0].Str() != "c" {
		t.Fatalf("order by expression: %v", res.Rows)
	}
	res = mustExec(t, s, `SELECT a FROM t ORDER BY a LIMIT 2`)
	if len(res.Rows) != 2 || res.Rows[1][0].Int() != 2 {
		t.Fatalf("limit: %v", res.Rows)
	}
}

func TestValuesStatement(t *testing.T) {
	s := newTestSession(t)
	res := mustExec(t, s, `VALUES (1, 'a'), (2, 'b')`)
	if len(res.Rows) != 2 || res.Columns[0] != "column1" {
		t.Fatalf("values = %v / %v", res.Columns, res.Rows)
	}
}

func TestParthashPartitioning(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY)`)
	for i := 0; i < 64; i++ {
		mustExec(t, s, `INSERT INTO t VALUES (?)`, sqltypes.NewInt(int64(i)))
	}
	total := 0
	for p := 0; p < 4; p++ {
		res := mustExec(t, s, `SELECT COUNT(*) FROM t WHERE PARTHASH(id, 4) = ?`, sqltypes.NewInt(int64(p)))
		n := int(res.Rows[0][0].Int())
		if n == 0 {
			t.Errorf("partition %d empty", p)
		}
		total += n
	}
	if total != 64 {
		t.Fatalf("partitions cover %d rows, want 64", total)
	}
}

func TestNullSemanticsInWhere(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE t (a BIGINT, b DOUBLE)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, NULL), (2, 1.0)`)
	// NULL comparisons filter out (UNKNOWN is not TRUE).
	res := mustExec(t, s, `SELECT a FROM t WHERE b > 0`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustExec(t, s, `SELECT a FROM t WHERE b IS NULL`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// != Infinity pattern from the SSSP query.
	mustExec(t, s, `INSERT INTO t VALUES (3, Infinity)`)
	res = mustExec(t, s, `SELECT a FROM t WHERE b != Infinity`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestInfinityArithmetic(t *testing.T) {
	s := newTestSession(t)
	res := mustExec(t, s, `SELECT Infinity + 1.0, LEAST(Infinity, 5.0)`)
	if !math.IsInf(res.Rows[0][0].Float(), 1) {
		t.Errorf("Infinity + 1 = %v", res.Rows[0][0])
	}
	if res.Rows[0][1].Float() != 5.0 {
		t.Errorf("LEAST(Infinity, 5) = %v", res.Rows[0][1])
	}
}

func TestErrorCases(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE t (a BIGINT)`)
	cases := []string{
		`SELECT * FROM missing`,
		`SELECT nope FROM t`,
		`INSERT INTO missing VALUES (1)`,
		`INSERT INTO t VALUES (1, 2)`,
		`UPDATE missing SET a = 1`,
		`UPDATE t SET nope = 1`,
		`DELETE FROM missing`,
		`CREATE TABLE t (a BIGINT)`,
		`DROP TABLE missing`,
		`CREATE INDEX i ON missing (a)`,
		`CREATE INDEX i ON t (nope)`,
		`SELECT SUM(a) + a FROM t GROUP BY a ORDER BY nope`,
		`SELECT UNKNOWNFUNC(a) FROM t`,
		`SELECT a FROM t WHERE a = ?`, // missing bind arg
		`SELECT (SELECT a, a FROM t WHERE a = 1)`,
	}
	for _, sql := range cases {
		if _, err := s.Exec(sql); err == nil {
			t.Errorf("Exec(%q) succeeded, want error", sql)
		}
	}
	// Iterative CTEs must be rejected by the engine itself.
	if _, err := s.Exec(`WITH ITERATIVE r(id, v) AS (SELECT 1, 2 ITERATE SELECT id, v FROM r UNTIL 1 ITERATIONS) SELECT * FROM r`); err == nil ||
		!strings.Contains(err.Error(), "SQLoop") {
		t.Errorf("iterative CTE error = %v", err)
	}
}

func TestAmbiguousColumn(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE a (id BIGINT)`)
	mustExec(t, s, `CREATE TABLE b (id BIGINT)`)
	mustExec(t, s, `INSERT INTO a VALUES (1)`)
	mustExec(t, s, `INSERT INTO b VALUES (1)`)
	if _, err := s.Exec(`SELECT id FROM a, b`); err == nil {
		t.Fatal("ambiguous column reference must error")
	}
	mustExec(t, s, `SELECT a.id FROM a, b`)
}

func TestBackendProfiles(t *testing.T) {
	for _, name := range []string{"pgsim", "mysim", "mariasim"} {
		t.Run(name, func(t *testing.T) {
			cfg, err := Profile(name)
			if err != nil {
				t.Fatal(err)
			}
			s := New(cfg).NewSession()
			mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, v DOUBLE)`)
			mustExec(t, s, `INSERT INTO t VALUES (2, 2.0), (1, 1.0), (3, 3.0)`)
			mustExec(t, s, `UPDATE t SET v = v * 2 WHERE id = 2`)
			res := mustExec(t, s, `SELECT SUM(v) FROM t`)
			if res.Rows[0][0].Float() != 8.0 {
				t.Fatalf("%s: sum = %v", name, res.Rows[0])
			}
		})
	}
	wantBackend := map[string]storage.Kind{
		"pgsim": storage.KindHeap, "mysim": storage.KindBTree, "mariasim": storage.KindLSM,
	}
	for name, kind := range wantBackend {
		cfg, _ := Profile(name)
		if cfg.Backend != kind {
			t.Errorf("Profile(%s).Backend = %v, want %v", name, cfg.Backend, kind)
		}
	}
	if _, err := Profile("oracle"); err == nil {
		t.Error("unknown profile must error")
	}
}

func TestExecScript(t *testing.T) {
	s := newTestSession(t)
	res, err := s.ExecScript(`
		CREATE TABLE t (a BIGINT);
		INSERT INTO t VALUES (1), (2);
		SELECT SUM(a) FROM t;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("script result = %v", res.Rows)
	}
}

func TestStatsCounters(t *testing.T) {
	s := newTestSession(t)
	setupEdges(t, s)
	st := s.eng.Stats()
	if st.RowsInserted != 6 || st.Statements == 0 {
		t.Errorf("stats = %+v", st)
	}
	mustExec(t, s, `SELECT e1.src FROM edges AS e1 JOIN edges AS e2 ON e1.dst = e2.src`)
	if got := s.eng.Stats(); got.RowsJoined == 0 || got.RowsScanned == 0 {
		t.Errorf("join stats = %+v", got)
	}
}

func TestCostModelCharges(t *testing.T) {
	var slept []int64
	origSleep := sleep
	sleep = func(d time.Duration) { slept = append(slept, int64(d)) }
	defer func() { sleep = origSleep }()

	cfg, _ := Profile("pgsim")
	cfg.Cost = DefaultCost(cfg.Dialect)
	s := New(cfg).NewSession()
	mustExec(t, s, `CREATE TABLE t (a BIGINT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1), (2), (3)`)
	// Charges accrue as debt and only sleep once a full quantum is owed;
	// run enough statements to cross it.
	for i := 0; i < 20; i++ {
		mustExec(t, s, `SELECT COUNT(*) FROM t`)
	}
	if len(slept) == 0 {
		t.Fatal("cost model never charged")
	}
	var total int64
	for _, d := range slept {
		total += d
	}
	if total <= 0 {
		t.Fatalf("total charge = %d", total)
	}
}

func TestCostModelScalesByProfile(t *testing.T) {
	pg := DefaultCost(sqlparser.DialectPGSim)
	my := DefaultCost(sqlparser.DialectMySim)
	w := workCounters{scanned: 1000, joined: 1000, written: 100}
	if my.charge(w) <= pg.charge(w) {
		t.Error("mysim must charge more than pgsim for identical work")
	}
	var nilModel *CostModel
	if nilModel.charge(w) != 0 {
		t.Error("nil cost model must charge zero")
	}
}

// TestRowsGroupedCountsGroupInput checks Stats.RowsGrouped counts each
// row entering a GROUP BY (or a whole-input aggregate) once, on the
// batch and row grouping paths alike, over an input spanning several
// batch windows.
func TestRowsGroupedCountsGroupInput(t *testing.T) {
	const n = bigRows
	for name, cfg := range map[string]Config{
		"batch": {},
		"rows":  {DisableVectorize: true},
	} {
		t.Run(name, func(t *testing.T) {
			eng := New(cfg)
			defer eng.Close()
			s := eng.NewSession()
			mustExec(t, s, `CREATE TABLE g (id BIGINT PRIMARY KEY, k BIGINT)`)
			for i := 0; i < n; i++ {
				mustExec(t, s, `INSERT INTO g VALUES (?, ?)`, sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i%7)))
			}
			for _, q := range []string{
				`SELECT k, COUNT(*) FROM g GROUP BY k`,
				`SELECT SUM(k) FROM g`,
				`SELECT k FROM g WHERE id < 100 GROUP BY k`,
			} {
				before := eng.Stats().RowsGrouped
				mustExec(t, s, q)
				want := int64(n)
				if strings.Contains(q, "id < 100") {
					want = 100
				}
				if got := eng.Stats().RowsGrouped - before; got != want {
					t.Errorf("%s: RowsGrouped grew by %d, want %d", q, got, want)
				}
			}
			if batches, _ := eng.VecStats(); (batches > 0) != !cfg.DisableVectorize {
				t.Errorf("%s path ran %d batches", name, batches)
			}
		})
	}
}

// TestDerivedTableRepeatedColumns: a derived table whose columns repeat
// a name keeps each column's own values under SELECT *, and an outer
// reference to the repeated name is ambiguous, qualified or not.
func TestDerivedTableRepeatedColumns(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE a (id BIGINT, x BIGINT)`)
	mustExec(t, s, `CREATE TABLE b (id BIGINT, y BIGINT)`)
	mustExec(t, s, `INSERT INTO a VALUES (1, 10)`)
	mustExec(t, s, `INSERT INTO b VALUES (2, 20)`)
	const d = `(SELECT * FROM a JOIN b ON a.x < b.y) AS d`
	res := mustExec(t, s, `SELECT * FROM `+d)
	if got := strings.Join(res.Columns, ","); got != "id,x,id,y" {
		t.Errorf("columns = %s, want id,x,id,y", got)
	}
	if len(res.Rows) != 1 || renderRow(res.Rows[0]) != "1 10 2 20" {
		t.Errorf("SELECT * = %v, want [1 10 2 20]", res.Rows)
	}
	res = mustExec(t, s, `SELECT d.* FROM `+d)
	if len(res.Rows) != 1 || renderRow(res.Rows[0]) != "1 10 2 20" {
		t.Errorf("SELECT d.* = %v, want [1 10 2 20]", res.Rows)
	}
	res = mustExec(t, s, `SELECT d.x, y FROM `+d)
	if len(res.Rows) != 1 || renderRow(res.Rows[0]) != "10 20" {
		t.Errorf("SELECT d.x, y = %v, want [10 20]", res.Rows)
	}
	for _, q := range []string{
		`SELECT d.id FROM ` + d,
		`SELECT id FROM ` + d,
		`SELECT x FROM ` + d + ` WHERE d.id > 1`,
		`SELECT x FROM ` + d + ` ORDER BY d.id`,
	} {
		_, err := s.Exec(q)
		if err == nil || !strings.Contains(err.Error(), "ambiguous") {
			t.Errorf("%s: err = %v, want an ambiguous-column error", q, err)
		}
	}
}

// renderRow formats a row's values separated by spaces.
func renderRow(r sqltypes.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return strings.Join(parts, " ")
}

// TestNoopUpdateAllocatesNothingPerRow: an UPDATE whose SET changes no
// value reports 0 changed rows and allocates the same whether the table
// holds 1k or 4k rows (the stored row is cloned only when a value
// differs).
func TestNoopUpdateAllocatesNothingPerRow(t *testing.T) {
	allocs := func(n int) float64 {
		s := newTestSession(t)
		mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, v DOUBLE, w BIGINT)`)
		for i := 0; i < n; i++ {
			mustExec(t, s, `INSERT INTO t VALUES (?, 1.5, ?)`, sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i)))
		}
		const q = `UPDATE t SET v = v * 1.0, w = w`
		if res := mustExec(t, s, q); res.RowsAffected != 0 {
			t.Fatalf("no-op UPDATE changed %d rows", res.RowsAffected)
		}
		return testing.AllocsPerRun(5, func() {
			if res, err := s.Exec(q); err != nil || res.RowsAffected != 0 {
				t.Fatalf("no-op UPDATE: %v, %v", res, err)
			}
		})
	}
	small, large := allocs(1000), allocs(4000)
	if large-small > 50 {
		t.Errorf("no-op UPDATE allocs grew from %.0f (1k rows) to %.0f (4k rows); want O(1) per row", small, large)
	}
	// A changing UPDATE still counts and stores every changed row.
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT, w BIGINT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 1, 5), (2, 2, 5), (3, 3, 5)`)
	if res := mustExec(t, s, `UPDATE t SET w = 5, v = v * 2 - 1`); res.RowsAffected != 2 {
		t.Errorf("UPDATE changed %d rows, want 2", res.RowsAffected)
	}
	res := mustExec(t, s, `SELECT v, w FROM t ORDER BY id`)
	got := []string{renderRow(res.Rows[0]), renderRow(res.Rows[1]), renderRow(res.Rows[2])}
	if strings.Join(got, "|") != "1 5|3 5|5 5" {
		t.Errorf("after UPDATE rows = %v", got)
	}
}

// TestIndexReadsCountRows pins engine.rows_scanned for reads served by
// an index: a lookup adds the rows it returns and an index join adds
// the partners it reads, as a full scan adds every row it reads.
func TestIndexReadsCountRows(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE m (id BIGINT, part BIGINT)`)
	for i := 0; i < 30; i++ {
		mustExec(t, s, `INSERT INTO m VALUES (?, ?)`, sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i%3)))
	}
	mustExec(t, s, `CREATE INDEX m_part ON m (part)`)
	mustExec(t, s, `CREATE TABLE d (part BIGINT)`)
	mustExec(t, s, `INSERT INTO d VALUES (1), (2)`)

	before := s.eng.Stats().RowsScanned
	res := mustExec(t, s, `SELECT id FROM m WHERE part = 1`)
	if got := s.eng.Stats().RowsScanned - before; got != int64(len(res.Rows)) || got != 10 {
		t.Errorf("lookup of %d rows added %d to rows scanned, want 10", len(res.Rows), got)
	}

	before = s.eng.Stats().RowsScanned
	res = mustExec(t, s, `SELECT d.part, m.id FROM d JOIN m ON d.part = m.part`)
	// Two rows of d scanned, then ten partners read through the index
	// for each.
	if got := s.eng.Stats().RowsScanned - before; got != 2+20 || len(res.Rows) != 20 {
		t.Errorf("index join of %d rows added %d to rows scanned, want 22", len(res.Rows), got)
	}
}
