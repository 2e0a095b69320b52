package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sqloop/internal/sqlparser"
	"sqloop/internal/sqltypes"
)

// newVecTestPair returns two sessions over identically-loaded engines,
// both with the expression compiler on: one running the batch
// (vectorized) path, one pinned to row-at-a-time execution.
func newVecTestPair(t *testing.T, load func(t *testing.T, s *Session)) (vecOn, vecOff *Session) {
	t.Helper()
	vecOn = New(Config{}).NewSession()
	vecOff = New(Config{DisableVectorize: true}).NewSession()
	load(t, vecOn)
	load(t, vecOff)
	return vecOn, vecOff
}

// bigRows sizes the large fixtures to span several batch windows.
const bigRows = 3000

// loadBigCorpus loads the large-fixture tables: big (NULL rows,
// exact-binary floats, repeated group keys) and dim (duplicate and NULL
// join keys, itself several windows long).
func loadBigCorpus(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE big (id BIGINT PRIMARY KEY, a BIGINT, f DOUBLE, name TEXT, flag BOOLEAN)`)
	for i := 0; i < bigRows; i++ {
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

// bigCorpus runs every batch operator (filter, projection, grouping,
// join build and probe) over many windows, plus the stages downstream
// of them (DISTINCT, ORDER BY, HAVING, LIMIT). Queries without ORDER BY
// pin the raw output row and group order across windows.
var bigCorpus = []string{
	// Filters through the batch kernels.
	`SELECT id, a FROM big WHERE a * 2 + 1 > 40 ORDER BY id`,
	`SELECT id FROM big WHERE a IS NULL ORDER BY id`,
	`SELECT id FROM big WHERE flag OR a > 55 ORDER BY id`,
	`SELECT id FROM big WHERE name LIKE 'n_1%' ORDER BY id`,
	`SELECT COUNT(*) FROM big WHERE f BETWEEN 1.0 AND 4.5`,
	`SELECT id, a FROM big WHERE a % 7 = 3`, // no ORDER BY: raw row order
	// Projections.
	`SELECT id, a * 2, f + 0.5, name FROM big ORDER BY id LIMIT 50`,
	`SELECT id, CASE WHEN a > 30 THEN 'hi' ELSE 'lo' END, COALESCE(a, -1) FROM big ORDER BY id LIMIT 40 OFFSET 2950`,
	`SELECT id, a FROM big`, // full projection, raw row order
	// Grouping: NULL keys, expression keys, floats, HAVING, DISTINCT agg.
	`SELECT a, COUNT(*), SUM(f) FROM big GROUP BY a ORDER BY 1`,
	`SELECT a % 7, MIN(f), MAX(f), AVG(f) FROM big WHERE a IS NOT NULL GROUP BY a % 7 ORDER BY 1`,
	`SELECT a, COUNT(*) FROM big GROUP BY a HAVING COUNT(*) > 40 ORDER BY a`,
	`SELECT flag, COUNT(DISTINCT a) FROM big GROUP BY flag ORDER BY 1`,
	`SELECT name, SUM(a), COUNT(*) FROM big GROUP BY name ORDER BY 1`,
	`SELECT a, COUNT(*) FROM big GROUP BY a`, // no ORDER BY: first-seen group order
	`SELECT COUNT(*), SUM(a), MIN(f), MAX(name), AVG(f) FROM big`,
	`SELECT SUM(a) FROM big WHERE a > 1000`, // empty input, global aggregate
	// Hash joins over a multi-window build and probe.
	`SELECT COUNT(*) FROM big JOIN dim ON big.a = dim.a`,
	`SELECT big.id, dim.label FROM big JOIN dim ON big.a = dim.a AND big.id > 2900 ORDER BY big.id, dim.label`,
	`SELECT COUNT(*) FROM big LEFT JOIN dim ON big.a = dim.a`,
	`SELECT big.id, dim.label FROM big JOIN dim ON big.a = dim.a WHERE big.id % 101 = 0`, // no ORDER BY
	// DISTINCT and set ops over batch-projected outputs.
	`SELECT DISTINCT a FROM big ORDER BY 1`,
	`SELECT a FROM big WHERE a < 5 UNION SELECT a FROM dim WHERE a < 5 ORDER BY 1`,
}

// checkVecVsRow runs corpus on a vectorized and a row-at-a-time engine,
// both loaded by load, and requires identical results or identical
// errors, batches on the vectorized side and none on the row side.
func checkVecVsRow(t *testing.T, load func(t *testing.T, s *Session), corpus []string) {
	t.Helper()
	vecOn, vecOff := newVecTestPair(t, load)
	for _, q := range corpus {
		got, err1 := vecOn.Exec(q)
		want, err2 := vecOff.Exec(q)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s:\nvec err = %v\nrow err = %v", q, err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("%s: error mismatch:\nvec: %v\nrow: %v", q, err1, err2)
			}
			continue
		}
		if g, w := renderResult(got), renderResult(want); g != w {
			t.Fatalf("%s:\nvec:\n%s\nrow:\n%s", q, g, w)
		}
	}
	if batches, _ := vecOn.eng.VecStats(); batches == 0 {
		t.Errorf("vectorized engine ran zero batches over the corpus")
	}
	if batches, fallbacks := vecOff.eng.VecStats(); batches != 0 || fallbacks != 0 {
		t.Errorf("DisableVectorize engine ran %d batches, %d fallbacks", batches, fallbacks)
	}
}

// TestVectorizedLargeCorpusEquivalence runs the large corpus, whose
// inputs span many batch windows, on the batch path and row-at-a-time:
// results must render type-exactly identical, including the raw row and
// group order of the queries without ORDER BY.
func TestVectorizedLargeCorpusEquivalence(t *testing.T) {
	checkVecVsRow(t, loadBigCorpus, bigCorpus)
}

// TestVectorizedVsRowEquivalence pins the batch path to bit-identical
// results against row-at-a-time execution over the full compile-test
// corpus plus vec-specific shapes (batch-boundary row counts, LIKE
// kernels, logical narrowing, hash-sensitive group keys).
func TestVectorizedVsRowEquivalence(t *testing.T) {
	small := []string{
		// Filters through the native kernels.
		`SELECT id, a FROM nums WHERE a * 2 + 1 > 7 ORDER BY id`,
		`SELECT id FROM nums WHERE a IS NULL ORDER BY id`,
		`SELECT id FROM nums WHERE NOT (flag AND a > 3) ORDER BY id`,
		`SELECT id FROM nums WHERE a IN (1, 3, 5, NULL) ORDER BY id`,
		`SELECT id FROM nums WHERE f BETWEEN 3.0 AND 12.5 ORDER BY id`,
		`SELECT id FROM nums WHERE flag OR a > 6 ORDER BY id`,
		`SELECT id FROM nums WHERE name LIKE 'row_1%' ORDER BY id`,
		`SELECT id FROM nums WHERE name NOT LIKE '%_3' ORDER BY id`,
		// Projections: mixed kernel/adapter items, NULL columns.
		`SELECT id, a * 2, f + 0.5, name FROM nums ORDER BY id`,
		`SELECT id, CASE WHEN a > 5 THEN 'hi' ELSE 'lo' END, COALESCE(a, -1) FROM nums ORDER BY id`,
		`SELECT id, CAST(f AS BIGINT), UPPER(name) FROM nums ORDER BY id`,
		// Grouping: expression keys, NULL keys, hash-sensitive floats.
		`SELECT a, COUNT(*), SUM(f) FROM nums GROUP BY a ORDER BY 1`,
		`SELECT a % 3, MIN(f), MAX(f), AVG(f) FROM nums WHERE a IS NOT NULL GROUP BY a % 3 ORDER BY 1`,
		`SELECT a, COUNT(*) FROM nums GROUP BY a HAVING COUNT(*) > 4 ORDER BY a`,
		`SELECT flag, COUNT(DISTINCT a) FROM nums GROUP BY flag ORDER BY 1`,
		`SELECT k, COUNT(*), SUM(v) FROM mix GROUP BY k ORDER BY 2, 3`,
		`SELECT COUNT(*), SUM(a), MIN(f), MAX(name), AVG(f) FROM nums`,
		`SELECT SUM(a) FROM nums WHERE a > 100`, // empty input, global aggregate
		// DISTINCT and set operations over batch-projected outputs.
		`SELECT DISTINCT a FROM nums ORDER BY 1`,
		`SELECT DISTINCT k FROM mix ORDER BY 1`,
		`SELECT a FROM nums UNION SELECT a FROM other ORDER BY 1`,
		`SELECT a FROM nums EXCEPT SELECT a FROM other ORDER BY 1`,
		// Hash-join probe: plain, residual, left join, NULL keys.
		`SELECT n.id, o.label FROM nums AS n JOIN other AS o ON n.a = o.a ORDER BY n.id, o.label`,
		`SELECT n.id, o.label FROM nums AS n JOIN other AS o ON n.a = o.a AND n.id > 10 ORDER BY n.id, o.label`,
		`SELECT n.id, o.label FROM nums AS n LEFT JOIN other AS o ON n.a = o.a ORDER BY n.id, o.label`,
		`SELECT n.id, o.a FROM nums AS n JOIN other AS o ON n.a + 1 = o.a + 1 ORDER BY n.id, o.a`,
		// ORDER BY that must keep row environments (disables batch
		// projection) next to ordinal/alias sorts that drop them.
		`SELECT id, a AS alias_a FROM nums ORDER BY alias_a, id`,
		`SELECT id, f FROM nums ORDER BY 2 DESC, 1`,
		`SELECT id FROM nums ORDER BY a * -1, id DESC`,
		// Subqueries ride the adapter nodes.
		`SELECT id FROM nums WHERE a = (SELECT MIN(a) FROM nums) ORDER BY id`,
		`SELECT id FROM nums WHERE EXISTS (SELECT 1 FROM other WHERE other.a = nums.a) ORDER BY id`,
		// LIMIT/OFFSET over batch-projected outputs.
		`SELECT id FROM nums ORDER BY id LIMIT 5 OFFSET 3`,
		`SELECT id FROM nums LIMIT 0`,
	}
	checkVecVsRow(t, loadCompileCorpus, small)
}

// TestVecBatchBoundaries runs batch-kernel queries over row counts
// straddling the window size (empty, one short window, exactly one
// window, one full plus a one-row tail).
func TestVecBatchBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, 1023, 1024, 1025, 2500} {
		vecOn, vecOff := newVecTestPair(t, func(t *testing.T, s *Session) {
			mustExec(t, s, `CREATE TABLE t (a BIGINT, b BIGINT)`)
			for i := 0; i < n; i++ {
				mustExec(t, s, `INSERT INTO t VALUES (?, ?)`,
					sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i%13)))
			}
		})
		for _, q := range []string{
			`SELECT a FROM t WHERE b < 7 AND a % 3 = 1 ORDER BY a`,
			`SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b ORDER BY 1`,
			`SELECT COUNT(*) FROM t AS x JOIN t AS y ON x.a = y.a + 1`,
		} {
			got := renderResult(mustExec(t, vecOn, q))
			want := renderResult(mustExec(t, vecOff, q))
			if got != want {
				t.Fatalf("n=%d %s:\nvec:\n%s\nrow:\n%s", n, q, got, want)
			}
		}
	}
}

// TestVecShortCircuitErrorSuppression: AND/OR narrowing must not
// evaluate the right side on rows the left side already decided — the
// row path's short-circuit suppresses a division by zero there, so the
// batch path has to as well.
func TestVecShortCircuitErrorSuppression(t *testing.T) {
	vecOn, vecOff := newVecTestPair(t, func(t *testing.T, s *Session) {
		mustExec(t, s, `CREATE TABLE t (a BIGINT)`)
		mustExec(t, s, `INSERT INTO t VALUES (0), (1), (2), (0), (5)`)
	})
	for _, q := range []string{
		`SELECT a FROM t WHERE a != 0 AND 10 % a >= 0 ORDER BY a`,
		`SELECT a FROM t WHERE a = 0 OR 10 / a > 1 ORDER BY a`,
	} {
		got, err1 := vecOn.Exec(q)
		want, err2 := vecOff.Exec(q)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: vec err %v, row err %v", q, err1, err2)
		}
		if g, w := renderResult(got), renderResult(want); g != w {
			t.Fatalf("%s:\nvec:\n%s\nrow:\n%s", q, g, w)
		}
	}
}

// TestVecFallbackReproducesRowErrors: when a kernel errors mid-batch,
// the window re-runs row-at-a-time and must surface exactly the row
// path's error.
func TestVecFallbackReproducesRowErrors(t *testing.T) {
	vecOn, vecOff := newVecTestPair(t, func(t *testing.T, s *Session) {
		mustExec(t, s, `CREATE TABLE t (a BIGINT, b BIGINT)`)
		mustExec(t, s, `INSERT INTO t VALUES (1, 2), (2, 0), (3, 4)`)
	})
	for _, q := range []string{
		`SELECT a FROM t WHERE 10 / b > 1`,                     // filter kernel error
		`SELECT a, 10 / b FROM t`,                              // projection kernel error
		`SELECT b, SUM(10 / b) FROM t GROUP BY b`,              // grouped argument error
		`SELECT x.a FROM t AS x JOIN t AS y ON 10 / x.b = y.a`, // probe key error
	} {
		_, err1 := vecOn.Exec(q)
		_, err2 := vecOff.Exec(q)
		if err1 == nil || err2 == nil {
			t.Fatalf("%s: expected errors, vec %v, row %v", q, err1, err2)
		}
		if err1.Error() != err2.Error() {
			t.Fatalf("%s: error mismatch:\nvec: %v\nrow: %v", q, err1, err2)
		}
	}
	if _, fallbacks := vecOn.eng.VecStats(); fallbacks == 0 {
		t.Errorf("expected batch fallbacks, got none")
	}
}

// TestVecErrorIdentityAcrossWindows pins the first-error-in-row-order
// contract over many batch windows: two distinct failing rows live in
// different windows, and the batch path must surface exactly the row
// path's error — the one from the lower-indexed row — for filters,
// projections, grouped aggregates and join build and probe keys.
func TestVecErrorIdentityAcrossWindows(t *testing.T) {
	vecOn, vecOff := newVecTestPair(t, func(t *testing.T, s *Session) {
		mustExec(t, s, `CREATE TABLE t (a BIGINT, b BIGINT, name TEXT)`)
		for i := 0; i < 4000; i++ {
			b := int64(i%7 + 1)
			name := fmt.Sprintf("%d", i)
			switch i {
			case 2100: // third window
				b, name = 0, "badA"
			case 3500: // fourth window
				b, name = 0, "badB"
			}
			mustExec(t, s, `INSERT INTO t VALUES (?, ?, ?)`,
				sqltypes.NewInt(int64(i)), sqltypes.NewInt(b), sqltypes.NewString(name))
		}
	})
	for _, q := range []string{
		`SELECT a FROM t WHERE 10 / b > 1`,                          // filter kernel error
		`SELECT a, 10 / b FROM t`,                                   // projection kernel error
		`SELECT CAST(name AS BIGINT) FROM t WHERE a >= 2000`,        // value-carrying error: must name badA, not badB
		`SELECT b, SUM(10 / b) FROM t GROUP BY b`,                   // grouped argument error
		`SELECT x.a FROM t AS x JOIN t AS y ON 10 / x.b = y.a`,      // probe key error
		`SELECT COUNT(*) FROM t AS x JOIN t AS y ON x.a = 10 / y.b`, // build key error
	} {
		_, err1 := vecOn.Exec(q)
		_, err2 := vecOff.Exec(q)
		if err1 == nil || err2 == nil {
			t.Fatalf("%s: expected errors, vec %v, row %v", q, err1, err2)
		}
		if err1.Error() != err2.Error() {
			t.Fatalf("%s: error mismatch:\nvec: %v\nrow: %v", q, err1, err2)
		}
		if strings.Contains(err1.Error(), "badB") {
			t.Fatalf("%s: error names the later row: %v", q, err1)
		}
	}
}

// TestVecDisabledByExprCompile: the batch path rides on compiled
// programs, so DisableExprCompile alone must keep it off.
func TestVecDisabledByExprCompile(t *testing.T) {
	eng := New(Config{DisableExprCompile: true})
	s := eng.NewSession()
	mustExec(t, s, `CREATE TABLE t (a BIGINT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1), (2), (3)`)
	mustExec(t, s, `SELECT a * 2 FROM t WHERE a > 1 ORDER BY a`)
	if batches, _ := eng.VecStats(); batches != 0 {
		t.Errorf("DisableExprCompile engine ran %d batches", batches)
	}
}

// mutateSelect parses sql and returns the statement plus its Select
// core for AST surgery (the parser rejects negative LIMIT/OFFSET
// literals, so the panics only reproduce via programmatically-built
// trees through ExecStmt).
func mutateSelect(t *testing.T, sql string) (sqlparser.Statement, *sqlparser.Select) {
	t.Helper()
	st, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := st.(*sqlparser.SelectStmt)
	if !ok {
		t.Fatalf("parsed %T, want *SelectStmt", st)
	}
	core, ok := sel.Body.(*sqlparser.Select)
	if !ok {
		t.Fatalf("body %T, want *Select", sel.Body)
	}
	return st, core
}

// TestNegativeLimitOffsetTypedError: negative LIMIT/OFFSET used to
// panic slicing the output ("slice bounds out of range"); they must
// return ErrInvalidLimit instead.
func TestNegativeLimitOffsetTypedError(t *testing.T) {
	s := New(Config{}).NewSession()
	mustExec(t, s, `CREATE TABLE t (a BIGINT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1), (2), (3)`)

	st, core := mutateSelect(t, `SELECT a FROM t LIMIT 1`)
	*core.Limit = -1
	if _, err := s.ExecStmt(st, nil); err == nil {
		t.Fatal("negative LIMIT: expected error, got nil")
	} else {
		var il *ErrInvalidLimit
		if !errors.As(err, &il) || il.Clause != "LIMIT" || il.N != -1 {
			t.Fatalf("negative LIMIT: got %v, want ErrInvalidLimit{LIMIT, -1}", err)
		}
	}

	st, core = mutateSelect(t, `SELECT a FROM t LIMIT 1 OFFSET 1`)
	*core.Offset = -1
	if _, err := s.ExecStmt(st, nil); err == nil {
		t.Fatal("negative OFFSET: expected error, got nil")
	} else {
		var il *ErrInvalidLimit
		if !errors.As(err, &il) || il.Clause != "OFFSET" || il.N != -1 {
			t.Fatalf("negative OFFSET: got %v, want ErrInvalidLimit{OFFSET, -1}", err)
		}
	}

	// Set operations share the slicing code path.
	stu, err := sqlparser.Parse(`SELECT a FROM t UNION ALL SELECT a FROM t LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	setOp, ok := stu.(*sqlparser.SelectStmt).Body.(*sqlparser.SetOp)
	if !ok {
		t.Fatalf("body %T, want *SetOp", stu.(*sqlparser.SelectStmt).Body)
	}
	if setOp.Limit == nil {
		t.Fatal("UNION LIMIT not parsed onto the set operation")
	}
	*setOp.Limit = -1
	if _, err := s.ExecStmt(stu, nil); err == nil {
		t.Fatal("negative UNION LIMIT: expected error, got nil")
	} else {
		var il *ErrInvalidLimit
		if !errors.As(err, &il) || il.Clause != "LIMIT" {
			t.Fatalf("negative UNION LIMIT: got %v, want ErrInvalidLimit", err)
		}
	}

	// LIMIT 0 is valid and returns an empty relation.
	res, err := s.Exec(`SELECT a FROM t LIMIT 0`)
	if err != nil {
		t.Fatalf("LIMIT 0: %v", err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", len(res.Rows))
	}
}

// --- micro-benchmarks -------------------------------------------------

// benchStatementVec runs one prepared statement with the batch path on
// and off (both compiled) as vec/rowpath sub-benchmarks.
func benchStatementVec(b *testing.B, sql string) {
	for name, disable := range map[string]bool{"rowpath": true, "vec": false} {
		b.Run(name, func(b *testing.B) {
			s := New(Config{DisableVectorize: disable}).NewSession()
			exec := func(q string, args ...sqltypes.Value) {
				if _, err := s.Exec(q, args...); err != nil {
					b.Fatalf("Exec(%q): %v", q, err)
				}
			}
			exec(`CREATE TABLE t (a BIGINT, b BIGINT)`)
			exec(`CREATE TABLE u (a BIGINT, b BIGINT)`)
			for i := 0; i < 1000; i++ {
				exec(`INSERT INTO t VALUES (?, ?)`, sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64((i*37)%1000)))
			}
			for i := 0; i < 250; i++ {
				exec(`INSERT INTO u VALUES (?, ?)`, sqltypes.NewInt(int64(i*3)), sqltypes.NewInt(int64(i)))
			}
			h, err := s.Prepare(sql)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.ExecPrepared(h, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ExecPrepared(h, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVecFilter(b *testing.B) {
	benchStatementVec(b, `SELECT a FROM t WHERE b < 500 AND a % 7 = 1`)
}

func BenchmarkVecGroupBy(b *testing.B) {
	benchStatementVec(b, `SELECT a % 10, COUNT(*), SUM(b) FROM t GROUP BY a % 10`)
}

func BenchmarkVecJoinProbe(b *testing.B) {
	benchStatementVec(b, `SELECT COUNT(*) FROM t JOIN u ON t.a = u.a WHERE u.b >= 0`)
}
