package engine

import (
	"fmt"
	"math"
	"regexp"
	"testing"

	"sqloop/internal/sqltypes"
	"sqloop/internal/storage"
)

// Predicate pushdown must be invisible: a WHERE over a join and the same
// WHERE over that join wrapped in a derived table (which the engine
// never pushes into) must give bit-identical rows, and raise in both
// forms or in neither.

var (
	pdNaN  = sqltypes.NewFloat(math.NaN())
	pdInf  = sqltypes.NewFloat(math.Inf(1))
	pdNInf = sqltypes.NewFloat(math.Inf(-1))
)

func pdF(f float64) sqltypes.Value { return sqltypes.NewFloat(f) }
func pdS(s string) sqltypes.Value  { return sqltypes.NewString(s) }

// loadPushdownCorpus loads three small tables whose join keys and
// values include NULL, NaN and ±Infinity. Every table has a unique row
// number (ra, rb, rc) to order by, and a and b share the column id so
// an unqualified id is ambiguous across the join. b.bk carries a hash
// index (index nested-loop joins) and c none (hash joins). a.am mixes
// numbers with one string on a row whose key matches nothing, so
// comparing it with a number raises on that row only; the same row
// makes 1 / (a.ra - 8) divide by zero.
func loadPushdownCorpus(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE a (id BIGINT, ra BIGINT PRIMARY KEY, ak DOUBLE, ax DOUBLE, at TEXT, am ANY)`)
	mustExec(t, s, `CREATE TABLE b (id BIGINT, rb BIGINT PRIMARY KEY, bk DOUBLE, bx DOUBLE, bt TEXT)`)
	mustExec(t, s, `CREATE INDEX b_bk ON b (bk)`)
	mustExec(t, s, `CREATE TABLE c (rc BIGINT, ck DOUBLE, cx DOUBLE)`)
	null := sqltypes.Null
	for i, r := range [][]sqltypes.Value{
		{pdF(1), pdF(1.5), pdS("x"), pdF(1)},
		{pdF(2), pdF(-1), pdS("7"), pdF(2)},
		{pdNaN, pdNaN, pdS("boom"), pdNaN},
		{pdInf, pdInf, null, null},
		{pdNInf, pdF(0), pdS("3"), pdF(-5)},
		{null, null, pdS("y"), pdF(3)},
		{pdF(2), pdF(2.5), pdS("12"), pdInf},
		{pdF(99), pdF(3), pdS("boom"), pdS("str")},
		{pdNaN, pdF(1), pdS("b1"), pdF(0)},
	} {
		n := sqltypes.NewInt(int64(i + 1))
		mustExec(t, s, `INSERT INTO a VALUES (?, ?, ?, ?, ?, ?)`, append([]sqltypes.Value{n, n}, r...)...)
	}
	for i, r := range [][]sqltypes.Value{
		{pdF(1), pdF(10), pdS("1")},
		{pdF(2), null, pdS("4")},
		{pdF(2), pdF(-3), pdS("5")},
		{pdInf, pdNaN, null},
		{pdNaN, pdF(4), pdS("8")},
		{null, pdF(1), pdS("w")},
		{pdF(50), pdF(2), pdS("nope")},
		{pdNInf, pdNInf, pdS("2")},
	} {
		n := sqltypes.NewInt(int64(i + 1))
		mustExec(t, s, `INSERT INTO b VALUES (?, ?, ?, ?, ?)`, append([]sqltypes.Value{n, n}, r...)...)
	}
	for i, r := range [][]sqltypes.Value{
		{pdF(10), pdF(1)}, {null, pdF(2)}, {pdF(-3), pdNaN}, {pdF(4), pdInf},
		{pdF(1), pdF(-1)}, {pdInf, pdF(1.5)},
	} {
		mustExec(t, s, `INSERT INTO c VALUES (?, ?, ?)`, append([]sqltypes.Value{sqltypes.NewInt(int64(i + 1))}, r...)...)
	}
}

// pdQualifier matches a table qualifier of the corpus; the wrapped form
// drops them, since every column but id is unique across a, b and c.
var pdQualifier = regexp.MustCompile(`\b[abc]\.`)

// pushdownPair renders a case in both forms: the WHERE over the join,
// and over the join wrapped in a derived table. cols lists the output
// columns, leaving out id (a derived table with two id columns makes
// an outer id ambiguous).
func pushdownPair(from, cols, where string) (joined, wrapped string) {
	joined = fmt.Sprintf("SELECT %s FROM %s WHERE %s ORDER BY %s", cols, from, where, cols)
	cols = pdQualifier.ReplaceAllString(cols, "")
	wrapped = fmt.Sprintf("SELECT %s FROM (SELECT * FROM %s) AS d WHERE %s ORDER BY %s",
		cols, from, pdQualifier.ReplaceAllString(where, ""), cols)
	return joined, wrapped
}

const (
	pdA = "a.ra, a.ak, a.ax, a.at, a.am"
	pdB = "b.rb, b.bk, b.bx, b.bt"
	pdC = "c.rc, c.ck, c.cx"
)

// pushdownJoins covers index, hash, cross and nested-loop (residual ON)
// joins, inner and left, two and three way, and an ON naming a missing
// column.
var pushdownJoins = []struct{ from, cols string }{
	{"a JOIN b ON a.ak = b.bk", pdA + ", " + pdB},
	{"a LEFT JOIN b ON a.ak = b.bk", pdA + ", " + pdB},
	{"b JOIN a ON b.bk = a.ra", pdB + ", " + pdA},
	{"a JOIN c ON a.ax = c.cx", pdA + ", " + pdC},
	{"a LEFT JOIN c ON c.cx = a.ax", pdA + ", " + pdC},
	{"a JOIN b ON a.ak = b.bk JOIN c ON b.bx = c.ck", pdA + ", " + pdB + ", " + pdC},
	{"a LEFT JOIN b ON a.ak = b.bk LEFT JOIN c ON b.bx = c.ck", pdA + ", " + pdB + ", " + pdC},
	{"a JOIN b ON a.ak = b.bk LEFT JOIN c ON c.ck = b.bx", pdA + ", " + pdB + ", " + pdC},
	{"a LEFT JOIN b ON a.ak = b.bk JOIN c ON a.ax = c.cx", pdA + ", " + pdB + ", " + pdC},
	{"a CROSS JOIN c", pdA + ", " + pdC},
	{"a JOIN c ON a.ax = c.cx AND a.ak < c.ck", pdA + ", " + pdC},
	{"a LEFT JOIN c ON a.ax = c.cx AND CAST(a.at AS BIGINT) > 0", pdA + ", " + pdC},
	{"a JOIN b ON a.ak = b.nosuch", pdA + ", " + pdB},
}

// pushdownWheres mixes left-only, right-only and two-sided predicates,
// NULL and NaN tests, an ambiguous unqualified column, predicates that
// raise on some rows (division by zero, casts, mixed-kind comparisons),
// a bind parameter and a subquery.
var pushdownWheres = []string{
	"a.ax > 1",
	"a.ra > 100",
	"b.bx < 5",
	"c.cx > 0",
	"a.ax IS NULL",
	"b.bx IS NULL",
	"c.cx IS NULL",
	"b.bt = 'nope' OR b.bx IS NULL",
	"NOT (a.ax > 0) OR a.at IS NULL",
	"a.ax = a.ax",
	"a.ax > 0 OR b.bx > 0",
	"a.ax > 0 AND c.cx < 2",
	"ax > 1",
	"id > 1",
	"a.ak IN (1.0, 2.0) AND a.at LIKE '%'",
	"COALESCE(a.ax, 0) >= 1.5",
	"1 / (a.ra - 8) > 0",
	"CAST(a.at AS BIGINT) > 0",
	"a.am > 1",
	"a.ax > 0 AND a.am > 1",
	"CAST(b.bt AS BIGINT) > 1",
	"a.ax > ?",
	"a.ax > (SELECT MIN(ck) FROM c)",
}

// pushdownEngines is the matrix every case runs on: each storage
// backend, plus the interpreter on the heap.
func pushdownEngines() map[string]Config {
	return map[string]Config{
		"heap":   {Backend: storage.KindHeap},
		"btree":  {Backend: storage.KindBTree},
		"lsm":    {Backend: storage.KindLSM},
		"disk":   {Backend: storage.KindDisk},
		"interp": {Backend: storage.KindHeap, DisableExprCompile: true},
	}
}

// comparePushdown runs both forms of one case and fails unless they
// agree; it reports whether the case produced rows without raising.
func comparePushdown(t *testing.T, s *Session, joined, wrapped string, args ...sqltypes.Value) bool {
	t.Helper()
	jr, jerr := s.Exec(joined, args...)
	wr, werr := s.Exec(wrapped, args...)
	switch {
	case (jerr == nil) != (werr == nil):
		t.Errorf("%s\n  joined err=%v\n  wrapped err=%v", joined, jerr, werr)
		return false
	case jerr != nil:
		return false
	}
	if got, want := renderResult(jr), renderResult(wr); got != want {
		t.Errorf("%s\n  joined:\n%s  wrapped:\n%s", joined, got, want)
	}
	return len(jr.Rows) > 0
}

func TestPushdownMatchesDerivedTable(t *testing.T) {
	for name, cfg := range pushdownEngines() {
		t.Run(name, func(t *testing.T) {
			eng := New(cfg)
			defer eng.Close()
			s := eng.NewSession()
			loadPushdownCorpus(t, s)
			nonEmpty, erred := 0, 0
			for _, j := range pushdownJoins {
				for _, w := range pushdownWheres {
					joined, wrapped := pushdownPair(j.from, j.cols, w)
					if comparePushdown(t, s, joined, wrapped, pdF(0.5)) {
						nonEmpty++
					} else if _, err := s.Exec(joined, pdF(0.5)); err != nil {
						erred++
					}
				}
			}
			// Guard against a corpus that only ever errors or returns
			// nothing, which would compare trivially.
			total := len(pushdownJoins) * len(pushdownWheres)
			if nonEmpty < total/2 || erred == 0 {
				t.Fatalf("%d of %d cases returned rows, %d raised", nonEmpty, total, erred)
			}
		})
	}
}

// TestPushdownRaisingRows pins the error cases by name: a predicate
// that raises only on a row without a join partner must not fail an
// inner join (nor a LEFT JOIN's right side), and must fail a LEFT JOIN,
// which keeps that row. A raising row that has a partner must fail an
// inner join too, whether the WHERE was pushed into a join input or into
// an index join's looked-up rows: the full WHERE runs again over the
// joined rows only when the pushed copy raised.
func TestPushdownRaisingRows(t *testing.T) {
	s := newTestSession(t)
	loadPushdownCorpus(t, s)
	for _, tc := range []struct {
		from, where string
		fails       bool
	}{
		{"a JOIN b ON a.ak = b.bk", "1 / (a.ra - 8) > 0", false},
		{"a JOIN b ON a.ak = b.bk", "a.am > 1", false},
		{"a JOIN c ON a.ax = c.cx", "a.am > 1", false},
		{"a LEFT JOIN b ON a.ak = b.bk", "1 / (a.ra - 8) > 0", true},
		{"a LEFT JOIN b ON a.ak = b.bk", "a.am > 1", true},
		{"a JOIN b ON a.ak = b.bk", "CAST(b.bt AS BIGINT) > 1", false},
		{"a JOIN b ON a.ak = b.bk", "id > 1", true},
		// a.ra 1 ('x', ak 1.0) raises and has a partner in c.
		{"a JOIN c ON a.ak = c.cx", "CAST(a.at AS BIGINT) > 0", true},
		// b.rb 1 (bk 1.0, index-joined) raises and has a partner in a.
		{"a JOIN b ON a.ak = b.bk", "1 / (b.rb - 1) > 0", true},
	} {
		joined, wrapped := pushdownPair(tc.from, "a.ra", tc.where)
		comparePushdown(t, s, joined, wrapped)
		if _, err := s.Exec(joined); (err != nil) != tc.fails {
			t.Errorf("%s: err = %v, want failure %v", joined, err, tc.fails)
		}
	}
}

// TestPushdownShrinksJoin checks that the pushdown engages: a filter on
// the probe side leaves only its matching rows to probe, so
// Stats.RowsJoined counts just their partners; a right-only filter under
// LEFT JOIN stays above the join.
func TestPushdownShrinksJoin(t *testing.T) {
	eng := New(Config{})
	defer eng.Close()
	s := eng.NewSession()
	loadPushdownCorpus(t, s)
	joinedBy := func(sql string) int64 {
		before := eng.Stats().RowsJoined
		mustExec(t, s, sql)
		return eng.Stats().RowsJoined - before
	}
	for _, tc := range []struct {
		sql  string
		want int64
	}{
		// Only a.ra = 1 (ak 1.0) passes; it has one partner in b.
		{"SELECT * FROM a JOIN b ON a.ak = b.bk WHERE a.ax = 1.5", 1},
		// Only a.ra = 1 passes: one partner in c, then one in b.
		{"SELECT * FROM a JOIN c ON a.ak = c.ck JOIN b ON a.ak = b.bk WHERE a.ra = 1", 2},
		// Pushed into b, the index join's lookups keep rb 3 (twice,
		// for ak 2.0) and rb 8 of at least seven matching pairs.
		{"SELECT * FROM a JOIN b ON a.ak = b.bk WHERE b.bx < 0", 3},
		// Not pushed: every a.ak = b.bk pair is joined, then filtered.
		{"SELECT * FROM a LEFT JOIN b ON a.ak = b.bk WHERE b.bx IS NULL", joinedBy("SELECT * FROM a LEFT JOIN b ON a.ak = b.bk")},
	} {
		if got := joinedBy(tc.sql); got != tc.want {
			t.Errorf("%s: RowsJoined grew by %d, want %d", tc.sql, got, tc.want)
		}
	}
}

// TestPushdownBatchFilterRaisingRow runs the pushed filter through the
// batch path over several windows, with a row that raises but has no
// partner.
func TestPushdownBatchFilterRaisingRow(t *testing.T) {
	eng := New(Config{})
	defer eng.Close()
	s := eng.NewSession()
	loadPushdownCorpus(t, s)
	mustExec(t, s, `CREATE TABLE g (rg BIGINT PRIMARY KEY, gk DOUBLE, gx DOUBLE)`)
	for i := 0; i < bigRows; i++ {
		k := pdF(float64(i % 9))
		if i == 2500 {
			k = pdF(1000) // no partner in b
		}
		mustExec(t, s, `INSERT INTO g VALUES (?, ?, ?)`, sqltypes.NewInt(int64(i)), k, pdF(float64(i)))
	}
	before, _ := eng.VecStats()
	for _, w := range []string{"gx > 2000", "1 / (rg - 2500) > 0", "gx < 0"} {
		joined := "SELECT g.rg, b.rb FROM g JOIN b ON g.gk = b.bk WHERE " + w + " ORDER BY g.rg, b.rb"
		wrapped := "SELECT rg, rb FROM (SELECT * FROM g JOIN b ON g.gk = b.bk) AS d WHERE " + w + " ORDER BY rg, rb"
		comparePushdown(t, s, joined, wrapped)
	}
	if after, _ := eng.VecStats(); after == before {
		t.Error("the queries ran no batches")
	}
}
