package engine

import (
	"fmt"
	"strings"
	"testing"

	"sqloop/internal/sqltypes"
)

// The index access paths of UPDATE and of join inputs must be
// invisible: every statement below runs once as written, where an index
// applies, and once written so that none does: its WHERE wrapped as
// `(…) OR FALSE`, which has the same truth value on every row but no
// `col = constant` conjunct, or, for UPDATE … FROM, its target key
// written `t.id + 0`, which still hash-joins but is no primary-key
// reference. Both runs must leave the same rows, count the same changes
// and raise the same error.

// accessTableRows is the target corpus: ids 1..40, a k column with a
// dense key (1), a three-row key (7, once stored as the float 7.0),
// NULLs, and a v that makes 1 / (v - 10) divide by zero on one row of
// the two with k = 4.
func accessTableRows() string {
	var rows []string
	for id := 1; id <= 40; id++ {
		k := fmt.Sprint(100 + id)
		switch {
		case id%3 == 0:
			k = "1"
		case id == 5 || id == 20:
			k = "7"
		case id == 11:
			k = "7.0"
		case id == 8 || id == 16:
			k = "4"
		case id%7 == 0:
			k = "NULL"
		}
		v := fmt.Sprint(id * 2)
		if id == 8 {
			v = "10"
		}
		rows = append(rows, fmt.Sprintf("(%d, %s, %s)", id, k, v))
	}
	return strings.Join(rows, ", ")
}

// loadAccessTables (re)creates the indexed table ti and its twin tr
// (same rows, same index), and the FROM tables: m, smaller than ti, with
// duplicate keys (3 and 3.0, 8 twice), a NULL, a string, a key with no
// target row and a zero w on id 5; m2, the same plus a NaN key.
func loadAccessTables(t *testing.T, s *Session) {
	t.Helper()
	for _, name := range []string{"ti", "tr"} {
		mustExec(t, s, `DROP TABLE IF EXISTS `+name)
		mustExec(t, s, `CREATE TABLE `+name+` (id BIGINT PRIMARY KEY, k ANY, v ANY)`)
		mustExec(t, s, `INSERT INTO `+name+` VALUES `+accessTableRows())
		mustExec(t, s, `CREATE INDEX `+name+`_k ON `+name+` (k)`)
	}
	mRows := `(3, 30), (3.0, 31), (5, 0), (NULL, 9), (99, 1), (8, 80), (8, 81), (2.5, 7), ('x', 1)`
	mustExec(t, s, `DROP TABLE IF EXISTS m`)
	mustExec(t, s, `CREATE TABLE m (id ANY, w ANY)`)
	mustExec(t, s, `INSERT INTO m VALUES `+mRows)
	mustExec(t, s, `DROP TABLE IF EXISTS m2`)
	mustExec(t, s, `CREATE TABLE m2 (id ANY, w ANY)`)
	mustExec(t, s, `INSERT INTO m2 VALUES `+mRows+`, (CAST('NaN' AS DOUBLE), 2)`)
}

// accessCases are UPDATE statements over ti with their WHERE in {W};
// read is the number of rows the indexed form reads (40 for a scan, plus
// the FROM table's rows), unchecked for the two that raise.
var accessCases = []struct {
	sql  string
	read int64
	args []sqltypes.Value
}{
	{sql: `UPDATE ti SET v = v + 1 WHERE {id = 5}`, read: 1},
	{sql: `UPDATE ti SET v = v + 1 WHERE {id = 5.0}`, read: 1},
	{sql: `UPDATE ti SET v = 0 WHERE {id = 1000}`, read: 0},
	{sql: `UPDATE ti SET v = ? WHERE {id = ?}`, read: 1, args: []sqltypes.Value{sqltypes.NewInt(-1), sqltypes.NewInt(12)}},
	{sql: `UPDATE ti SET v = v * 2 WHERE {k = 7}`, read: 3},
	{sql: `UPDATE ti SET v = v * 2 WHERE {k = 7.0}`, read: 3},
	{sql: `UPDATE ti SET v = 0 WHERE {k = NULL}`, read: 0},
	{sql: `UPDATE ti SET v = 0 WHERE {k = 7 AND v > 20}`, read: 3},
	{sql: `UPDATE ti SET v = 0 WHERE {v > 0 AND k = 4}`, read: 2},
	{sql: `UPDATE ti SET k = 9 WHERE {k = 7}`, read: 3},
	{sql: `UPDATE ti SET k = NULL WHERE {k = 7}`, read: 3},
	{sql: `UPDATE ti SET v = 1 / (v - 10) WHERE {k = 4}`},
	{sql: `UPDATE ti SET v = 0 WHERE {k = 1}`, read: 40}, // a third of the table: scanned
	{sql: `UPDATE ti SET v = m.w FROM m WHERE {ti.id = m.id}`, read: 9 + 3},
	{sql: `UPDATE ti AS t SET v = m.w + t.v FROM m WHERE {m.id = t.id AND m.w > 30}`, read: 9 + 3},
	{sql: `UPDATE ti SET v = 1 / m.w FROM m WHERE {ti.id = m.id}`},
	{sql: `UPDATE ti SET v = g.w FROM (SELECT id, MAX(w) AS w FROM m GROUP BY id) AS g WHERE {ti.id = g.id}`, read: 9 + 3},
	{sql: `UPDATE ti SET v = m2.w FROM m2 WHERE {ti.id = m2.id}`, read: 10 + 40}, // a NaN key: scanned
}

// accessForms renders a case as written (indexed) and, against tr, so
// that no index applies (reference).
func accessForms(sql string) (indexed, reference string) {
	open, close := strings.Index(sql, "{"), strings.Index(sql, "}")
	where := sql[open+1 : close]
	indexed = sql[:open] + where + sql[close+1:]
	if strings.Contains(sql, " FROM ") {
		ref := strings.NewReplacer("ti.id", "(ti.id + 0)", "t.id", "(t.id + 0)").Replace(where)
		reference = sql[:open] + ref + sql[close+1:]
	} else {
		reference = sql[:open] + "(" + where + ") OR FALSE" + sql[close+1:]
	}
	reference = strings.ReplaceAll(strings.ReplaceAll(reference, "ti.", "tr."), "UPDATE ti", "UPDATE tr")
	return indexed, reference
}

// compareTables fails unless ti and tr hold the same rows.
func compareTables(t *testing.T, s *Session, step string) {
	t.Helper()
	got := renderResult(mustExec(t, s, `SELECT * FROM ti ORDER BY id`))
	want := renderResult(mustExec(t, s, `SELECT * FROM tr ORDER BY id`))
	if got != want {
		t.Errorf("%s: tables differ\n  indexed:\n%s  reference:\n%s", step, got, want)
	}
}

func TestUpdateAccessPathsMatchScan(t *testing.T) {
	for name, cfg := range pushdownEngines() {
		t.Run(name, func(t *testing.T) {
			eng := New(cfg)
			defer eng.Close()
			s := eng.NewSession()
			erred := 0
			for _, tc := range accessCases {
				loadAccessTables(t, s)
				indexed, reference := accessForms(tc.sql)
				before := eng.Stats().RowsScanned
				ir, ierr := s.Exec(indexed, tc.args...)
				read := eng.Stats().RowsScanned - before
				rr, rerr := s.Exec(reference, tc.args...)
				switch {
				case (ierr == nil) != (rerr == nil):
					t.Errorf("%s\n  indexed err=%v\n  reference err=%v", indexed, ierr, rerr)
				case ierr != nil:
					erred++
					if ierr.Error() != rerr.Error() {
						t.Errorf("%s: errors differ: %v / %v", indexed, ierr, rerr)
					}
				case ir.RowsAffected != rr.RowsAffected:
					t.Errorf("%s: %d rows changed, reference %d", indexed, ir.RowsAffected, rr.RowsAffected)
				}
				// A raising statement stops at the first row that raises,
				// which depends on the order rows are read in.
				if ierr == nil && read != tc.read {
					t.Errorf("%s: read %d rows, want %d", indexed, read, tc.read)
				}
				compareTables(t, s, indexed)
			}
			if erred != 2 {
				t.Errorf("%d cases raised, want 2 (a SET dividing by zero on a looked-up row, with and without FROM)", erred)
			}

			// Rollback restores what a looked-up update changed, including
			// a row it moved out of its index bucket.
			loadAccessTables(t, s)
			for _, tc := range []string{`UPDATE ti SET k = 9, v = 0 WHERE {k = 7}`, `UPDATE ti SET v = m.w FROM m WHERE {ti.id = m.id}`} {
				indexed, reference := accessForms(tc)
				for _, sql := range []string{indexed, reference} {
					mustExec(t, s, `BEGIN`)
					mustExec(t, s, sql)
					mustExec(t, s, `ROLLBACK`)
				}
				compareTables(t, s, "rollback of "+indexed)
			}
			if got := ids(mustExec(t, s, `SELECT id FROM ti WHERE k = 7 ORDER BY id`), 0); got != "5,11,20" {
				t.Errorf("after rollback k = 7 holds %s, want 5,11,20", got)
			}

			// A NaN in the indexed column equals every number under `=`,
			// so numeric lookups scan while it is there.
			for _, name := range []string{"ti", "tr"} {
				mustExec(t, s, `INSERT INTO `+name+` VALUES (41, CAST('NaN' AS DOUBLE), 0)`)
			}
			indexed, reference := accessForms(`UPDATE ti SET v = 99 WHERE {k = 7}`)
			before := eng.Stats().RowsScanned
			ir := mustExec(t, s, indexed)
			if read := eng.Stats().RowsScanned - before; read != 41 {
				t.Errorf("%s with a NaN key read %d rows, want a scan of 41", indexed, read)
			}
			if rr := mustExec(t, s, reference); ir.RowsAffected != rr.RowsAffected || ir.RowsAffected != 4 {
				t.Errorf("%s with a NaN key changed %d rows, reference %d, want 4", indexed, ir.RowsAffected, rr.RowsAffected)
			}
			compareTables(t, s, indexed+" with a NaN key")
		})
	}
}

// TestJoinInputAccessPath: a join input whose pushed WHERE has an
// indexed `col = constant` conjunct is read through the index, with the
// rows of the unindexed plan.
func TestJoinInputAccessPath(t *testing.T) {
	for name, cfg := range pushdownEngines() {
		t.Run(name, func(t *testing.T) {
			eng := New(cfg)
			defer eng.Close()
			s := eng.NewSession()
			loadAccessTables(t, s)
			mustExec(t, s, `CREATE TABLE e (src BIGINT, dst BIGINT)`)
			mustExec(t, s, `INSERT INTO e VALUES (5, 1), (5, 2), (11, 3), (20, 4), (8, 5), (3, 6), (NULL, 7)`)
			for _, where := range []string{
				"ti.k = 7", "ti.k = 7.0 AND e.dst > 1", "ti.id = 5", "ti.k = NULL", "ti.k = 1",
			} {
				q := `SELECT ti.id, ti.k, e.dst FROM ti JOIN e ON ti.id = e.src WHERE %s ORDER BY ti.id, e.dst`
				before := eng.Stats().RowsScanned
				got := mustExec(t, s, fmt.Sprintf(q, where))
				read := eng.Stats().RowsScanned - before
				want := mustExec(t, s, fmt.Sprintf(q, "("+where+") OR FALSE"))
				if renderResult(got) != renderResult(want) {
					t.Errorf("%s:\n  indexed:\n%s  reference:\n%s", where, renderResult(got), renderResult(want))
				}
				// The edge table is read whole (7 rows); ti through the
				// index unless the key covers over a quarter of it.
				if where == "ti.k = 1" {
					if read != 7+40 {
						t.Errorf("%s read %d rows, want a scan (47)", where, read)
					}
				} else if read >= 7+40 {
					t.Errorf("%s read %d rows, want a lookup", where, read)
				}
			}
		})
	}
}

// TestLookupReadsOnlyItsBucket pins the error contract of a lookup: rows
// outside the bucket are never evaluated, so a predicate that would
// raise only on them (here, comparing the numbers in k with a string)
// does not raise, as with SELECT's index lookup.
func TestLookupReadsOnlyItsBucket(t *testing.T) {
	s := newTestSession(t)
	loadAccessTables(t, s)
	mustExec(t, s, `UPDATE ti SET k = 'a' WHERE id = 2`)
	res := mustExec(t, s, `UPDATE ti SET v = 0 WHERE k = 'a'`)
	if res.RowsAffected != 1 {
		t.Fatalf("lookup of 'a' changed %d rows, want 1", res.RowsAffected)
	}
	if _, err := s.Exec(`UPDATE ti SET v = 0 WHERE k = 'a' OR FALSE`); err == nil {
		t.Fatal("the scan compared numbers with 'a' without raising")
	}
}
