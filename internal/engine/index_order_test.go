package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sqloop/internal/sqltypes"
)

// indexOrderEngines is every storage backend; each keeps rows in its
// own order (heap by insertion, btree and lsm by key, disk by page), so
// the index's insertion order is what a lookup must return on all four.
func indexOrderEngines() map[string]Config {
	out := pushdownEngines()
	delete(out, "interp")
	return out
}

// ids renders one column of a result as a comma-separated list.
func ids(res *Result, col int) string {
	parts := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts[i] = fmt.Sprint(r[col].Int())
	}
	return strings.Join(parts, ",")
}

// TestIndexReadsFollowInsertionOrder pins the ordering contract of
// secondary hash indexes: an index lookup and an index nested-loop join
// return a key's rows in the order they entered the index, on every
// execution and every backend. Deleting, updating, truncating and
// rolling back keep the order of the rows that remain; a row entering
// a bucket (insert, an update that changes the indexed value, a
// rollback restoring a deleted row) goes to its end.
func TestIndexReadsFollowInsertionOrder(t *testing.T) {
	for name, cfg := range indexOrderEngines() {
		t.Run(name, func(t *testing.T) {
			eng := New(cfg)
			defer eng.Close()
			s := eng.NewSession()
			mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, k BIGINT, v BIGINT)`)
			mustExec(t, s, `CREATE TABLE p (pid BIGINT PRIMARY KEY, pk BIGINT)`)
			mustExec(t, s, `CREATE INDEX t_k ON t (k)`)
			// Primary keys out of order, so key order and insertion order
			// differ; k = 1 holds most of them.
			order := []int64{41, 7, 93, 12, 58, 3, 77, 26, 64, 15, 88, 31, 50, 9, 70, 22}
			for i, id := range order {
				k := int64(1)
				if i%4 == 3 {
					k = 2
				}
				mustExec(t, s, `INSERT INTO t VALUES (?, ?, 0)`, sqltypes.NewInt(id), sqltypes.NewInt(k))
			}
			mustExec(t, s, `INSERT INTO p VALUES (2, 1), (1, 2)`)

			// model holds each key's ids in index order.
			model := map[int64][]int64{}
			for i, id := range order {
				k := int64(1)
				if i%4 == 3 {
					k = 2
				}
				model[k] = append(model[k], id)
			}
			list := func(xs []int64) string {
				parts := make([]string, len(xs))
				for i, x := range xs {
					parts[i] = fmt.Sprint(x)
				}
				return strings.Join(parts, ",")
			}
			check := func(step string) {
				t.Helper()
				for k := int64(1); k <= 2; k++ {
					want := list(model[k])
					for run := 0; run < 50; run++ {
						got := ids(mustExec(t, s, `SELECT id FROM t WHERE k = ?`, sqltypes.NewInt(k)), 0)
						if got != want {
							t.Fatalf("%s: lookup k = %d run %d: got %s, want %s", step, k, run, got, want)
						}
					}
				}
				// The probe side yields pid 2 (k 1) then pid 1 (k 2); each
				// probe's partners come in index order.
				want := list(append(append([]int64(nil), model[1]...), model[2]...))
				for run := 0; run < 50; run++ {
					res := mustExec(t, s, `SELECT q.pid, t.id FROM (SELECT pid, pk FROM p ORDER BY pid DESC) AS q JOIN t ON q.pk = t.k`)
					if got := ids(res, 1); got != want {
						t.Fatalf("%s: index join run %d: got %s, want %s", step, run, got, want)
					}
				}
			}
			check("insert")

			remove := func(k, id int64) {
				for i, x := range model[k] {
					if x == id {
						model[k] = append(model[k][:i:i], model[k][i+1:]...)
						return
					}
				}
				t.Fatalf("model has no id %d under k %d", id, k)
			}

			mustExec(t, s, `DELETE FROM t WHERE id IN (7, 58, 50)`)
			remove(1, 7)
			remove(1, 58)
			remove(1, 50)
			check("delete")

			// An update that leaves k alone keeps the row's place; one that
			// changes k moves the row to the end of its new bucket.
			mustExec(t, s, `UPDATE t SET v = v + 1 WHERE k = 1`)
			check("update v")
			mustExec(t, s, `UPDATE t SET k = 2 WHERE id = 93`)
			remove(1, 93)
			model[2] = append(model[2], 93)
			check("update k")

			// Rollback: the rows left untouched keep their order; restored
			// rows (41 deleted, 12 moved to k 1 and back) re-enter at the
			// end of their bucket.
			mustExec(t, s, `BEGIN`)
			mustExec(t, s, `DELETE FROM t WHERE id = 41`)
			mustExec(t, s, `UPDATE t SET k = 1 WHERE id = 12`)
			mustExec(t, s, `INSERT INTO t VALUES (99, 1, 0)`)
			mustExec(t, s, `ROLLBACK`)
			remove(1, 41)
			model[1] = append(model[1], 41)
			remove(2, 12)
			model[2] = append(model[2], 12)
			check("rollback")

			// Heavy churn in one bucket exercises compaction.
			for round := 0; round < 3; round++ {
				for _, id := range append([]int64(nil), model[1]...) {
					if id%2 == int64(round%2) {
						mustExec(t, s, `DELETE FROM t WHERE id = ?`, sqltypes.NewInt(id))
						remove(1, id)
					}
				}
				for i := int64(0); i < 5; i++ {
					id := 1000 + int64(round)*10 + i
					mustExec(t, s, `INSERT INTO t VALUES (?, 1, 0)`, sqltypes.NewInt(id))
					model[1] = append(model[1], id)
				}
				check(fmt.Sprintf("churn %d", round))
			}

			mustExec(t, s, `TRUNCATE TABLE t`)
			model = map[int64][]int64{}
			check("truncate")
			for _, id := range []int64{5, 2, 8} {
				mustExec(t, s, `INSERT INTO t VALUES (?, 1, 0)`, sqltypes.NewInt(id))
				model[1] = append(model[1], id)
			}
			check("reinsert")
		})
	}
}

// TestIndexJoinUsesIndexInOrder checks that the join above is served by
// the index (one lookup per probe row), so the order it pins is the
// index's.
func TestIndexJoinUsesIndexInOrder(t *testing.T) {
	eng := New(Config{})
	defer eng.Close()
	s := eng.NewSession()
	mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, k BIGINT)`)
	mustExec(t, s, `CREATE TABLE p (pid BIGINT PRIMARY KEY, pk BIGINT)`)
	for i := int64(0); i < 200; i++ {
		mustExec(t, s, `INSERT INTO t VALUES (?, ?)`, sqltypes.NewInt(i), sqltypes.NewInt(i%10))
	}
	mustExec(t, s, `INSERT INTO p VALUES (1, 3)`)
	mustExec(t, s, `CREATE INDEX t_k ON t (k)`)
	before := eng.Stats().RowsScanned
	res := mustExec(t, s, `SELECT p.pid, t.id FROM p JOIN t ON p.pk = t.k`)
	var want []int64
	for i := int64(3); i < 200; i += 10 {
		want = append(want, i)
	}
	// A scan of t would read all 200 rows; the index reads only the
	// probe row's partners.
	if got := eng.Stats().RowsScanned - before; got > 1+int64(len(want)) {
		t.Errorf("index join scanned %d rows, want one row of p plus its %d partners", got, len(want))
	}
	var got []int64
	for _, r := range res.Rows {
		got = append(got, r[1].Int())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("index join partners %v, want %v", got, want)
	}
}

// indexedRows counts the rows a table's index holds, across buckets.
func indexedRows(t *testing.T, eng *Engine, table, index string) int {
	t.Helper()
	tbl, ok := eng.lookupTable(table)
	if !ok {
		t.Fatalf("no table %s", table)
	}
	n := 0
	for _, b := range tbl.indexes[index].buckets {
		n += len(b.ents) - b.dead
	}
	return n
}

// TestIndexLeavesOutNulls: a hash index stores no NULL keys, since `=`
// never matches NULL, so it holds only the table's non-NULL rows, and
// `col = NULL`, `col IS NULL`, index joins and rollbacks that restore a
// NULL answer as they would with NULLs indexed.
func TestIndexLeavesOutNulls(t *testing.T) {
	for name, cfg := range indexOrderEngines() {
		t.Run(name, func(t *testing.T) {
			eng := New(cfg)
			defer eng.Close()
			s := eng.NewSession()
			mustExec(t, s, `CREATE TABLE t (id BIGINT PRIMARY KEY, k ANY)`)
			mustExec(t, s, `INSERT INTO t VALUES (1, 1), (2, NULL), (3, 2), (4, NULL), (5, 1), (6, 3), (7, NULL), (8, 2)`)
			mustExec(t, s, `CREATE INDEX t_k ON t (k)`)
			mustExec(t, s, `CREATE TABLE p (pid BIGINT PRIMARY KEY, pk ANY)`)
			mustExec(t, s, `INSERT INTO p VALUES (1, NULL), (2, 1)`)

			check := func(step string, nonNull int, cases map[string]string) {
				t.Helper()
				if got := indexedRows(t, eng, "t", "t_k"); got != nonNull {
					t.Errorf("%s: index holds %d rows, want the %d non-NULL ones", step, got, nonNull)
				}
				for q, want := range cases {
					if got := ids(mustExec(t, s, q), 0); got != want {
						t.Errorf("%s: %s = [%s], want [%s]", step, q, got, want)
					}
				}
			}
			check("load", 5, map[string]string{
				`SELECT id FROM t WHERE k = NULL`:                                       "",
				`SELECT id FROM t WHERE k IS NULL ORDER BY id`:                          "2,4,7",
				`SELECT id FROM t WHERE k = 1`:                                          "1,5",
				`SELECT t.id FROM p JOIN t ON p.pk = t.k`:                               "1,5",
				`SELECT p.pid FROM p LEFT JOIN t ON p.pk = t.k WHERE t.id IS NULL`:      "1",
				`SELECT COUNT(*) FROM p LEFT JOIN t ON p.pk = t.k`:                      "3",
				`SELECT t.id FROM t JOIN p ON t.k = p.pk ORDER BY t.id`:                 "1,5",
				`SELECT t.id FROM (SELECT pk FROM p) AS q JOIN t ON q.pk = t.k`:         "1,5",
				`SELECT id FROM t WHERE k = 2 AND id > 3`:                               "8",
				`SELECT COUNT(*) FROM t WHERE k IS NOT NULL`:                            "5",
				`SELECT t.id FROM t JOIN t AS u ON t.k = u.k WHERE u.id = 2 ORDER BY 1`: "",
			})

			// A row entering the index from NULL goes to the end of its
			// bucket; one leaving for NULL drops out of it.
			mustExec(t, s, `UPDATE t SET k = 1 WHERE id = 2`)
			mustExec(t, s, `UPDATE t SET k = NULL WHERE id = 1`)
			check("update", 5, map[string]string{
				`SELECT id FROM t WHERE k = 1`:                 "5,2",
				`SELECT id FROM t WHERE k IS NULL ORDER BY id`: "1,4,7",
				`SELECT t.id FROM p JOIN t ON p.pk = t.k`:      "5,2",
			})

			// Rollback restores NULLs: a NULL key set, and a deleted NULL row.
			mustExec(t, s, `BEGIN`)
			mustExec(t, s, `UPDATE t SET k = 3 WHERE id = 4`)
			mustExec(t, s, `DELETE FROM t WHERE id = 7`)
			mustExec(t, s, `UPDATE t SET k = NULL WHERE id = 6`)
			mustExec(t, s, `ROLLBACK`)
			check("rollback", 5, map[string]string{
				`SELECT id FROM t WHERE k = 3`:                 "6",
				`SELECT id FROM t WHERE k IS NULL ORDER BY id`: "1,4,7",
			})

			mustExec(t, s, `DELETE FROM t WHERE k IS NULL`)
			check("delete", 5, map[string]string{`SELECT COUNT(*) FROM t`: "5"})
			mustExec(t, s, `TRUNCATE TABLE t`)
			check("truncate", 0, nil)
		})
	}
}
