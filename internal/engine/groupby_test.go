package engine

import (
	"fmt"
	"strings"
	"testing"

	"sqloop/internal/sqltypes"
)

// groupAllocs returns the allocations of one run of a two-aggregate
// GROUP BY over a fresh table of groups groups, two rows each.
func groupAllocs(t *testing.T, groups int) float64 {
	t.Helper()
	eng := New(Config{})
	defer eng.Close()
	s := eng.NewSession()
	mustExec(t, s, `CREATE TABLE t (g BIGINT, v DOUBLE)`)
	for i := 0; i < 2*groups; i++ {
		mustExec(t, s, `INSERT INTO t VALUES (?, ?)`, sqltypes.NewInt(int64(i%groups)), sqltypes.NewFloat(float64(i)))
	}
	const q = `SELECT g, SUM(v), MIN(v) FROM t GROUP BY g`
	if res := mustExec(t, s, q); len(res.Rows) != groups {
		t.Fatalf("%d groups, want %d", len(res.Rows), groups)
	}
	return testing.AllocsPerRun(5, func() {
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGroupByAllocsPerGroup bounds what each added group allocates, so a
// per-group map or environment cannot come back unnoticed.
func TestGroupByAllocsPerGroup(t *testing.T) {
	small, large := groupAllocs(t, 1000), groupAllocs(t, 4000)
	perGroup := (large - small) / 3000
	// Measured: 4.0 per group, namely the group record, the grouping
	// index's key copy and bucket slice, and the output row. A fresh
	// environment and aggregate map per group added 3 more (7.0); the
	// bound leaves room for one allocation, not for those.
	const maxPerGroup = 5
	if perGroup > maxPerGroup {
		t.Errorf("%.2f allocations per added group (%.0f at 1k groups, %.0f at 4k), want at most %d",
			perGroup, small, large, maxPerGroup)
	}
}

// TestAggregateOrdinals reads aggregates from every place a select plan
// numbers them: items, HAVING-only and ORDER BY-only calls, the same
// call twice, one call in each of several expressions, and an ORDER BY
// that reads the group's environment after projection (so each group
// keeps its own). The compiled, interpreted and row-at-a-time paths must
// agree with the expected rows.
func TestAggregateOrdinals(t *testing.T) {
	cases := []struct{ sql, want string }{
		{`SELECT g, SUM(v), MIN(v) + MAX(v) FROM n GROUP BY g ORDER BY g`,
			"[1 7 7] [2 11 22] [3 4 4]"},
		{`SELECT g FROM n GROUP BY g HAVING MIN(v) > 1 ORDER BY SUM(v) DESC`,
			"[2] [1]"},
		{`SELECT g, COUNT(*) FROM n GROUP BY g ORDER BY MAX(v) - MIN(v), g`,
			"[2 1] [1 2] [3 2]"},
		{`SELECT g, SUM(v) * 2, SUM(v) FROM n GROUP BY g HAVING SUM(v) < 10 ORDER BY n.g`,
			"[1 14 7] [3 8 4]"},
		{`SELECT COUNT(*), AVG(v) FROM n WHERE v > 100`,
			"[0 NULL]"},
	}
	for name, cfg := range map[string]Config{
		"compiled":    {},
		"interpreted": {DisableExprCompile: true},
		"row path":    {DisableVectorize: true},
	} {
		t.Run(name, func(t *testing.T) {
			eng := New(cfg)
			defer eng.Close()
			s := eng.NewSession()
			mustExec(t, s, `CREATE TABLE n (g BIGINT, v BIGINT)`)
			mustExec(t, s, `INSERT INTO n VALUES (1, 3), (2, 11), (1, 4), (3, 1), (3, 3), (2, 0)`)
			mustExec(t, s, `DELETE FROM n WHERE v = 0`)
			for _, tc := range cases {
				res := mustExec(t, s, tc.sql)
				var got []string
				for _, r := range res.Rows {
					got = append(got, fmt.Sprint(r))
				}
				if g := strings.Join(got, " "); g != tc.want {
					t.Errorf("%s:\n got %s\nwant %s", tc.sql, g, tc.want)
				}
			}
		})
	}
}
