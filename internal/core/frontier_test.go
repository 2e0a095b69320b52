package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"sqloop/internal/sqlparser"
	"sqloop/internal/sqltypes"
)

// TestIdentityLaw pins the absorb allow-list: the SET forms proved to
// change no row whose delta is the identity, and the value columns whose
// NULL keeps a row on the frontier.
func TestIdentityLaw(t *testing.T) {
	inf, ninf, zero := sqltypes.NewFloat(math.Inf(1)), sqltypes.NewFloat(math.Inf(-1)), sqltypes.NewFloat(0)
	for _, tc := range []struct {
		set    string
		id     sqltypes.Value
		ok     bool
		guards bool
	}{
		{"LEAST(r.V, r.Delta)", inf, true, true},
		{"LEAST(Delta, V)", inf, true, true},
		{"GREATEST(r.V, r.Delta)", ninf, true, true},
		{"r.V + r.Delta", zero, true, false},
		{"r.Delta + r.V", sqltypes.NewInt(0), true, false},
		{"COALESCE(r.V + r.Delta, 0.15)", zero, true, false},
		{"COALESCE(LEAST(r.V, r.Delta), 0)", inf, true, false},
		{"COALESCE(GREATEST(r.Delta, r.V), 'x')", ninf, true, false},

		{"r.V + 1", zero, false, false},
		{"r.V * r.Delta", zero, false, false},
		{"r.V - r.Delta", zero, false, false},
		{"r.V + r.Delta", inf, false, false},
		{"GREATEST(r.V, r.Delta)", inf, false, false},
		{"LEAST(r.V, r.Delta)", ninf, false, false},
		{"LEAST(r.V, r.Delta)", zero, false, false},
		{"LEAST(r.V, r.Delta, 5)", inf, false, false},
		{"LEAST(r.W, r.Delta)", inf, false, false},
		{"LEAST(n.V, r.Delta)", inf, false, false},
		{"LEAST(r.V, r.V)", inf, false, false},
		{"COALESCE(r.V + r.Delta, r.W)", zero, false, false},
		{"COALESCE(r.V + r.Delta, NULL)", zero, false, false},
		{"COALESCE(r.V + r.Delta, 1 + 1)", zero, false, false},
		{"COALESCE(r.V + 1, 0)", zero, false, false},
		{"CASE WHEN r.Delta < r.V THEN r.Delta ELSE r.V END", inf, false, false},
		{"r.Delta", inf, false, false},
	} {
		e, err := sqlparser.ParseExpr(tc.set)
		if err != nil {
			t.Fatalf("%s: %v", tc.set, err)
		}
		ok, guards := identityLaw([]sqlparser.Assignment{{Column: "V", Value: e}}, "r", "Delta", tc.id)
		if ok != tc.ok || (len(guards) > 0) != tc.guards {
			t.Errorf("V = %s with identity %v: ok %v guards %v, want ok %v guards %v",
				tc.set, tc.id, ok, guards, tc.ok, tc.guards)
		}
	}
	// One SET outside the list sends the whole absorb over every row.
	least, _ := sqlparser.ParseExpr("LEAST(r.V, r.Delta)")
	copyV, _ := sqlparser.ParseExpr("r.V")
	if ok, _ := identityLaw([]sqlparser.Assignment{{Column: "V", Value: least}, {Column: "W", Value: copyV}},
		"r", "Delta", inf); ok {
		t.Error("an absorb with W = r.V passed the identity law")
	}
}

// Frontier differential queries. Each final reads only what every
// executor agrees on (the parallel executors reset deltas the single
// one keeps), sorted on the key.

// frontierNulls is SSSP over edges with NULL weights (NULL messages)
// from seeds with NULL distances and NULL deltas. Node 30, NULL in
// both, hears only an infinite distance: its delta goes from NULL to
// the identity while its distance is still NULL, which the next absorb
// turns into Infinity (LEAST skips NULLs), so the row must stay on the
// frontier until then.
const frontierNulls = `
WITH ITERATIVE nsp(Node, Dist, Delta) AS (
  SELECT src, CASE WHEN src = 1 THEN 0.0 WHEN src IN (6, 10, 30) THEN NULL ELSE Infinity END,
         CASE WHEN src = 1 THEN 0.0 WHEN src % 2 = 0 THEN NULL ELSE Infinity END
  FROM (SELECT src FROM nulledges UNION SELECT dst AS src FROM nulledges) AS alledges
  GROUP BY src
  ITERATE
  SELECT nsp.Node, LEAST(nsp.Dist, nsp.Delta),
         COALESCE(MIN(Neighbor.Dist + E.weight), Infinity)
  FROM nsp
  LEFT JOIN nulledges AS E ON nsp.Node = E.dst
  LEFT JOIN nsp AS Neighbor ON Neighbor.Node = E.src
  WHERE Neighbor.Delta != Infinity
  GROUP BY nsp.Node
  UNTIL 0 UPDATES
)
SELECT Node, LEAST(Dist, Delta) AS Dist, Dist IS NULL AS Unset FROM nsp ORDER BY Node`

// frontierLag keeps, beside each distance, the distance it had one
// absorb earlier: Prev = Dist changes rows whose delta is the identity,
// so the absorb must read every row, and stopping at the frontier would
// leave Prev behind Dist. (The single executor updates only rows with
// an active neighbor, so Prev starts equal to Dist for the source.)
const frontierLag = `
WITH ITERATIVE lag(Node, Dist, Prev, Delta) AS (
  SELECT src, CASE WHEN src = 1 THEN 0.0 ELSE Infinity END,
         CASE WHEN src = 1 THEN 0.0 ELSE Infinity END,
         CASE WHEN src = 1 THEN 0.0 ELSE Infinity END
  FROM (SELECT src FROM edges UNION SELECT dst AS src FROM edges) AS alledges
  GROUP BY src
  ITERATE
  SELECT lag.Node, LEAST(lag.Dist, lag.Delta), lag.Dist,
         COALESCE(MIN(Neighbor.Dist + E.weight), Infinity)
  FROM lag
  LEFT JOIN edges AS E ON lag.Node = E.dst
  LEFT JOIN lag AS Neighbor ON Neighbor.Node = E.src
  WHERE Neighbor.Delta != Infinity
  GROUP BY lag.Node
  UNTIL 0 UPDATES
)
SELECT Node, LEAST(Dist, Delta) AS Dist, Prev FROM lag ORDER BY Node`

// frontierCase is SSSP with its absorb written as a CASE, a no-op at
// the identity that the allow-list cannot prove.
const frontierCase = `
WITH ITERATIVE csp(Node, Dist, Delta) AS (
  SELECT src, CASE WHEN src = 1 THEN 0.0 ELSE Infinity END,
         CASE WHEN src = 1 THEN 0.0 ELSE Infinity END
  FROM (SELECT src FROM edges UNION SELECT dst AS src FROM edges) AS alledges
  GROUP BY src
  ITERATE
  SELECT csp.Node, CASE WHEN csp.Delta < csp.Dist THEN csp.Delta ELSE csp.Dist END,
         COALESCE(MIN(Neighbor.Dist + E.weight), Infinity)
  FROM csp
  LEFT JOIN edges AS E ON csp.Node = E.dst
  LEFT JOIN csp AS Neighbor ON Neighbor.Node = E.src
  WHERE Neighbor.Delta != Infinity
  GROUP BY csp.Node
  UNTIL 0 UPDATES
)
SELECT Node, LEAST(Dist, Delta) AS Dist FROM csp ORDER BY Node`

// frontierRankNulls is the dyadic DAG PageRank with NULL ranks seeded
// under a zero delta: idle rows from the start, whose first absorb
// (COALESCE(NULL + 0, 0.25)) still changes them, so a partition's first
// compute must read every row.
const frontierRankNulls = `
WITH ITERATIVE dagrank(Node, Rank, Delta) AS (
  SELECT src, CASE WHEN src % 4 = 0 THEN NULL ELSE 0.0 END,
         CASE WHEN src % 4 = 0 THEN 0.0 ELSE 0.25 END
  FROM (SELECT src FROM dag UNION SELECT dst AS src FROM dag) AS alledges
  GROUP BY src
  ITERATE
  SELECT dagrank.Node,
         COALESCE(dagrank.Rank + dagrank.Delta, 0.25),
         COALESCE(0.5 * SUM(IncomingRank.Delta * IncomingEdges.weight), 0.0)
  FROM dagrank
  LEFT JOIN dag AS IncomingEdges ON dagrank.Node = IncomingEdges.dst
  LEFT JOIN dagrank AS IncomingRank ON IncomingRank.Node = IncomingEdges.src
  GROUP BY dagrank.Node
  UNTIL 0 UPDATES
)
SELECT Node, Rank + Delta AS Rank FROM dagrank ORDER BY Node`

// loadNullEdges adds nulledges: the conformance graph with two NULL
// weights, on edges whose target is also reached another way, and an
// infinite edge to node 30.
func loadNullEdges(t *testing.T, exec func(string) (*Result, error)) {
	t.Helper()
	for _, q := range []string{
		`CREATE TABLE nulledges (src BIGINT, dst BIGINT, weight DOUBLE)`,
		`INSERT INTO nulledges SELECT src, dst, CASE WHEN src IN (2, 8) THEN NULL ELSE weight END FROM edges`,
		`INSERT INTO nulledges VALUES (1, 30, Infinity)`,
	} {
		if _, err := exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
}

// TestFrontierDifferential runs queries whose absorb the frontier must
// not restrict, or whose NULL seeds and messages the frontier column
// must classify, in every parallel schedule, in-process and on two
// shards, against the single-node executor. Async schedules repeat,
// since the order partitions meet their messages varies.
func TestFrontierDifferential(t *testing.T) {
	ctx := context.Background()
	queries := []struct {
		name, query string
		modes       []Mode
	}{
		{"nulls", frontierNulls, []Mode{ModeSync, ModeAsync, ModeAsyncPrio}},
		// AsyncP runs only partitions with pending deltas, so an absorb
		// that goes on changing idle rows never settles there.
		{"lag", frontierLag, []Mode{ModeSync, ModeAsync}},
		{"case", frontierCase, []Mode{ModeSync, ModeAsync, ModeAsyncPrio}},
		// In the async schedules a gather can reach a NULL rank before
		// its first absorb, which COALESCE(NULL + Delta, …) then drops:
		// the answer depends on the schedule even when every row is read.
		{"ranknulls", frontierRankNulls, []Mode{ModeSync}},
	}
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			single := newFixtureLoop(t, Options{Mode: ModeSingle})
			loadNullEdges(t, func(s string) (*Result, error) { return single.Exec(ctx, s) })
			want, err := single.Exec(ctx, q.query)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range q.modes {
				runs := 1
				if mode != ModeSync {
					runs = 4
				}
				t.Run(fmt.Sprintf("%s/inprocess", mode), func(t *testing.T) {
					for i := 0; i < runs; i++ {
						s := newFixtureLoop(t, Options{Mode: mode, Partitions: 3, Threads: 2})
						loadNullEdges(t, func(q string) (*Result, error) { return s.Exec(ctx, q) })
						res, err := s.Exec(ctx, q.query)
						if err != nil {
							t.Fatal(err)
						}
						if !res.Stats.Parallelized {
							t.Fatalf("did not parallelize: %s", res.Stats.FallbackReason)
						}
						requireIdenticalRows(t, want, res)
					}
				})
				t.Run(fmt.Sprintf("%s/2shards", mode), func(t *testing.T) {
					for i := 0; i < runs; i++ {
						g := newTestShardGroup(t, "pgsim", 2, Options{Mode: mode})
						exec := func(q string) (*Result, error) { return g.Exec(ctx, q) }
						loadShardFixtures(t, exec)
						loadNullEdges(t, exec)
						res, err := g.Exec(ctx, q.query)
						if err != nil {
							t.Fatal(err)
						}
						requireIdenticalRows(t, want, res)
					}
				})
			}
		})
	}
}
