package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"sqloop/internal/driver"
	"sqloop/internal/engine"
	"sqloop/internal/sqlparser"
)

// newFixtureLoop opens a SQLoop over a fresh in-process engine with the
// shard conformance fixtures (edges, biedges, dag) loaded.
func newFixtureLoop(t *testing.T, opts Options) *SQLoop {
	t.Helper()
	eng := engine.New(engine.Config{})
	handle := fmt.Sprintf("%s-%p", strings.ReplaceAll(t.Name(), "/", "_"), &opts)
	driver.RegisterEngine(handle, eng)
	t.Cleanup(func() { driver.UnregisterEngine(handle) })
	s, err := Open(driver.DriverName, driver.InprocDSN(handle), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	loadShardFixtures(t, func(q string) (*Result, error) { return s.Exec(context.Background(), q) })
	return s
}

// TestRoutedGatherMatchesSingle: with messages routed to their
// destination partition, PageRank over eight partitions gives results
// bit-identical to ModeSingle in every parallel schedule. The DAG
// variant's dyadic weights make every float operation exact, so the
// order in which a Gather meets its messages cannot matter.
func TestRoutedGatherMatchesSingle(t *testing.T) {
	ctx := context.Background()
	want, err := newFixtureLoop(t, Options{Mode: ModeSingle}).Exec(ctx, shardDAGRank)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeSync, ModeAsync, ModeAsyncPrio} {
		t.Run(mode.String(), func(t *testing.T) {
			res, err := newFixtureLoop(t, Options{Mode: mode, Partitions: 8, Threads: 3}).Exec(ctx, shardDAGRank)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stats.Parallelized {
				t.Fatalf("did not parallelize: %s", res.Stats.FallbackReason)
			}
			if res.Stats.MessageTables == 0 {
				t.Fatal("no message tables were emitted")
			}
			requireIdenticalRows(t, want, res)
		})
	}
}

// routingGraph is a deterministic graph of n nodes, three out-edges
// each, so every partition of eight both sends and receives messages.
func routingGraph(n int) []testEdge {
	var out []testEdge
	for i := 0; i < n; i++ {
		for _, m := range []int{7, 13, 29} {
			out = append(out, testEdge{int64(i), int64((i*m + 3) % n), float64(1 + i%5)})
		}
	}
	return out
}

// TestRoutedGatherScansOwnMessages drives one Compute/Gather round of
// the plan's statements directly and checks what each Gather reads: its
// partition's rows, one index lookup per message table, and none of the
// messages addressed to other partitions (before routing, every Gather
// scanned every message). The AVG case also carries the cnt column
// through the routed Gather and checks the averages it delivers.
func TestRoutedGatherScansOwnMessages(t *testing.T) {
	const P, nodes = 8, 200
	edges := routingGraph(nodes)
	for _, tc := range []struct{ name, query string }{
		{"pagerank", fmt.Sprintf(pageRankCTE, 1)},
		{"avg", avgCTE},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := engine.New(engine.Config{})
			defer eng.Close()
			sess := eng.NewSession()
			exec := func(st sqlparser.Statement) *engine.Result {
				t.Helper()
				res, err := sess.ExecStmt(st, nil)
				if err != nil {
					t.Fatalf("%s: %v", sqlparser.Format(st), err)
				}
				return res
			}
			query := func(q string) *engine.Result {
				t.Helper()
				res, err := sess.Exec(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				return res
			}
			query(`CREATE TABLE edges (src BIGINT, dst BIGINT, weight DOUBLE)`)
			for _, e := range edges {
				query(fmt.Sprintf(`INSERT INTO edges VALUES (%d, %d, %g)`, e.src, e.dst, e.w))
			}
			st, err := sqlparser.Parse(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			cte := st.(*sqlparser.LoopCTEStmt)
			an := analyzeStep(cte)
			if !an.Parallelizable {
				t.Fatal(an.Reason)
			}
			const tok = "rt"
			exec(createAnyTable(rTableName(tok, cte.Name), cte.Columns, true))
			exec(insertBody(rTableName(tok, cte.Name), cte.Seed))
			pl := newPlan(cte, an, cte.Columns, P, tok, true)
			for _, st := range append(pl.partitionStmts(), pl.mjoinStmts()...) {
				exec(st)
			}

			// Compute on every partition, as computeTask does.
			var msgs []string
			for x := 0; x < P; x++ {
				if len(pl.valueSets) > 0 {
					exec(pl.absorbStmt(x))
				}
				name := msgTableName(tok, cte.Name, int64(x+1))
				exec(pl.messageStmt(x, name))
				exec(pl.msgIndexStmt(name))
				exec(pl.resetStmt(x))
				cols := query(`SELECT * FROM ` + name + ` LIMIT 0`).Columns
				if got, want := strings.Join(cols, ","), strings.Join(pl.msgCols(), ","); got != want {
					t.Fatalf("message table columns %s, want %s", got, want)
				}
				msgs = append(msgs, name)
			}
			total := 0
			for _, m := range msgs {
				total += eng.TableLen(m)
			}

			for x := 0; x < P; x++ {
				mine := 0
				for _, m := range msgs {
					mine += int(query(fmt.Sprintf(`SELECT COUNT(*) FROM %s WHERE part = %d`, m, x)).Rows[0][0].Int())
				}
				rows := eng.TableLen(pl.partName(x))
				bound := int64(mine + rows + len(msgs))
				if int64(total+rows) <= bound {
					t.Fatalf("partition %d: bound %d does not separate the routed read from a full one (%d)", x, bound, total+rows)
				}
				before := eng.Stats().RowsScanned
				exec(pl.gatherStmt(x, msgs))
				if got := eng.Stats().RowsScanned - before; got > bound {
					t.Errorf("partition %d: gather scanned %d rows, want at most %d (%d own messages + %d rows + %d lookups; %d messages in all)",
						x, got, bound, mine, rows, len(msgs), total)
				}
			}

			if tc.name != "avg" {
				return
			}
			// Every node starts with Delta 1, so after one round its delta
			// is the average weight of its in-edges (0 with none).
			sum, cnt := map[int64]float64{}, map[int64]float64{}
			for _, e := range edges {
				sum[e.dst] += e.w
				cnt[e.dst]++
			}
			for x := 0; x < P; x++ {
				res := query(fmt.Sprintf(`SELECT Node, Delta FROM %s`, pl.partName(x)))
				for _, r := range res.Rows {
					n := r[0].Int()
					want := 0.0
					if cnt[n] > 0 {
						want = sum[n] / cnt[n]
					}
					if got := r[1].Float(); math.Abs(got-want) > 1e-9 {
						t.Errorf("node %d avg = %v, want %v", n, got, want)
					}
				}
			}
		})
	}
}

// TestRoutedAvgShardedAndPartitioned runs the AVG workload, whose
// messages carry (val, cnt) pairs, through eight in-process partitions
// and through two- and four-shard groups, whose exchange ships the part
// column with every row, and checks the averages exactly.
func TestRoutedAvgShardedAndPartitioned(t *testing.T) {
	ctx := context.Background()
	sum, cnt := map[int64]float64{}, map[int64]float64{}
	for _, e := range diffGraph {
		sum[e.dst] += e.w
		cnt[e.dst]++
	}
	check := func(t *testing.T, res *Result) {
		t.Helper()
		got := rowsToMap(t, res)
		if len(got) == 0 {
			t.Fatal("no rows")
		}
		for n, v := range got {
			want := 0.0
			if cnt[n] > 0 {
				want = sum[n] / cnt[n]
			}
			if math.Abs(v-want) > 1e-9 {
				t.Errorf("node %d avg = %v, want %v", n, v, want)
			}
		}
	}
	t.Run("partitions8", func(t *testing.T) {
		res, err := newFixtureLoop(t, Options{Mode: ModeSync, Partitions: 8, Threads: 3}).Exec(ctx, avgCTE)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.Parallelized {
			t.Fatalf("did not parallelize: %s", res.Stats.FallbackReason)
		}
		check(t, res)
	})
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("%dshards", n), func(t *testing.T) {
			g := newTestShardGroup(t, "pgsim", n, Options{Mode: ModeSync})
			loadShardFixtures(t, func(q string) (*Result, error) { return g.Exec(ctx, q) })
			res, err := g.Exec(ctx, avgCTE)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.CrossShardRows == 0 {
				t.Error("no rows crossed shards")
			}
			check(t, res)
		})
	}
}
