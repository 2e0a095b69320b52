package sqloop_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"sqloop"
	"sqloop/internal/driver"
	"sqloop/internal/engine"
	"sqloop/internal/storage"
	"sqloop/internal/wire"
)

// The crash-restart matrix: every storage backend × every parallel
// execution mode. Each subtest runs a query uninterrupted, then runs it
// again with the engine connection killed right after the first
// checkpoint, and requires the recovered run to produce the same final
// result while reporting where it resumed.

const recoveryPageRank = `
WITH ITERATIVE PageRank(Node, Rank, Delta) AS (
  SELECT src, 0.0, 0.15
  FROM (SELECT src FROM edges UNION SELECT dst AS src FROM edges) AS alledges
  GROUP BY src
  ITERATE
  SELECT PageRank.Node,
         COALESCE(PageRank.Rank + PageRank.Delta, 0.15),
         COALESCE(0.85 * SUM(IncomingRank.Delta * IncomingEdges.weight), 0.0)
  FROM PageRank
  LEFT JOIN edges AS IncomingEdges ON PageRank.Node = IncomingEdges.dst
  LEFT JOIN PageRank AS IncomingRank ON IncomingRank.Node = IncomingEdges.src
  GROUP BY PageRank.Node
  UNTIL 8 ITERATIONS
)
SELECT Node, Rank + Delta AS Rank FROM PageRank`

const recoverySSSP = `
WITH ITERATIVE sssp(Node, Distance, Delta) AS (
  SELECT src, CASE WHEN src = 1 THEN 0.0 ELSE Infinity END,
         CASE WHEN src = 1 THEN 0.0 ELSE Infinity END
  FROM (SELECT src FROM edges UNION SELECT dst AS src FROM edges) AS alledges
  GROUP BY src
  ITERATE
  SELECT sssp.Node,
         LEAST(sssp.Distance, sssp.Delta),
         COALESCE(MIN(Neighbor.Distance + IncomingEdges.weight), Infinity)
  FROM sssp
  LEFT JOIN edges AS IncomingEdges ON sssp.Node = IncomingEdges.dst
  LEFT JOIN sssp AS Neighbor ON Neighbor.Node = IncomingEdges.src
  WHERE Neighbor.Delta != Infinity
  GROUP BY sssp.Node
  UNTIL %s
)
SELECT Node, Distance FROM sssp`

// recoveryEdges is a small cyclic graph; edge weights are normalized by
// the source's out-degree.
var recoveryEdges = [][2]int64{
	{1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}, {4, 1},
	{4, 5}, {5, 3}, {5, 6}, {6, 7}, {7, 6}, {3, 7},
}

func recoveryWeights() map[[2]int64]float64 {
	outdeg := map[int64]int{}
	for _, e := range recoveryEdges {
		outdeg[e[0]]++
	}
	w := make(map[[2]int64]float64, len(recoveryEdges))
	for _, e := range recoveryEdges {
		w[e] = 1.0 / float64(outdeg[e[0]])
	}
	return w
}

// recoveryDijkstra is the SSSP oracle for recoverySSSP: shortest
// distances from node 1 over recoveryEdges.
func recoveryDijkstra() map[int64]float64 {
	w := recoveryWeights()
	dist := map[int64]float64{}
	for _, e := range recoveryEdges {
		dist[e[0]], dist[e[1]] = math.Inf(1), math.Inf(1)
	}
	dist[1] = 0
	done := map[int64]bool{}
	for len(done) < len(dist) {
		u := int64(-1)
		for n, d := range dist {
			if !done[n] && (u < 0 || d < dist[u] || (d == dist[u] && n < u)) {
				u = n
			}
		}
		done[u] = true
		for e, ew := range w {
			if e[0] == u && dist[u]+ew < dist[e[1]] {
				dist[e[1]] = dist[u] + ew
			}
		}
	}
	return dist
}

// requireSSSPOracle checks one run's distances against the oracle.
func requireSSSPOracle(t *testing.T, run string, got map[int64]float64) {
	t.Helper()
	want := recoveryDijkstra()
	if len(got) != len(want) {
		t.Fatalf("%s run: %d nodes, oracle %d", run, len(got), len(want))
	}
	for n, w := range want {
		if g, ok := got[n]; !ok || math.Abs(w-g) > 1e-9 {
			t.Fatalf("%s run: node %d distance %v, oracle %v", run, n, g, w)
		}
	}
}

// loadRecoveryGraph creates edges(src, dst, weight) over recoveryEdges.
func loadRecoveryGraph(t *testing.T, s *sqloop.SQLoop) {
	t.Helper()
	ctx := context.Background()
	if _, err := s.Exec(ctx, `DROP TABLE IF EXISTS edges`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(ctx, `CREATE TABLE edges (src BIGINT, dst BIGINT, weight DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	w := recoveryWeights()
	for _, e := range recoveryEdges {
		stmt := fmt.Sprintf(`INSERT INTO edges VALUES (%d, %d, %g)`, e[0], e[1], w[e])
		if _, err := s.Exec(ctx, stmt); err != nil {
			t.Fatal(err)
		}
	}
}

func resultMap(t *testing.T, res *sqloop.Result) map[int64]float64 {
	t.Helper()
	out := map[int64]float64{}
	for _, row := range res.Rows {
		out[row[0].(int64)] = row[1].(float64)
	}
	return out
}

func TestCrashRecoveryMatrix(t *testing.T) {
	modes := []struct {
		mode  sqloop.Mode
		name  string
		query string
	}{
		// Iteration-capped async runs of PageRank are schedule-dependent,
		// so the async modes use SSSP, whose fix point is
		// schedule-independent. The prioritized scheduler only advances
		// rounds for partitions with work, so its round counter — and with
		// it the checkpoint cadence — needs the iteration-bounded variant
		// (8 rounds is far past convergence on this graph, so the result
		// is still the exact fix point).
		{sqloop.ModeSync, "sync", recoveryPageRank},
		{sqloop.ModeAsync, "async", fmt.Sprintf(recoverySSSP, "0 UPDATES")},
		{sqloop.ModeAsyncPrio, "asyncp", fmt.Sprintf(recoverySSSP, "8 ITERATIONS")},
	}
	for _, profile := range sqloop.Profiles() {
		for _, m := range modes {
			t.Run(profile+"/"+m.name, func(t *testing.T) {
				want, got := runCrashRecovery(t, profile, m.mode, m.query)
				if m.query != recoveryPageRank {
					requireSSSPOracle(t, "uninterrupted", want)
					requireSSSPOracle(t, "recovered", got)
				}
			})
		}
	}
}

// runCrashRecovery returns the uninterrupted and the recovered run's
// results, keyed by node, after requiring them to agree.
func runCrashRecovery(t *testing.T, profile string, mode sqloop.Mode, query string, serveOpts ...sqloop.OpenOption) (want, got map[int64]float64) {
	srv, err := sqloop.Serve(profile, "127.0.0.1:0", serveOpts...)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dsn := srv.DSN()
	ctx := context.Background()

	// Keep the driver's reconnect loop fast under test. sqloop.Open
	// below merges its metrics registry into this same per-DSN entry.
	driver.Configure(dsn, driver.Config{Retry: driver.RetryPolicy{
		MaxAttempts: 4, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond,
	}})
	defer driver.Configure(dsn, driver.Config{})
	// The injector must be registered before any connection dials so
	// every connection (coordinator and workers) shares it; it carries
	// no scheduled faults until the test arms it.
	inj := wire.NewInjector()
	wire.SetAddrInjector(srv.Addr(), inj)
	defer wire.SetAddrInjector(srv.Addr(), nil)

	opts := sqloop.Options{Mode: mode, Partitions: 4, Threads: 2}

	// Uninterrupted reference run.
	base, err := sqloop.Open(dsn, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	loadRecoveryGraph(t, base)
	ref, err := base.Exec(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	want = resultMap(t, ref)

	// Faulted run: on the first checkpoint event, schedule a connection
	// kill on the very next wire operation. The request is dropped after
	// it was sent, the worst case: the driver cannot transparently retry
	// and must surface a lost connection to the middleware.
	var killed atomic.Bool
	rec := &sqloop.Recorder{}
	observer := sqloop.MultiTracer(rec, sqloop.FuncTracer(func(ev sqloop.Event) {
		if _, ok := ev.(sqloop.CheckpointEvent); ok && killed.CompareAndSwap(false, true) {
			inj.Arm(wire.FaultDropAfterSend)
		}
	}))
	opts.Observer = observer
	// EveryRounds must be 1: the async schedulers checkpoint when the
	// minimum per-partition round counter hits a multiple of K, and on
	// this small graph some schedules reach quiescence before every
	// partition finishes round 2 — with K=2 the fault would then never
	// arm. Every partition completes round 1 before quiescence, so K=1
	// guarantees a checkpoint in every schedule.
	opts.Checkpoint = sqloop.CheckpointOptions{
		Dir: t.TempDir(), EveryRounds: 1, RetryBackoff: time.Millisecond,
	}
	s, err := sqloop.Open(dsn, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	res, err := s.Exec(ctx, query)
	if err != nil {
		t.Fatalf("query did not survive the connection kill: %v", err)
	}
	if !killed.Load() {
		t.Fatal("no checkpoint was ever taken; the fault never fired")
	}
	if inj.Fired() < 1 {
		t.Fatal("the armed fault never fired")
	}
	if res.Stats.Recoveries < 1 {
		t.Fatalf("Recoveries = %d, want >= 1", res.Stats.Recoveries)
	}
	if res.Stats.ResumedFromRound < 1 {
		t.Fatalf("ResumedFromRound = %d, want the last checkpointed round", res.Stats.ResumedFromRound)
	}
	if rec.Count("retry") < 1 {
		t.Fatalf("retry events = %d, want >= 1", rec.Count("retry"))
	}
	if rec.Count("restore") < 1 {
		t.Fatalf("restore events = %d, want >= 1", rec.Count("restore"))
	}

	got = resultMap(t, res)
	if len(got) != len(want) {
		t.Fatalf("row counts differ: want %d, got %d", len(want), len(got))
	}
	for n, w := range want {
		g, ok := got[n]
		if !ok {
			t.Fatalf("node %d missing from recovered result", n)
		}
		if math.Abs(w-g) > 1e-9 {
			t.Fatalf("node %d: uninterrupted %g, recovered %g", n, w, g)
		}
	}
	return want, got
}

// TestCrashRecoverySingleMode covers the single-threaded executor's
// checkpoint path over the wire as well.
func TestCrashRecoverySingleMode(t *testing.T) {
	runCrashRecovery(t, "pgsim", sqloop.ModeSingle, recoveryPageRank)
}

// TestCrashRecoveryDiskBackend runs the interruption matrix against a
// server on the durable pager backend with a deliberately small buffer
// pool, so the kill lands while table state straddles the buffer pool,
// the page files and the write-ahead logs. The recovered result must
// match the uninterrupted run, same as for the in-memory backends.
func TestCrashRecoveryDiskBackend(t *testing.T) {
	modes := []struct {
		mode  sqloop.Mode
		name  string
		query string
	}{
		{sqloop.ModeSingle, "single", recoveryPageRank},
		{sqloop.ModeSync, "sync", recoveryPageRank},
		{sqloop.ModeAsync, "async", fmt.Sprintf(recoverySSSP, "0 UPDATES")},
		{sqloop.ModeAsyncPrio, "asyncp", fmt.Sprintf(recoverySSSP, "8 ITERATIONS")},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			want, got := runCrashRecovery(t, "pgsim", m.mode, m.query,
				sqloop.WithBackend("disk"),
				sqloop.WithDataDir(t.TempDir()),
				sqloop.WithBufferPoolPages(64))
			if m.query != recoveryPageRank {
				requireSSSPOracle(t, "uninterrupted", want)
				requireSSSPOracle(t, "recovered", got)
			}
		})
	}
}

// TestKeepTableSurvivesRestart runs SSSP with KeepTable on a disk data
// dir, closes the instance and opens the dir with a fresh engine: the
// kept table must hold the answer bit for bit, and no working table of
// the run — all of them unlogged — may be left in the catalog or the
// directory.
func TestKeepTableSurvivesRestart(t *testing.T) {
	for _, m := range []struct {
		name string
		mode sqloop.Mode
	}{{"single", sqloop.ModeSingle}, {"sync", sqloop.ModeSync}} {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := sqloop.OpenEmbedded("pgsim", sqloop.Options{
				Mode: m.mode, Partitions: 4, Threads: 2, KeepTable: true,
				Checkpoint: sqloop.CheckpointOptions{Dir: t.TempDir(), EveryRounds: 1},
			}, sqloop.WithBackend("disk"), sqloop.WithDataDir(dir), sqloop.WithBufferPoolPages(8))
			if err != nil {
				t.Fatal(err)
			}
			loadRecoveryGraph(t, s)
			res, err := s.Exec(context.Background(), fmt.Sprintf(recoverySSSP, "0 UPDATES"))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			want := map[int64]uint64{}
			for _, row := range res.Rows {
				want[row[0].(int64)] = math.Float64bits(row[1].(float64))
			}
			requireSSSPOracle(t, "kept", resultMap(t, res))

			cfg, err := engine.Profile("pgsim")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Backend, cfg.DataDir = storage.KindDisk, dir
			eng := engine.New(cfg)
			defer eng.Close()
			kept, err := eng.NewSession().Exec(`SELECT Node, Distance FROM sssp`)
			if err != nil {
				t.Fatalf("kept table lost on restart: %v", err)
			}
			if len(kept.Rows) != len(want) {
				t.Fatalf("kept table holds %d rows, answer %d", len(kept.Rows), len(want))
			}
			for _, row := range kept.Rows {
				n, d := row[0].GoValue().(int64), row[1].GoValue().(float64)
				if w, ok := want[n]; !ok || w != math.Float64bits(d) {
					t.Fatalf("node %d: kept %v, answer %v", n, d, math.Float64frombits(w))
				}
			}
			if got := eng.TableNames(); fmt.Sprint(got) != "[edges sssp]" {
				t.Fatalf("catalog after restart = %v, want [edges sssp]", got)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var files []string
			for _, e := range ents {
				files = append(files, e.Name())
			}
			if fmt.Sprint(files) != "[catalog.json edges.pages edges.wal sssp.pages sssp.wal]" {
				t.Fatalf("data dir after restart holds %v", files)
			}
		})
	}
}
