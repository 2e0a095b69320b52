package core

// Seeded property test for sharded execution: deterministic random
// graphs and random query shapes (aggregate, mode, backend, shard
// count, termination) run sharded and single-node, and every case must
// match bit for bit. All randomness flows from the per-case seed — no
// wall clock, no global rand — so any failure is reproduced by its
// printed seed alone.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sqloop/internal/driver"
	"sqloop/internal/engine"
	"sqloop/internal/obs"
	"sqloop/internal/wire"
)

// shardPropCases is the number of seeds the property test sweeps. Each
// case builds fresh engines, so the sweep stays deliberately modest in
// graph size rather than case count.
const shardPropCases = 60

// propCase is one generated scenario, fully determined by Seed.
type propCase struct {
	Seed     int64
	Profile  string
	Mode     Mode
	Shards   int
	Template string // "sssp", "cc" or "dagrank"
	ExprTerm bool   // dagrank only: aggregate UNTIL instead of 0 UPDATES
	Edges    []shardEdge
	Source   int64 // sssp only

	// Elastic schedule. A case with any of these runs over killable
	// wire endpoints instead of inproc engines.
	Standbys    int
	KillShard   int // -1 when no kill is scheduled
	KillRound   int
	RebalanceTo int // 0 when no rebalance is scheduled
	RebalanceAt int
}

func (c propCase) elastic() bool {
	return c.Standbys > 0 || c.KillShard >= 0 || c.RebalanceTo > 0
}

func (c propCase) String() string {
	return fmt.Sprintf("seed=%d profile=%s mode=%s shards=%d template=%s exprTerm=%v edges=%d source=%d standbys=%d kill=%d@%d rebalance=%d@%d",
		c.Seed, c.Profile, c.Mode, c.Shards, c.Template, c.ExprTerm, len(c.Edges), c.Source,
		c.Standbys, c.KillShard, c.KillRound, c.RebalanceTo, c.RebalanceAt)
}

// genPropCase derives a scenario from a seed. Weights stay exact in
// binary floating point — integers for the MIN fix points, dyadic
// rationals (out-degrees forced to powers of two) for the SUM one — so
// bit identity is a sound oracle for every generated case.
func genPropCase(seed int64) propCase {
	rng := rand.New(rand.NewSource(seed))
	c := propCase{
		Seed:      seed,
		Profile:   []string{"pgsim", "mysim", "mariasim"}[rng.Intn(3)],
		Mode:      []Mode{ModeSync, ModeAsync, ModeAsyncPrio}[rng.Intn(3)],
		Shards:    2 + rng.Intn(3),
		KillShard: -1,
	}
	nodes := 6 + rng.Intn(11)
	switch rng.Intn(3) {
	case 0:
		c.Template = "sssp"
		nEdges := nodes + rng.Intn(2*nodes)
		for i := 0; i < nEdges; i++ {
			src := int64(1 + rng.Intn(nodes))
			dst := int64(1 + rng.Intn(nodes))
			if src == dst {
				continue
			}
			c.Edges = append(c.Edges, shardEdge{src, dst, float64(1 + rng.Intn(8))})
		}
		if len(c.Edges) == 0 {
			c.Edges = append(c.Edges, shardEdge{1, 2, 1})
		}
		c.Source = c.Edges[rng.Intn(len(c.Edges))].src
	case 1:
		c.Template = "cc"
		nEdges := nodes/2 + rng.Intn(nodes)
		for i := 0; i < nEdges; i++ {
			src := int64(1 + rng.Intn(nodes))
			dst := int64(1 + rng.Intn(nodes))
			if src == dst {
				continue
			}
			// Label propagation wants both directions with zero weight.
			c.Edges = append(c.Edges, shardEdge{src, dst, 0}, shardEdge{dst, src, 0})
		}
		if len(c.Edges) == 0 {
			c.Edges = append(c.Edges, shardEdge{1, 2, 0}, shardEdge{2, 1, 0})
		}
		// Self-loops keep min-propagation monotone on bipartite
		// components (see loadShardFixtures); without them synchronous
		// label exchange oscillates and 0 UPDATES never quiesces.
		for n := int64(1); n <= int64(nodes); n++ {
			c.Edges = append(c.Edges, shardEdge{n, n, 0})
		}
	default:
		c.Template = "dagrank"
		c.ExprTerm = rng.Intn(2) == 1
		// A layered DAG: each non-sink node links forward to 1, 2 or 4
		// later nodes, so 1/outdeg is always a dyadic rational.
		for n := 1; n < nodes; n++ {
			remaining := nodes - n
			deg := []int{1, 2, 4}[rng.Intn(3)]
			if deg > remaining {
				deg = remaining
			}
			if deg == 3 {
				deg = 2
			}
			seen := map[int64]bool{}
			for len(seen) < deg {
				seen[int64(n+1+rng.Intn(remaining))] = true
			}
			for dst := range seen {
				c.Edges = append(c.Edges, shardEdge{int64(n), dst, 1.0 / float64(deg)})
			}
		}
	}
	// Elastic schedule: some cases get standby replicas plus a shard
	// kill, a topology change, or both — the fix
	// point must come out bit-identical regardless.
	c.Standbys = rng.Intn(3)
	if c.Standbys > 0 && rng.Intn(3) == 0 {
		c.KillShard = rng.Intn(c.Shards)
		c.KillRound = 1 + rng.Intn(3)
	}
	if rng.Intn(3) == 0 {
		// A kill consumes one standby at failover, so a grow may only
		// reach a size that still leaves a replica for the swap.
		spare := c.Standbys
		if c.KillShard >= 0 {
			spare--
		}
		to := 1 + rng.Intn(c.Shards+spare)
		if to != c.Shards {
			c.RebalanceTo = to
			c.RebalanceAt = 1 + rng.Intn(3)
		}
	}
	return c
}

// query renders the scenario's CTE text.
func (c propCase) query() string {
	switch c.Template {
	case "sssp":
		return fmt.Sprintf(`
WITH ITERATIVE sssp(Node, Distance, Delta) AS (
  SELECT src, CASE WHEN src = %[1]d THEN 0.0 ELSE Infinity END,
         CASE WHEN src = %[1]d THEN 0.0 ELSE Infinity END
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
  UNTIL 0 UPDATES
)
SELECT Node, Distance FROM sssp ORDER BY Node`, c.Source)
	case "cc":
		return strings.ReplaceAll(shardCC, "biedges", "edges")
	default:
		q := shardDAGRank
		if c.ExprTerm {
			q = strings.Replace(q, "UNTIL 0 UPDATES",
				"UNTIL (SELECT MAX(dagrank.Delta) FROM dagrank) < 0.0000001", 1)
		}
		// Renames the edge table AND the CTE ("dagrank" -> "edgesrank"),
		// consistently across step, UNTIL and final.
		return strings.ReplaceAll(q, "dag", "edges")
	}
}

// load creates and fills the edges table through exec.
func (c propCase) load(t *testing.T, exec func(string) (*Result, error)) {
	t.Helper()
	if _, err := exec(`CREATE TABLE edges (src BIGINT, dst BIGINT, weight DOUBLE)`); err != nil {
		t.Fatalf("%s: create: %v", c, err)
	}
	rows := make([]string, len(c.Edges))
	for i, e := range c.Edges {
		rows[i] = fmt.Sprintf("(%d, %d, %g)", e.src, e.dst, e.w)
	}
	if _, err := exec(`INSERT INTO edges VALUES ` + strings.Join(rows, ", ")); err != nil {
		t.Fatalf("%s: insert: %v", c, err)
	}
}

// wirePropInstance starts one killable wire endpoint of the profile's
// config and opens a SQLoop over TCP with fast reconnect policies.
func wirePropInstance(t *testing.T, cfg engine.Config, opts Options) (*wire.Server, *SQLoop) {
	t.Helper()
	srv := wire.NewServer(engine.New(cfg))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	dsn := driver.TCPDSN(addr)
	driver.Configure(dsn, driver.Config{Retry: driver.RetryPolicy{
		MaxAttempts: 4, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond,
	}})
	t.Cleanup(func() { driver.Configure(dsn, driver.Config{}) })
	s, err := Open(driver.DriverName, dsn, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return srv, s
}

// runPlainPropCase is the original inproc differential: sharded versus
// single-node on embedded engines, no faults.
func runPlainPropCase(t *testing.T, c propCase, query string) {
	ctx := context.Background()
	ref := newTestShardGroup(t, c.Profile, 1, Options{Mode: ModeSingle})
	c.load(t, func(q string) (*Result, error) { return ref.Exec(ctx, q) })
	want, err := ref.Exec(ctx, query)
	if err != nil {
		t.Fatalf("%s: single-node run: %v", c, err)
	}

	g := newTestShardGroup(t, c.Profile, c.Shards, Options{Mode: c.Mode})
	c.load(t, func(q string) (*Result, error) { return g.Exec(ctx, q) })
	got, err := g.Exec(ctx, query)
	if err != nil {
		t.Fatalf("%s: sharded run: %v", c, err)
	}
	if got.Stats.ShardCount != c.Shards {
		t.Fatalf("%s: ShardCount = %d, want %d", c, got.Stats.ShardCount, c.Shards)
	}
	if !reflectEqualResults(want, got) {
		t.Fatalf("%s: sharded result diverged from single-node\nwant: %v\ngot:  %v",
			c, want.Rows, got.Rows)
	}
}

// runElasticPropCase executes the scheduled kill and rebalance
// events over killable wire endpoints. The reference runs single-node
// over the same transport so type identity stays a sound oracle.
func runElasticPropCase(t *testing.T, c propCase, query string) {
	ctx := context.Background()
	cfg, err := engine.Profile(c.Profile)
	if err != nil {
		t.Fatal(err)
	}
	_, ref := wirePropInstance(t, cfg, Options{Mode: ModeSingle, Dialect: cfg.Dialect.String()})
	c.load(t, func(q string) (*Result, error) { return ref.Exec(ctx, q) })
	want, err := ref.Exec(ctx, query)
	if err != nil {
		t.Fatalf("%s: single-node run: %v", c, err)
	}

	opts := Options{Mode: c.Mode, Dialect: cfg.Dialect.String()}
	servers := make([]*wire.Server, c.Shards+c.Standbys)
	instances := make([]*SQLoop, c.Shards+c.Standbys)
	for i := range servers {
		servers[i], instances[i] = wirePropInstance(t, cfg, opts)
	}
	var killed atomic.Bool
	if c.KillShard >= 0 {
		opts.Observer = obs.FuncTracer(func(ev obs.Event) {
			if e, ok := ev.(obs.RoundEnd); ok && e.Round == c.KillRound &&
				killed.CompareAndSwap(false, true) {
				_ = servers[c.KillShard].Close()
			}
		})
	}
	opts.Checkpoint = CheckpointOptions{
		Dir: t.TempDir(), EveryRounds: 1, RetryBackoff: time.Millisecond,
	}
	gopts := ShardGroupOptions{
		Replicas:     instances[c.Shards:],
		ProbeTimeout: time.Second,
	}
	if c.RebalanceTo > 0 {
		gopts.Rebalance = []RebalanceStep{{AfterRound: c.RebalanceAt, Shards: c.RebalanceTo}}
	}
	g, err := NewElasticShardGroup(instances[:c.Shards], gopts, opts, false)
	if err != nil {
		t.Fatalf("%s: group: %v", c, err)
	}
	c.load(t, func(q string) (*Result, error) { return g.Exec(ctx, q) })
	got, err := g.Exec(ctx, query)
	if err != nil {
		t.Fatalf("%s: elastic run: %v", c, err)
	}
	if c.KillShard >= 0 && killed.Load() && got.Stats.Failovers < 1 {
		// The kill may land after convergence; only a fired kill that
		// went unnoticed is suspicious when rounds remained.
		t.Logf("%s: kill fired but no failover (converged first)", c)
	}
	// A consumed rebalance step (even one consumed before a failover
	// replay) leaves the group at the target size; an unconsumed one
	// (converged first) leaves it at the original size.
	if n := g.Size(); n != c.Shards && n != c.RebalanceTo {
		t.Fatalf("%s: group size = %d, want %d or %d", c, n, c.Shards, c.RebalanceTo)
	}
	if got.Stats.ShardCount != g.Size() {
		t.Fatalf("%s: ShardCount = %d, group size %d", c, got.Stats.ShardCount, g.Size())
	}
	if !reflectEqualResults(want, got) {
		t.Fatalf("%s: elastic result diverged from single-node\nwant: %v\ngot:  %v",
			c, want.Rows, got.Rows)
	}
}

// TestShardedProperty sweeps the seeded scenarios. A failing case names
// its seed; set SQLOOP_PROP_SEED to that number to re-run exactly that
// case (the env override also bypasses -short).
func TestShardedProperty(t *testing.T) {
	first, last := int64(0), int64(shardPropCases)
	if env := os.Getenv("SQLOOP_PROP_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("SQLOOP_PROP_SEED=%q: %v", env, err)
		}
		first, last = seed, seed+1
	} else if testing.Short() {
		t.Skip("property sweep skipped in -short mode")
	}
	for seed := first; seed < last; seed++ {
		c := genPropCase(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			query := c.query()
			if c.elastic() {
				runElasticPropCase(t, c, query)
			} else {
				runPlainPropCase(t, c, query)
			}
		})
	}
}

// reflectEqualResults is requireIdenticalRows as a predicate, so the
// property test can attach the reproducing seed to the failure.
func reflectEqualResults(want, got *Result) bool {
	if len(want.Columns) != len(got.Columns) || len(want.Rows) != len(got.Rows) {
		return false
	}
	for i := range want.Columns {
		if want.Columns[i] != got.Columns[i] {
			return false
		}
	}
	for i := range want.Rows {
		if len(want.Rows[i]) != len(got.Rows[i]) {
			return false
		}
		for j := range want.Rows[i] {
			if fmt.Sprintf("%T|%v", want.Rows[i][j], want.Rows[i][j]) !=
				fmt.Sprintf("%T|%v", got.Rows[i][j], got.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}
