package core

// Elastic-shard conformance: online repartitioning (grow and shrink)
// between rounds and snapshot repartitioning on resume must preserve
// bit-identical results against the undisturbed single-node run. The failover half of the elastic story
// needs killable endpoints and lives in the root package's fault-matrix
// suite (elastic_test.go); everything here runs on embedded engines.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sqloop/internal/driver"
	"sqloop/internal/engine"
	"sqloop/internal/obs"
	"sqloop/internal/sqlparser"
)

// newElasticTestGroup builds a ShardGroup of n embedded shards plus
// standby replicas of the same profile. Borrowed instances, lifecycle
// on t.Cleanup, like newTestShardGroup.
func newElasticTestGroup(t *testing.T, profile string, n, replicas int, gopts ShardGroupOptions, opts Options) *ShardGroup {
	t.Helper()
	cfg, err := engine.Profile(profile)
	if err != nil {
		t.Fatal(err)
	}
	opts.Dialect = cfg.Dialect.String()
	all := make([]*SQLoop, n+replicas)
	for i := range all {
		eng := engine.New(cfg)
		handle := fmt.Sprintf("%s-elastic%d-%p", strings.ReplaceAll(t.Name(), "/", "_"), i, &all)
		driver.RegisterEngine(handle, eng)
		t.Cleanup(func() { driver.UnregisterEngine(handle) })
		s, err := Open(driver.DriverName, driver.InprocDSN(handle), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		all[i] = s
	}
	gopts.Replicas = append(gopts.Replicas, all[n:]...)
	g, err := NewElasticShardGroup(all[:n], gopts, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestShardedRebalanceDifferential is the rebalance-during-iteration
// conformance matrix: a scheduled 2→4 grow and a 4→2 shrink fire in
// the middle of the fix point, across profiles, modes and all three
// algorithm families, and the final result must match the undisturbed
// single-node run bit for bit.
func TestShardedRebalanceDifferential(t *testing.T) {
	queries := map[string]string{
		"sssp":    shardSSSP,
		"cc":      shardCC,
		"dagrank": shardDAGRank,
	}
	steps := map[string]struct {
		from, to int
	}{
		"grow2to4":   {2, 4},
		"shrink4to2": {4, 2},
	}
	profiles := []string{"pgsim", "mysim", "mariasim"}
	modes := []Mode{ModeSync, ModeAsync, ModeAsyncPrio}
	for _, profile := range profiles {
		t.Run(profile, func(t *testing.T) {
			for name, query := range queries {
				want := singleNodeReference(t, profile, query)
				for _, mode := range modes {
					for stepName, step := range steps {
						t.Run(fmt.Sprintf("%s/%s/%s", name, mode, stepName), func(t *testing.T) {
							rec := &obs.Recorder{}
							replicas := 0
							if step.to > step.from {
								replicas = step.to - step.from
							}
							g := newElasticTestGroup(t, profile, step.from, replicas,
								ShardGroupOptions{Rebalance: []RebalanceStep{{AfterRound: 2, Shards: step.to}}},
								Options{Mode: mode, Observer: rec,
									Checkpoint: CheckpointOptions{Dir: t.TempDir(), EveryRounds: 1}})
							ctx := context.Background()
							loadShardFixtures(t, func(q string) (*Result, error) { return g.Exec(ctx, q) })
							res, err := g.Exec(ctx, query)
							if err != nil {
								t.Fatal(err)
							}
							requireIdenticalRows(t, want, res)
							if res.Stats.Rebalances != 1 {
								t.Errorf("Stats.Rebalances = %d, want 1", res.Stats.Rebalances)
							}
							if res.Stats.ShardCount != step.to {
								t.Errorf("ShardCount = %d, want %d after rebalance", res.Stats.ShardCount, step.to)
							}
							if g.Size() != step.to {
								t.Errorf("group Size = %d, want %d", g.Size(), step.to)
							}
							if g.Epoch() < 1 {
								t.Errorf("Epoch = %d, want >= 1 after a rebalance", g.Epoch())
							}
							if rec.Count("shard_rebalance") != 1 {
								t.Errorf("shard_rebalance events = %d, want 1", rec.Count("shard_rebalance"))
							}
							if n := g.Metrics().Snapshot().Counters["sqloop_shard_rebalances_total"]; n != 1 {
								t.Errorf("sqloop_shard_rebalances_total = %d, want 1", n)
							}
							// A shrink parks the retirees as standbys for later use.
							if step.to < step.from {
								if len(g.Standbys()) != step.from-step.to {
									t.Errorf("standbys after shrink = %d, want %d",
										len(g.Standbys()), step.from-step.to)
								}
							}
						})
					}
				}
			}
		})
	}
}

// TestShardedRebalanceRoundTrip grows 2→4 and shrinks back to 2 inside
// one execution, finishing on the original shard count.
func TestShardedRebalanceRoundTrip(t *testing.T) {
	want := singleNodeReference(t, "pgsim", shardSSSP)
	rec := &obs.Recorder{}
	g := newElasticTestGroup(t, "pgsim", 2, 2,
		ShardGroupOptions{Rebalance: []RebalanceStep{
			{AfterRound: 1, Shards: 4},
			{AfterRound: 3, Shards: 2},
		}},
		Options{Mode: ModeSync, Observer: rec,
			Checkpoint: CheckpointOptions{Dir: t.TempDir(), EveryRounds: 1}})
	ctx := context.Background()
	loadShardFixtures(t, func(q string) (*Result, error) { return g.Exec(ctx, q) })
	res, err := g.Exec(ctx, shardSSSP)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalRows(t, want, res)
	if res.Stats.Rebalances != 2 {
		t.Errorf("Stats.Rebalances = %d, want 2", res.Stats.Rebalances)
	}
	if g.Size() != 2 || len(g.Standbys()) != 2 {
		t.Errorf("final topology = %d shards / %d standbys, want 2/2", g.Size(), len(g.Standbys()))
	}
	if g.Epoch() != 2 {
		t.Errorf("Epoch = %d, want 2", g.Epoch())
	}
}

// TestShardedRequestRebalance covers the dynamic path: a rebalance
// requested mid-flight from the observer (no scheduled steps) must land
// at the next round boundary.
func TestShardedRequestRebalance(t *testing.T) {
	want := singleNodeReference(t, "pgsim", shardCC)
	var g *ShardGroup
	requested := false
	tr := obs.FuncTracer(func(ev obs.Event) {
		if re, ok := ev.(obs.RoundEnd); ok && re.Round == 2 && !requested {
			requested = true
			g.RequestRebalance(4)
		}
	})
	g = newElasticTestGroup(t, "pgsim", 2, 2, ShardGroupOptions{},
		Options{Mode: ModeAsync, Observer: tr,
			Checkpoint: CheckpointOptions{Dir: t.TempDir(), EveryRounds: 1}})
	ctx := context.Background()
	loadShardFixtures(t, func(q string) (*Result, error) { return g.Exec(ctx, q) })
	res, err := g.Exec(ctx, shardCC)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalRows(t, want, res)
	if res.Stats.Rebalances != 1 {
		t.Errorf("Stats.Rebalances = %d, want 1", res.Stats.Rebalances)
	}
	if g.Size() != 4 {
		t.Errorf("group Size = %d, want 4", g.Size())
	}
}

// TestShardedRepartitionResume is the epoch-keyed resume contract: a
// snapshot taken at one shard count must restore onto a different live
// topology of the same group (the state after an online rebalance) by
// re-routing its rows, not by being discarded.
func TestShardedRepartitionResume(t *testing.T) {
	want := singleNodeReference(t, "pgsim", shardSSSP)
	dir := t.TempDir()
	keeper := newSnapshotKeeper(dir)
	rec := &obs.Recorder{}
	g := newElasticTestGroup(t, "pgsim", 2, 2,
		ShardGroupOptions{Rebalance: []RebalanceStep{{AfterRound: 2, Shards: 4}}},
		Options{Mode: ModeSync, Observer: obs.Multi(rec, keeper),
			Checkpoint: CheckpointOptions{Dir: dir, EveryRounds: 1}})
	ctx := context.Background()
	loadShardFixtures(t, func(q string) (*Result, error) { return g.Exec(ctx, q) })

	res, err := g.Exec(ctx, shardSSSP)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalRows(t, want, res)
	if g.Size() != 4 {
		t.Fatalf("group Size = %d, want 4 after the scheduled rebalance", g.Size())
	}

	// The keeper holds the FIRST snapshot — taken at round 1 with 2
	// partitions, before the rebalance. Restoring it against the now
	// 4-shard topology must re-route the 2 recorded partitions onto 4
	// shards and replay to the same result.
	keeper.restore(t)
	res2, err := g.Exec(ctx, shardSSSP)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalRows(t, want, res2)
	if res2.Stats.ResumedFromRound < 1 {
		t.Fatalf("ResumedFromRound = %d, want >= 1", res2.Stats.ResumedFromRound)
	}
	if res2.Stats.ShardCount != 4 {
		t.Fatalf("resumed ShardCount = %d, want 4", res2.Stats.ShardCount)
	}
	if rec.Count("restore") != 1 {
		t.Fatalf("restore events = %d, want 1", rec.Count("restore"))
	}
}

// TestShardedMalformedGroupSnapshot pins the discard half of the resume
// contract: a snapshot whose table list does not match its recorded
// partition count is internally inconsistent and must be discarded (a
// count MISMATCH with the live topology alone is handled by
// repartitioning, so the discard must key off internal shape only).
func TestShardedMalformedGroupSnapshot(t *testing.T) {
	want := singleNodeReference(t, "pgsim", shardSSSP)
	dir := t.TempDir()
	keeper := newSnapshotKeeper(dir)
	rec := &obs.Recorder{}
	g := newTestShardGroup(t, "pgsim", 2, Options{
		Mode:       ModeSync,
		Observer:   obs.Multi(rec, keeper),
		Checkpoint: CheckpointOptions{Dir: dir, EveryRounds: 1},
	})
	ctx := context.Background()
	loadShardFixtures(t, func(q string) (*Result, error) { return g.Exec(ctx, q) })
	if _, err := g.Exec(ctx, shardSSSP); err != nil {
		t.Fatal(err)
	}

	keeper.restore(t)
	// Truncate ONE shard's partition table out of the snapshot: the
	// shape check must reject it and the run must start fresh.
	loop0 := g.loopFor(0)
	ck, err := loop0.newCkptRun(mustLoopCTE(t, shardSSSP))
	if err != nil {
		t.Fatal(err)
	}
	if !ck.restoring() {
		t.Fatal("sanity: restored snapshot not visible")
	}
	snap := ck.resumed
	snap.Tables = snap.Tables[:1]
	if _, err := ck.store.Save(snap); err != nil {
		t.Fatal(err)
	}

	res, err := g.Exec(ctx, shardSSSP)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalRows(t, want, res)
	if res.Stats.ResumedFromRound != 0 {
		t.Fatalf("ResumedFromRound = %d, want 0 for a malformed snapshot", res.Stats.ResumedFromRound)
	}
	if rec.Count("restore") != 0 {
		t.Fatalf("restore events = %d, want 0", rec.Count("restore"))
	}
}

// mustLoopCTE parses a WITH ITERATIVE statement for test plumbing.
func mustLoopCTE(t *testing.T, query string) *sqlparser.LoopCTEStmt {
	t.Helper()
	st, err := sqlparser.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	cte, ok := st.(*sqlparser.LoopCTEStmt)
	if !ok {
		t.Fatalf("parsed %T, want *sqlparser.LoopCTEStmt", st)
	}
	return cte
}

// TestElasticGroupValidation pins constructor errors: invalid rebalance
// steps and growing past the standby pool.
func TestElasticGroupValidation(t *testing.T) {
	if _, err := NewElasticShardGroup(nil, ShardGroupOptions{}, Options{}, false); err == nil {
		t.Error("empty shard list accepted")
	}
	g := newTestShardGroup(t, "pgsim", 1, Options{})
	if _, err := NewElasticShardGroup(g.Shards(), ShardGroupOptions{
		Rebalance: []RebalanceStep{{AfterRound: 0, Shards: 2}},
	}, Options{}, false); err == nil {
		t.Error("rebalance step with AfterRound 0 accepted")
	}
	if _, err := NewElasticShardGroup(g.Shards(), ShardGroupOptions{
		Rebalance: []RebalanceStep{{AfterRound: 1, Shards: 0}},
	}, Options{}, false); err == nil {
		t.Error("rebalance step to 0 shards accepted")
	}

	// Growing beyond the standby pool must fail the execution cleanly.
	eg := newElasticTestGroup(t, "pgsim", 2, 0,
		ShardGroupOptions{Rebalance: []RebalanceStep{{AfterRound: 1, Shards: 4}}},
		Options{Mode: ModeSync})
	ctx := context.Background()
	loadShardFixtures(t, func(q string) (*Result, error) { return eg.Exec(ctx, q) })
	if _, err := eg.Exec(ctx, shardSSSP); err == nil ||
		!strings.Contains(err.Error(), "standby") {
		t.Errorf("grow without standbys: err = %v, want standby shortage", err)
	}
}
