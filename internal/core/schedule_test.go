package core

// Tests of the round scheduler's shared pieces: the per-partition
// inboxes that replace a global message registry, and the AsyncP
// iteration-bounded schedule running over a shard group.

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sqloop/internal/obs"
)

// TestInboxesDropOnceByLastReader posts one table to several readers
// that take, read and release it concurrently: exactly one release —
// the last — reports the table droppable, and only once no other
// reader still holds it.
func TestInboxesDropOnceByLastReader(t *testing.T) {
	const readers = 8
	for trial := 0; trial < 200; trial++ {
		b := newInboxes(readers)
		tbl := &msgTable{name: "m"}
		dests := make([]int, readers)
		for x := range dests {
			dests[x] = x
		}
		b.post(tbl, dests)
		var reading, drops atomic.Int64
		var wg sync.WaitGroup
		for x := 0; x < readers; x++ {
			wg.Add(1)
			go func(x int) {
				defer wg.Done()
				items := b.take(x)
				if len(items) != 1 || items[0].table != tbl {
					t.Errorf("reader %d took %v, want the posted table", x, items)
					return
				}
				reading.Add(1)
				runtime.Gosched() // the gather statement reads the table
				reading.Add(-1)
				if b.release(tbl) {
					if n := reading.Load(); n != 0 {
						t.Errorf("table dropped while %d readers still read it", n)
					}
					drops.Add(1)
					b.dropped(tbl)
				}
			}(x)
		}
		wg.Wait()
		if n := drops.Load(); n != 1 {
			t.Fatalf("trial %d: table dropped %d times, want once", trial, n)
		}
		if left := b.remaining(); len(left) != 0 {
			t.Fatalf("trial %d: dropped table still live: %v", trial, left)
		}
	}
}

// TestInboxesLiveUntilDropped keeps a table whose last reader failed
// to drop it on the cleanup list.
func TestInboxesLiveUntilDropped(t *testing.T) {
	b := newInboxes(2)
	tbl := &msgTable{name: "m"}
	b.post(tbl, []int{0, 1})
	b.take(0)
	if b.release(tbl) {
		t.Fatal("first of two readers reported itself last")
	}
	b.take(1)
	if !b.release(tbl) {
		t.Fatal("second of two readers was not last")
	}
	if left := b.remaining(); len(left) != 1 || left[0] != tbl {
		t.Fatalf("remaining = %v, want the undropped table", left)
	}
}

// TestInboxesBatchDuringGatherWaits delivers a batch while a gather
// holds the partition's earlier messages: the batch stays unread for
// the next gather instead of joining the running one.
func TestInboxesBatchDuringGatherWaits(t *testing.T) {
	b := newInboxes(2)
	tbl := &msgTable{name: "m"}
	b.post(tbl, []int{1})
	running := b.take(1)
	if len(running) != 1 || b.unread(1) {
		t.Fatalf("take = %v, unread after take = %v", running, b.unread(1))
	}
	b.postBatch(1, []byte("late"))
	if len(running) != 1 {
		t.Fatalf("running gather's messages grew to %d", len(running))
	}
	if !b.unread(1) || !b.anyUnread() || b.unread(0) {
		t.Fatal("the late batch is not pending for partition 1 alone")
	}
	next := b.take(1)
	if len(next) != 1 || string(next[0].batch) != "late" {
		t.Fatalf("next gather took %v, want the late batch", next)
	}
	if b.anyUnread() {
		t.Fatal("messages left after both gathers")
	}
}

// dijkstraDiffGraph is the shortest-path oracle for shardSSSP on
// diffGraph from node 1; unreachable nodes stay at +Inf.
func dijkstraDiffGraph() map[int64]float64 {
	dist := map[int64]float64{}
	for _, e := range diffGraph {
		dist[e.src], dist[e.dst] = math.Inf(1), math.Inf(1)
	}
	dist[1] = 0
	done := map[int64]bool{}
	for {
		u, best := int64(0), math.Inf(1)
		for n, d := range dist {
			if !done[n] && d < best {
				u, best = n, d
			}
		}
		if math.IsInf(best, 1) {
			return dist
		}
		done[u] = true
		for _, e := range diffGraph {
			if e.src == u && best+e.w < dist[e.dst] {
				dist[e.dst] = best + e.w
			}
		}
	}
}

// TestShardedAsyncPIterationsCheckpoint runs an iteration-bounded
// AsyncP SSSP over two embedded shards with a checkpoint every round:
// the idle-round guard and the due-checkpoint-before-quiescence rule of
// the shared scheduler must hold on shards too, so the run checkpoints,
// counts exactly its bound and reaches the shortest paths.
func TestShardedAsyncPIterationsCheckpoint(t *testing.T) {
	const rounds = 30
	rec := &obs.Recorder{}
	g := newTestShardGroup(t, "pgsim", 2, Options{
		Mode:       ModeAsyncPrio,
		Observer:   rec,
		Checkpoint: CheckpointOptions{Dir: t.TempDir(), EveryRounds: 1},
	})
	ctx := context.Background()
	loadShardFixtures(t, func(q string) (*Result, error) { return g.Exec(ctx, q) })
	query := strings.Replace(shardSSSP, "UNTIL 0 UPDATES", "UNTIL 30 ITERATIONS", 1)
	res, err := g.Exec(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShardCount != 2 {
		t.Fatalf("ShardCount = %d, want 2", res.Stats.ShardCount)
	}
	if res.Stats.Iterations != rounds {
		t.Errorf("Iterations = %d, want %d", res.Stats.Iterations, rounds)
	}
	if n := rec.Count("checkpoint"); n < 1 {
		t.Error("no checkpoint events were emitted")
	}
	want := dijkstraDiffGraph()
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(want))
	}
	for _, row := range res.Rows {
		n, d := row[0].(int64), row[1].(float64)
		if w := want[n]; d != w {
			t.Errorf("node %d: distance %v, want %v", n, d, w)
		}
	}
}
