package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sqloop/internal/obs"
)

// snapshotKeeper copies every snapshot file out of dir as checkpoints
// are taken, so a test can put one back after the successful run has
// removed it — simulating the on-disk state of a crashed process.
type snapshotKeeper struct {
	dir   string
	files map[string][]byte
}

func newSnapshotKeeper(dir string) *snapshotKeeper {
	return &snapshotKeeper{dir: dir, files: map[string][]byte{}}
}

// Emit implements obs.Tracer: on the first Checkpoint event the store
// file exists (the event is emitted after Save), so capture it.
func (k *snapshotKeeper) Emit(ev obs.Event) {
	if _, ok := ev.(obs.Checkpoint); !ok {
		return
	}
	if len(k.files) > 0 {
		return // keep the first (lowest-round) snapshot
	}
	paths, _ := filepath.Glob(filepath.Join(k.dir, "*.ckpt"))
	for _, p := range paths {
		if b, err := os.ReadFile(p); err == nil {
			k.files[filepath.Base(p)] = b
		}
	}
}

// restore writes the captured snapshot files back into dir.
func (k *snapshotKeeper) restore(t *testing.T) {
	t.Helper()
	if len(k.files) == 0 {
		t.Fatal("no snapshot was captured")
	}
	for name, b := range k.files {
		if err := os.WriteFile(filepath.Join(k.dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// rankMap indexes a (Node, Rank) result set by node.
func rankMap(t *testing.T, res *Result) map[int64]float64 {
	t.Helper()
	out := map[int64]float64{}
	for _, row := range res.Rows {
		out[row[0].(int64)] = row[1].(float64)
	}
	return out
}

func sameRanks(t *testing.T, want, got map[int64]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("row counts differ: want %d, got %d", len(want), len(got))
	}
	for n, w := range want {
		g, ok := got[n]
		if !ok {
			t.Fatalf("node %d missing from resumed result", n)
		}
		if math.Abs(w-g) > 1e-9 {
			t.Fatalf("node %d: want %g, got %g", n, w, g)
		}
	}
}

// checkpointResume runs query to completion with checkpointing on, puts
// the first snapshot back, resumes, and requires the resumed run to
// match the uninterrupted one. Deterministic queries only: round-based
// PageRank for the barriered modes, fix-point SSSP for the async ones
// (an iteration-capped async run is schedule-dependent by design, so
// only a schedule-independent fix point can be compared exactly).
func checkpointResume(t *testing.T, mode Mode, query string, every, wantIters int) {
	dir := t.TempDir()
	keeper := newSnapshotKeeper(dir)
	rec := &obs.Recorder{}
	opts := Options{
		Mode:       mode,
		Partitions: 4,
		Threads:    2,
		Observer:   obs.Multi(rec, keeper),
		Checkpoint: CheckpointOptions{Dir: dir, EveryRounds: every},
	}
	s := newTestLoop(t, opts, true)
	ctx := context.Background()

	res, err := s.Exec(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ResumedFromRound != 0 {
		t.Fatalf("fresh run reports ResumedFromRound = %d", res.Stats.ResumedFromRound)
	}
	if n := rec.Count("checkpoint"); n < 1 {
		t.Fatalf("no checkpoint events were emitted")
	}
	// A completed run must not leave a snapshot behind.
	left, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(left) != 0 {
		t.Fatalf("snapshot survived a successful run: %v", left)
	}
	want := rankMap(t, res)

	keeper.restore(t)
	res2, err := s.ResumeQuery(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.ResumedFromRound < 1 {
		t.Fatalf("ResumedFromRound = %d, want >= 1", res2.Stats.ResumedFromRound)
	}
	if wantIters > 0 && res2.Stats.Iterations != wantIters {
		t.Fatalf("resumed Iterations = %d, want %d", res2.Stats.Iterations, wantIters)
	}
	if rec.Count("restore") != 1 {
		t.Fatalf("restore events = %d, want 1", rec.Count("restore"))
	}
	sameRanks(t, want, rankMap(t, res2))
}

func TestCheckpointResumeSingle(t *testing.T) {
	checkpointResume(t, ModeSingle, fmt.Sprintf(pageRankCTE, 6), 2, 6)
}
func TestCheckpointResumeSync(t *testing.T) {
	checkpointResume(t, ModeSync, fmt.Sprintf(pageRankCTE, 6), 2, 6)
}
func TestCheckpointResumeAsync(t *testing.T) {
	checkpointResume(t, ModeAsync, ssspCTE, 1, 0)
}
func TestCheckpointResumeAsyncPrio(t *testing.T) {
	checkpointResume(t, ModeAsyncPrio, ssspCTE, 1, 0)
}

func TestCheckpointRecursiveResume(t *testing.T) {
	dir := t.TempDir()
	keeper := newSnapshotKeeper(dir)
	opts := Options{
		Observer:   keeper,
		Checkpoint: CheckpointOptions{Dir: dir, EveryRounds: 1},
	}
	s := newTestLoop(t, opts, false)
	ctx := context.Background()
	query := `
WITH RECURSIVE reach(Node) AS (
  VALUES (1)
  UNION
  SELECT dst FROM reach, edges WHERE reach.Node = edges.src
)
SELECT Node FROM reach ORDER BY Node`

	res, err := s.Exec(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(res.Rows)

	keeper.restore(t)
	res2, err := s.ResumeQuery(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.ResumedFromRound < 1 {
		t.Fatalf("ResumedFromRound = %d, want >= 1", res2.Stats.ResumedFromRound)
	}
	if got := fmt.Sprint(res2.Rows); got != want {
		t.Fatalf("resumed rows differ:\nwant %s\ngot  %s", want, got)
	}
}

func TestCheckpointListAndMissing(t *testing.T) {
	dir := t.TempDir()
	keeper := newSnapshotKeeper(dir)
	opts := Options{
		Mode:       ModeSingle,
		Observer:   keeper,
		Checkpoint: CheckpointOptions{Dir: dir, EveryRounds: 1},
	}
	s := newTestLoop(t, opts, true)
	ctx := context.Background()
	query := fmt.Sprintf(pageRankCTE, 4)

	// No snapshot yet: ResumeQuery must refuse rather than silently
	// start over.
	if _, err := s.ResumeQuery(ctx, query); err == nil ||
		!strings.Contains(err.Error(), "no checkpoint") {
		t.Fatalf("ResumeQuery without snapshot: err = %v", err)
	}

	if _, err := s.Exec(ctx, query); err != nil {
		t.Fatal(err)
	}
	keeper.restore(t)

	infos, err := s.ListCheckpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("ListCheckpoints returned %d entries, want 1", len(infos))
	}
	if infos[0].CTE != "PageRank" || infos[0].Round < 1 {
		t.Fatalf("unexpected checkpoint info: %+v", infos[0])
	}

	// Plain Exec must also pick the snapshot up (transparent recovery).
	res, err := s.Exec(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ResumedFromRound < 1 {
		t.Fatalf("Exec ignored the stored snapshot (ResumedFromRound = %d)", res.Stats.ResumedFromRound)
	}
}

func TestCheckpointDisabledErrors(t *testing.T) {
	s := newTestLoop(t, Options{}, true)
	if _, err := s.ListCheckpoints(); err == nil {
		t.Fatal("ListCheckpoints with checkpointing disabled did not error")
	}
	if _, err := s.ResumeQuery(context.Background(), fmt.Sprintf(pageRankCTE, 2)); err == nil {
		t.Fatal("ResumeQuery with checkpointing disabled did not error")
	}
}

// TestCheckpointV1SnapshotDiscarded puts a version-1 (all-JSON)
// snapshot of the query, claiming a late round, where the query looks
// for its checkpoint: the run must discard it, start from round 0 and
// return the uninterrupted answer.
func TestCheckpointV1SnapshotDiscarded(t *testing.T) {
	dir := t.TempDir()
	keeper := newSnapshotKeeper(dir)
	rec := &obs.Recorder{}
	s := newTestLoop(t, Options{
		Mode: ModeSync, Partitions: 4, Threads: 2,
		Observer:   obs.Multi(rec, keeper),
		Checkpoint: CheckpointOptions{Dir: dir, EveryRounds: 1},
	}, true)
	ctx := context.Background()
	query := fmt.Sprintf(pageRankCTE, 6)
	res, err := s.Exec(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	want := rankMap(t, res)
	if len(keeper.files) != 1 {
		t.Fatalf("captured %d snapshot files, want 1", len(keeper.files))
	}
	for name := range keeper.files {
		key := strings.TrimSuffix(name, ".ckpt")
		payload := []byte(`{"key":"` + key + `","mode":"sync","cte":"PageRank","round":5,` +
			`"partitions":4,"partRounds":[5,5,5,5],"columns":["Node","Rank","Delta"],` +
			`"tables":[{"name":"sqloop_pagerank_p0","columns":["Node","Rank","Delta"],` +
			`"rows":[[{"i":1},{"f":0.5},{"x":"+inf"}]]}]}`)
		b := []byte("SQLCKPT\n")
		b = binary.BigEndian.AppendUint32(b, 1)
		b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
		b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
		if err := os.WriteFile(filepath.Join(dir, name), append(b, payload...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res2, err := s.Exec(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.ResumedFromRound != 0 || rec.Count("restore") != 0 {
		t.Fatalf("v1 snapshot was restored: ResumedFromRound = %d, %d restore events",
			res2.Stats.ResumedFromRound, rec.Count("restore"))
	}
	if res2.Stats.Iterations != 6 {
		t.Fatalf("Iterations = %d, want 6 from round 0", res2.Stats.Iterations)
	}
	sameRanks(t, want, rankMap(t, res2))
}
