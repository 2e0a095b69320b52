package core

// Differential conformance for the durable pager backend: the same
// schedule-independent fix points of the shard suite (SSSP, connected
// components, dyadic DAG rank) run on the disk backend in every
// execution mode and must reproduce the in-memory heap ModeSingle
// result bit for bit. A tiny buffer pool forces page eviction (and
// with it WAL-commit-before-flush ordering) right through the middle
// of the round loops.

import (
	"context"
	"fmt"
	"testing"

	"sqloop/internal/driver"
	"sqloop/internal/engine"
	"sqloop/internal/storage"
)

// newDiffInstance opens a SQLoop over a fresh embedded engine with the
// shard-suite fixture tables loaded, on an arbitrary engine config.
func newDiffInstance(t *testing.T, cfg engine.Config, opts Options) *SQLoop {
	t.Helper()
	eng := engine.New(cfg)
	handle := fmt.Sprintf("%s-diskdiff-%p", t.Name(), &opts)
	driver.RegisterEngine(handle, eng)
	t.Cleanup(func() {
		driver.UnregisterEngine(handle)
		_ = eng.Close()
	})
	s, err := Open(driver.DriverName, driver.InprocDSN(handle), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	loadShardFixtures(t, func(q string) (*Result, error) {
		return s.Exec(context.Background(), q)
	})
	return s
}

func TestDiskDifferential(t *testing.T) {
	queries := map[string]string{
		"sssp":    shardSSSP,
		"cc":      shardCC,
		"dagrank": shardDAGRank,
	}
	modes := []Mode{ModeSingle, ModeSync, ModeAsync, ModeAsyncPrio}
	ctx := context.Background()
	// Every cell has its own engine and data directory, so the cells run
	// in parallel.
	for name, query := range queries {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ref := newDiffInstance(t, engine.Config{}, Options{Mode: ModeSingle})
			want, err := ref.Exec(ctx, query)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range modes {
				t.Run(mode.String(), func(t *testing.T) {
					t.Parallel()
					cfg := engine.Config{
						Backend:         storage.KindDisk,
						DataDir:         t.TempDir(),
						BufferPoolPages: 16,
					}
					s := newDiffInstance(t, cfg, Options{Mode: mode})
					got, err := s.Exec(ctx, query)
					if err != nil {
						t.Fatal(err)
					}
					requireIdenticalRows(t, want, got)
					if mode != ModeSingle && !got.Stats.Parallelized {
						t.Errorf("mode %s did not parallelize on disk: %s", mode, got.Stats.FallbackReason)
					}
				})
			}
		})
	}
}
