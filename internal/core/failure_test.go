package core

import (
	"context"
	"database/sql"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// pinToken fixes the per-execution namespace token for the duration of
// a test, so working-table names become deterministic and sabotage /
// stale-table tests can target the real physical names.
func pinToken(t *testing.T, tok string) {
	t.Helper()
	old := newExecToken
	newExecToken = func() string { return tok }
	t.Cleanup(func() { newExecToken = old })
}

// TestParallelRunSurvivesDroppedDependency drops the relation table out
// from under a running parallel CTE: the run must fail with an error
// (not hang or panic) and must still clean up its working tables.
func TestParallelRunSurvivesDroppedDependency(t *testing.T) {
	for _, mode := range []Mode{ModeSync, ModeAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			// Working tables are namespaced per execution; pin the token
			// so the sabotage below hits this run's materialized join.
			pinToken(t, "t0")
			ctx := context.Background()
			// The sabotage runs from the round hook on a second
			// connection, so it always lands after round 1 of a run far
			// too long to finish first. The materialized join shields
			// Compute tasks, so it aims at the materialization table
			// itself.
			var sab *sql.Conn
			var dropErr error
			dropped := false
			opts := Options{Mode: mode, Threads: 2, Partitions: 4,
				OnRound: func(round int, _ int64) {
					if round == 1 && !dropped {
						dropped = true
						_, dropErr = sab.ExecContext(ctx, `DROP TABLE sqloop_pagerank_t0_mjoin`)
					}
				}}
			s := newTestLoop(t, opts, true)
			var err error
			if sab, err = s.DB().Conn(ctx); err != nil {
				t.Fatal(err)
			}
			defer sab.Close()

			_, execErr := s.Exec(ctx, fmt.Sprintf(pageRankCTE, 1000))
			if !dropped || dropErr != nil {
				t.Fatalf("sabotage did not land: ran=%v err=%v", dropped, dropErr)
			}
			if execErr == nil {
				t.Fatal("run survived the drop of its materialized join")
			}
			if !strings.Contains(execErr.Error(), "mjoin") &&
				!strings.Contains(execErr.Error(), "does not exist") {
				t.Logf("error (acceptable): %v", execErr)
			}
			// The middleware must still be usable and not leak its
			// partition tables into later runs.
			res, err := s.Exec(ctx, fmt.Sprintf(pageRankCTE, 3))
			if err != nil {
				t.Fatalf("instance unusable after failure: %v", err)
			}
			if len(res.Rows) != 7 {
				t.Fatalf("recovery run rows = %d", len(res.Rows))
			}
		})
	}
}

// TestStaleWorkingTablesAreReplaced simulates a crashed previous run by
// pre-creating stale working tables under SQLoop's names; a new run must
// replace them and succeed.
func TestStaleWorkingTablesAreReplaced(t *testing.T) {
	// Pin the token so the stale tables collide with the names the run
	// will actually use (a real crash with random tokens cannot collide,
	// but the drop-before-create paths must still hold).
	pinToken(t, "t0")
	s := newTestLoop(t, Options{Mode: ModeSync, Threads: 2, Partitions: 4}, true)
	ctx := context.Background()
	stale := []string{
		`CREATE TABLE pagerank (junk BIGINT)`,
		`CREATE TABLE sqloop_pagerank_t0_mjoin (junk BIGINT)`,
		`CREATE TABLE sqloop_pagerank_t0_pt0 (junk BIGINT)`,
		`CREATE TABLE sqloop_pagerank_t0_delta (junk BIGINT)`,
		`CREATE TABLE pagerankdelta (junk BIGINT)`,
	}
	for _, q := range stale {
		if _, err := s.Exec(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Exec(ctx, fmt.Sprintf(pageRankCTE, 3))
	if err != nil {
		t.Fatalf("run over stale tables: %v", err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

// TestConcurrentIndependentCTEs runs two different iterative CTEs (on
// separate relation tables) through one SQLoop instance concurrently.
func TestConcurrentIndependentCTEs(t *testing.T) {
	s := newTestLoop(t, Options{Mode: ModeSync, Threads: 2, Partitions: 2}, true)
	ctx := context.Background()
	if _, err := s.Exec(ctx, `CREATE TABLE edges2 (src BIGINT, dst BIGINT, weight DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(ctx, `INSERT INTO edges2 SELECT src, dst, weight FROM edges`); err != nil {
		t.Fatal(err)
	}
	other := strings.ReplaceAll(strings.ReplaceAll(fmt.Sprintf(pageRankCTE, 5),
		"PageRank", "PageRank2"), "edges", "edges2")

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errs[0] = s.Exec(ctx, fmt.Sprintf(pageRankCTE, 5))
	}()
	go func() {
		defer wg.Done()
		_, errs[1] = s.Exec(ctx, other)
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("cte %d: %v", i, err)
		}
	}
}

// TestConcurrentSameNamedCTEs runs the SAME iterative CTE (same name,
// same relation table) several times concurrently through one SQLoop
// instance. Per-execution name tokens must keep the runs' working
// tables apart — before tokens, both runs wrote R/Rdelta/partition
// tables under identical names and clobbered each other's state.
func TestConcurrentSameNamedCTEs(t *testing.T) {
	const iters = 5
	want := refPageRank(iters, true)
	for _, mode := range []Mode{ModeSingle, ModeSync, ModeAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			s := newTestLoop(t, Options{Mode: mode, Threads: 2, Partitions: 2}, true)
			ctx := context.Background()
			const runs = 3
			var wg sync.WaitGroup
			results := make([]*Result, runs)
			errs := make([]error, runs)
			wg.Add(runs)
			for i := 0; i < runs; i++ {
				go func(i int) {
					defer wg.Done()
					results[i], errs[i] = s.Exec(ctx, fmt.Sprintf(pageRankCTE, iters))
				}(i)
			}
			wg.Wait()
			for i := 0; i < runs; i++ {
				if errs[i] != nil {
					t.Fatalf("run %d: %v", i, errs[i])
				}
				got := rowsToMap(t, results[i])
				if len(got) != len(want) {
					t.Fatalf("run %d: %d nodes, want %d", i, len(got), len(want))
				}
				for n, v := range got {
					if v < 0.15-1e-9 {
						t.Errorf("run %d: node %d rank %v below base rank", i, n, v)
					}
				}
				// Exact values are only defined for synchronized
				// schedules (cf. TestAvgAggregateAllModes).
				if mode == ModeSingle || mode == ModeSync {
					for n, v := range want {
						if math.Abs(got[n]-v) > 1e-9 {
							t.Errorf("run %d: node %d = %v, want %v", i, n, got[n], v)
						}
					}
				}
			}
		})
	}
}
