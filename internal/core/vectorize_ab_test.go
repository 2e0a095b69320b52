package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"sqloop/internal/engine"
)

// TestVectorizeOnOffResultsIdentical runs the SSSP matrix (every
// engine backend × execution mode) with vectorized batch execution
// enabled and disabled. Vectorization is a pure performance layer on
// top of compiled programs: fix points and row sets must match
// exactly.
func TestVectorizeOnOffResultsIdentical(t *testing.T) {
	want := refSSSP()
	for _, profile := range []string{"pgsim", "mysim", "mariasim"} {
		for _, mode := range allModes {
			t.Run(fmt.Sprintf("%s/%s", profile, mode), func(t *testing.T) {
				cfg, err := engine.Profile(profile)
				if err != nil {
					t.Fatal(err)
				}
				run := func(disable bool) map[int64]float64 {
					t.Helper()
					c := cfg
					c.DisableVectorize = disable
					opts := Options{
						Mode: mode, Threads: 3, Partitions: 4,
						Dialect: cfg.Dialect.String(),
					}
					s := newTestLoopCfg(t, c, opts, false)
					res, err := s.Exec(context.Background(), ssspCTE)
					if err != nil {
						t.Fatalf("disable=%v: %v", disable, err)
					}
					return rowsToMap(t, res)
				}
				on, off := run(false), run(true)
				if len(on) != len(off) || len(on) != len(want) {
					t.Fatalf("node counts: vectorize on %d, off %d, ref %d", len(on), len(off), len(want))
				}
				for n, v := range on {
					if o := off[n]; v != o {
						t.Errorf("node %d: vectorize on %v != vectorize off %v", n, v, o)
					}
					if w := want[n]; math.IsInf(w, 1) != math.IsInf(v, 1) ||
						(!math.IsInf(w, 1) && math.Abs(v-w) > 1e-9) {
						t.Errorf("node %d: distance %v, want %v", n, v, w)
					}
				}
			})
		}
	}
}

// TestVectorizeOnOffRecursiveIdentical covers the semi-naive WITH
// RECURSIVE path under the same A/B switch (connected components over
// an undirected reachability closure).
func TestVectorizeOnOffRecursiveIdentical(t *testing.T) {
	const query = `
WITH RECURSIVE reach(Node) AS (
  VALUES (1)
  UNION
  SELECT dst FROM reach, edges WHERE reach.Node = edges.src
)
SELECT Node FROM reach ORDER BY Node`
	run := func(disable bool) string {
		t.Helper()
		cfg := engine.Config{DisableVectorize: disable}
		s := newTestLoopCfg(t, cfg, Options{}, false)
		res, err := s.Exec(context.Background(), query)
		if err != nil {
			t.Fatalf("disable=%v: %v", disable, err)
		}
		return fmt.Sprint(res.Rows)
	}
	on, off := run(false), run(true)
	if on != off {
		t.Fatalf("recursive results differ:\nvectorize on:  %s\nvectorize off: %s", on, off)
	}
	if on == "[]" {
		t.Fatal("reachability returned no rows")
	}
}
