package sqloop_test

import (
	"context"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"sqloop"
	"sqloop/internal/driver"
)

// TestCloseReleasesOwnedEngines opens and closes disk-backed embedded
// instances (with the background WAL checkpointer running) and servers
// in a loop: closing the instance or the server must close the engine
// it owns, so no temporary pager directory and no goroutine outlives
// the cycle.
func TestCloseReleasesOwnedEngines(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	ctx := context.Background()
	baseline := runtime.NumGoroutine()

	fill := func(s *sqloop.SQLoop) {
		t.Helper()
		for _, q := range []string{
			`CREATE TABLE t (id BIGINT PRIMARY KEY, v DOUBLE)`,
			`INSERT INTO t VALUES (1, 0.5), (2, 1.5), (3, 2.5)`,
		} {
			if _, err := s.Exec(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	const cycles = 4
	for i := 0; i < cycles; i++ {
		s, err := sqloop.OpenEmbedded("pgsim", sqloop.Options{},
			sqloop.WithBackend("disk"), sqloop.WithWALCheckpointBytes(1<<10))
		if err != nil {
			t.Fatal(err)
		}
		fill(s)
		if err := s.Close(); err != nil {
			t.Fatalf("embedded close: %v", err)
		}

		srv, err := sqloop.Serve("pgsim", "127.0.0.1:0", sqloop.WithBackend("disk"))
		if err != nil {
			t.Fatal(err)
		}
		c, err := sqloop.Open(srv.DSN(), sqloop.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fill(c)
		if err := c.Close(); err != nil {
			t.Fatalf("client close: %v", err)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("server close: %v", err)
		}
	}

	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "sqloop-pager-") {
			t.Errorf("data directory %s outlived its engine", e.Name())
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after %d cycles, %d before:\n%s",
				runtime.NumGoroutine(), cycles, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOpenKeepsDriverMetricsPerInstance opens two instances on one DSN:
// each counts only its own statements in its driver metrics, and
// neither leaves a process-wide driver configuration behind.
func TestOpenKeepsDriverMetricsPerInstance(t *testing.T) {
	ctx := context.Background()
	srv, err := sqloop.Serve("pgsim", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dsn := srv.DSN()
	first, err := sqloop.Open(dsn, sqloop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := sqloop.Open(dsn, sqloop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := first.Exec(ctx, `SELECT 1`); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := second.Exec(ctx, `SELECT 2`); err != nil {
		t.Fatal(err)
	}
	count := func(s *sqloop.SQLoop) int64 {
		return s.Metrics().Counter("driver_statements_total").Value()
	}
	if a, b := count(first), count(second); a != 3 || b != 1 {
		t.Errorf("driver_statements_total = %d and %d, want 3 and 1", a, b)
	}
	for _, s := range []*sqloop.SQLoop{first, second} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := driver.ConfigFor(dsn); got != (driver.Config{}) {
		t.Errorf("driver configuration left for %s: %+v", dsn, got)
	}
}
