// Command sqlsimd serves an embedded engine over the wire protocol so
// SQLoop instances (or any sqlsim database/sql client) on other machines
// can use it — the paper's remote-database deployment: "it is possible
// to create connections with multiple RDBMSs on different machines by
// specifying the URL of each target database engine".
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"sqloop"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:5499", "listen address")
	profile := flag.String("profile", "pgsim", "engine profile: pgsim, mysim or mariasim")
	withCost := flag.Bool("cost", false, "enable the calibrated latency model")
	maxSessions := flag.Int("max-sessions", 0, "concurrent request cap (0 = default 8)")
	queueDepth := flag.Int("queue-depth", 0, "per-tenant wait queue cap (0 = default 64)")
	tenantLimit := flag.Int("tenant-limit", 0, "per-tenant concurrent request cap (0 = unlimited)")
	deadline := flag.Duration("deadline", 0, "default per-request deadline (0 = unbounded)")
	backend := flag.String("backend", "", "storage backend: heap, btree, lsm or disk (default heap)")
	dataDir := flag.String("data-dir", "", "data directory for -backend disk (default: a temp dir removed on exit)")
	poolPages := flag.Int("buffer-pool-pages", 0, "disk backend buffer pool size in 8 KiB pages (0 = default)")
	walCkpt := flag.Int64("wal-checkpoint-bytes", 0, "checkpoint a table when its WAL exceeds this many bytes (0 = only explicit checkpoints)")
	flag.Parse()
	extra := []sqloop.OpenOption{
		sqloop.WithMaxSessions(*maxSessions),
		sqloop.WithQueueDepth(*queueDepth),
		sqloop.WithTenantLimit(*tenantLimit),
		sqloop.WithDeadline(*deadline),
	}
	if *backend != "" {
		extra = append(extra, sqloop.WithBackend(*backend))
	}
	if *dataDir != "" {
		extra = append(extra, sqloop.WithDataDir(*dataDir))
	}
	if *poolPages != 0 {
		extra = append(extra, sqloop.WithBufferPoolPages(*poolPages))
	}
	if *walCkpt > 0 {
		extra = append(extra, sqloop.WithWALCheckpointBytes(*walCkpt))
	}
	if *withCost {
		extra = append(extra, sqloop.WithCostModel())
	}
	if err := run(*addr, *profile, extra); err != nil {
		log.Fatal(err)
	}
}

func run(addr, profile string, extra []sqloop.OpenOption) error {
	srv, err := sqloop.Serve(profile, addr, extra...)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("sqlsimd (%s) listening on %s\nconnect with DSN %s\n",
		profile, srv.Addr(), srv.DSN())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("shutting down")
	return nil
}
