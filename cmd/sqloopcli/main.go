// Command sqloopcli runs SQL — including WITH RECURSIVE and the paper's
// WITH ITERATIVE extension — through SQLoop against an embedded engine
// or a remote sqlsimd server.
//
//	sqloopcli -e 'SELECT 1 + 1'
//	sqloopcli -mode asyncp -dataset google-web -nodes 2000 -e "$(cat pagerank.sql)"
//	sqloopcli -dsn sqlsim://tcp/host:5499 -f script.sql
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"sqloop"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		dsn       = flag.String("dsn", "", "target DSN (empty: embedded engine)")
		profile   = flag.String("profile", "pgsim", "embedded engine profile")
		modeName  = flag.String("mode", "auto", "execution mode: auto, single, sync, async, asyncp")
		threads   = flag.Int("threads", 0, "worker threads (0: half the CPUs)")
		shards    = flag.Int("shards", 1, "embedded engine endpoints; >1 runs iterative CTEs scale-out across a shard group")
		replicas  = flag.Int("replicas", 0, "standby replica endpoints for the shard group (failover + rebalance headroom)")
		rebalance = flag.String("rebalance", "", "scheduled online repartitions, 'afterRound:shards[,afterRound:shards...]' (e.g. '3:4' grows 2 shards to 4 after round 3)")
		parts     = flag.Int("partitions", 0, "hash partitions (0: 256)")
		prio      = flag.String("priority", "", "AsyncP priority query ($PART placeholder)")
		exec      = flag.String("e", "", "SQL to execute")
		file      = flag.String("f", "", "file with SQL script ('-' for stdin)")
		dataset   = flag.String("dataset", "", "preload a synthetic dataset: google-web, twitter-ego, berkstan-web")
		nodes     = flag.Int64("nodes", 2000, "dataset size when -dataset is set")
		maxRows   = flag.Int("max-rows", 50, "result rows to print")
		explain   = flag.Bool("explain", false, "analyze the statement instead of executing it")
		analyze   = flag.Bool("analyze", false, "execute the statement and print its per-round profile (EXPLAIN ANALYZE)")
		metrics   = flag.Bool("metrics", false, "print the metrics snapshot after execution")
		cost      = flag.Bool("cost", false, "embedded engine: enable the calibrated latency model")
		script    = flag.Bool("gen-script", false, "print the hand-written SQL script equivalent of an iterative CTE")
		ckptDir   = flag.String("checkpoint-dir", "", "directory for round-boundary snapshots (enables crash recovery)")
		ckptN     = flag.Int("checkpoint-every", 2, "checkpoint every N rounds when -checkpoint-dir is set")
		noCache   = flag.Bool("no-stmt-cache", false, "disable the statement/plan cache (escape hatch; parses every statement from text)")
	)
	flag.Parse()

	mode, err := sqloop.ParseMode(*modeName)
	if err != nil {
		return err
	}
	opts := sqloop.Options{Mode: mode, Threads: *threads, Partitions: *parts, PriorityQuery: *prio}
	if *ckptDir != "" {
		opts.Checkpoint = sqloop.CheckpointOptions{Dir: *ckptDir, EveryRounds: *ckptN}
	}
	if *noCache {
		opts.DisableStmtCache = true
	}

	steps, err := parseRebalance(*rebalance)
	if err != nil {
		return err
	}
	gopts := sqloop.ShardGroupOptions{Rebalance: steps}

	var db *sqloop.SQLoop
	var group *sqloop.ShardGroup
	if *dsn != "" {
		if *shards > 1 {
			return fmt.Errorf("-shards needs the embedded engine; omit -dsn or use a Router shard group programmatically")
		}
		db, err = sqloop.Open(*dsn, opts)
	} else {
		var extra []sqloop.OpenOption
		if *cost {
			extra = append(extra, sqloop.WithCostModel())
		}
		if *noCache {
			extra = append(extra, sqloop.WithoutStmtCache())
		}
		if *shards > 1 {
			group, err = sqloop.OpenEmbeddedElasticShards(*profile, *shards, *replicas, gopts, opts, extra...)
			if err == nil {
				db = group.Shard(0)
			}
		} else {
			if *replicas > 0 || len(steps) > 0 {
				return fmt.Errorf("-replicas/-rebalance need a shard group; set -shards > 1")
			}
			db, err = sqloop.OpenEmbedded(*profile, opts, extra...)
		}
	}
	if err != nil {
		return err
	}
	if group != nil {
		defer group.Close()
	} else {
		defer db.Close()
	}

	if *dataset != "" {
		// A shard group keeps base relations whole on every endpoint; only
		// the iterative working table is hash-partitioned.
		var n int
		for _, target := range dataTargets(db, group) {
			n, err = sqloop.LoadDataset(target, *dataset, *nodes, 42)
			if err != nil {
				return err
			}
		}
		fmt.Printf("loaded %s: %d nodes, %d edges\n", *dataset, *nodes, n)
	}

	sqlText := *exec
	switch {
	case sqlText != "":
	case *file == "-":
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			return err
		}
		sqlText = string(b)
	case *file != "":
		b, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		sqlText = string(b)
	default:
		// No -e / -f: interactive loop over stdin.
		return repl(db, *maxRows)
	}

	if *explain {
		ex, err := sqloop.ExplainQuery(db, sqlText)
		if err != nil {
			return err
		}
		fmt.Printf("kind: %s\nmode: %s\n", ex.Kind, ex.Mode)
		if ex.Kind == "iterative" {
			fmt.Printf("terminates: %s\n", ex.Termination)
			if ex.Analysis.Parallelizable {
				fmt.Printf("parallelizable: yes (aggregate %s over self-join alias %s via relation %s)\n",
					ex.Analysis.AggName, ex.Analysis.NeighborAlias, ex.Analysis.EdgeTable)
			} else {
				fmt.Printf("parallelizable: no (%s)\n", ex.Analysis.Reason)
			}
		}
		return nil
	}
	if *script {
		out, err := sqloop.GenerateScript(sqlText, 0, db.Options().Dialect)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}

	if *analyze {
		ea, err := db.ExplainAnalyzeQuery(context.Background(), sqlText)
		if err != nil {
			return err
		}
		fmt.Print(ea.Render())
		if *metrics {
			fmt.Print(db.Metrics().Snapshot().Format())
		}
		return nil
	}

	start := time.Now()
	var res *sqloop.Result
	if group != nil {
		res, err = group.ExecScript(context.Background(), sqlText)
	} else {
		res, err = db.ExecScript(context.Background(), sqlText)
	}
	if err != nil {
		return err
	}
	if len(res.Columns) > 0 {
		fmt.Print(sqloop.FormatRows(res, *maxRows))
	} else {
		fmt.Printf("%d row(s) affected\n", res.RowsAffected)
	}
	fmt.Printf("-- %v", time.Since(start).Round(time.Millisecond))
	if res.Stats.Iterations > 0 {
		fmt.Printf(", %d iterations, mode %s", res.Stats.Iterations, res.Stats.Mode)
		if res.Stats.ShardCount > 1 {
			fmt.Printf(", %d shards (%d rows exchanged)", res.Stats.ShardCount, res.Stats.CrossShardRows)
		}
		if res.Stats.Failovers > 0 || res.Stats.Rebalances > 0 {
			fmt.Printf(", elastic: %d failovers, %d rebalances",
				res.Stats.Failovers, res.Stats.Rebalances)
		}
		if res.Stats.FallbackReason != "" {
			fmt.Printf(" (fell back to single-threaded: %s)", res.Stats.FallbackReason)
		}
	}
	fmt.Println()
	if *metrics {
		if group != nil {
			fmt.Print(group.Metrics().Snapshot().Format())
		} else {
			fmt.Print(db.Metrics().Snapshot().Format())
		}
	}
	return nil
}

// dataTargets lists the instances a dataset load must reach: the single
// instance, or every endpoint of a shard group — standbys included, so
// base relations are already in place when a replica is promoted by
// failover or an online rebalance.
func dataTargets(db *sqloop.SQLoop, group *sqloop.ShardGroup) []*sqloop.SQLoop {
	if group == nil {
		return []*sqloop.SQLoop{db}
	}
	return append(group.Shards(), group.Standbys()...)
}

// parseRebalance parses the -rebalance schedule: comma-separated
// "afterRound:shards" pairs.
func parseRebalance(s string) ([]sqloop.RebalanceStep, error) {
	if s == "" {
		return nil, nil
	}
	var steps []sqloop.RebalanceStep
	for _, part := range strings.Split(s, ",") {
		at, to, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("-rebalance %q: want 'afterRound:shards'", part)
		}
		round, err := strconv.Atoi(at)
		if err != nil {
			return nil, fmt.Errorf("-rebalance %q: %v", part, err)
		}
		n, err := strconv.Atoi(to)
		if err != nil {
			return nil, fmt.Errorf("-rebalance %q: %v", part, err)
		}
		steps = append(steps, sqloop.RebalanceStep{AfterRound: round, Shards: n})
	}
	return steps, nil
}

// repl reads statements from stdin. SQL accumulates until a line ends
// with ';'; backslash commands act immediately:
//
//	\metrics      print the instance's metrics snapshot
//	\explain SQL  analyze a statement without executing it
//	\checkpoints  list stored snapshots (needs -checkpoint-dir)
//	\q            quit
func repl(db *sqloop.SQLoop, maxRows int) error {
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 0, 1<<20), 1<<20)
	fmt.Println(`sqloopcli interactive — end statements with ';', \metrics for metrics, \checkpoints for snapshots, \q to quit`)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("sqloop> ")
		} else {
			fmt.Print("   ...> ")
		}
	}
	prompt()
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			switch cmd, rest, _ := strings.Cut(trimmed, " "); cmd {
			case `\q`, `\quit`:
				return nil
			case `\metrics`:
				fmt.Print(db.Metrics().Snapshot().Format())
			case `\checkpoints`:
				infos, err := db.ListCheckpoints()
				switch {
				case err != nil:
					fmt.Println("error:", err)
				case len(infos) == 0:
					fmt.Println("no checkpoints")
				default:
					for _, ci := range infos {
						fmt.Printf("%s  %s/%s  round %d  %d bytes  %s\n",
							ci.Key, ci.CTE, ci.Mode, ci.Round, ci.Size,
							ci.ModTime.Format(time.RFC3339))
					}
				}
			case `\explain`:
				ex, err := sqloop.ExplainQuery(db, strings.TrimSuffix(strings.TrimSpace(rest), ";"))
				if err != nil {
					fmt.Println("error:", err)
				} else {
					fmt.Printf("kind: %s\nmode: %s\n", ex.Kind, ex.Mode)
				}
			default:
				fmt.Printf("unknown command %s\n", cmd)
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if !strings.HasSuffix(trimmed, ";") {
			prompt()
			continue
		}
		stmtText := buf.String()
		buf.Reset()
		start := time.Now()
		res, err := db.ExecScript(context.Background(), stmtText)
		if err != nil {
			fmt.Println("error:", err)
			prompt()
			continue
		}
		if len(res.Columns) > 0 {
			fmt.Print(sqloop.FormatRows(res, maxRows))
		} else {
			fmt.Printf("%d row(s) affected\n", res.RowsAffected)
		}
		fmt.Printf("-- %v", time.Since(start).Round(time.Millisecond))
		if res.Stats.Iterations > 0 {
			fmt.Printf(", %d iterations, mode %s", res.Stats.Iterations, res.Stats.Mode)
		}
		fmt.Println()
		prompt()
	}
	return in.Err()
}
