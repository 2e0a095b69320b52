// Command sqloopbench regenerates every table and figure of the paper's
// evaluation (§VI) against the embedded engines. See DESIGN.md for the
// experiment index and EXPERIMENTS.md for recorded results.
//
//	sqloopbench -fig all            # everything, default scale
//	sqloopbench -fig 4 -query pr    # one figure/query
//	sqloopbench -quick              # small smoke-scale run
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"sqloop/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 4, 5, 6, rounds, stmtcache, shards, traffic, io, elastic, trend or all")
	out := flag.String("out", "", "output path for the -fig shards / traffic / io / elastic report")
	query := flag.String("query", "all", "workload within the figure: pr, sssp, dq or all")
	quick := flag.Bool("quick", false, "smoke-scale run (pgsim only, small graphs)")
	nocost := flag.Bool("nocost", false, "disable the calibrated latency model")
	engines := flag.String("engines", "", "comma-separated engine profiles (default all three)")
	prNodes := flag.Int64("pr-nodes", 0, "override PageRank graph size")
	ssspNodes := flag.Int64("sssp-nodes", 0, "override SSSP graph size")
	dqNodes := flag.Int64("dq-nodes", 0, "override DQ graph size")
	parts := flag.Int("partitions", 0, "override partition count")
	flag.Parse()

	sc := bench.DefaultScale()
	if *quick {
		sc = sc.Quick()
	}
	if *nocost {
		sc.WithCost = false
	}
	if *engines != "" {
		sc.Engines = strings.Split(*engines, ",")
	}
	if *prNodes > 0 {
		sc.PRNodes = *prNodes
	}
	if *ssspNodes > 0 {
		sc.SSSPNodes = *ssspNodes
	}
	if *dqNodes > 0 {
		sc.DQNodes = *dqNodes
	}
	if *parts > 0 {
		sc.Partitions = *parts
	}
	if *out == "" {
		*out = map[string]string{
			"shards":  "BENCH_PR5.json",
			"traffic": "BENCH_PR6.json",
			"io":      "BENCH_PR7.json",
			"elastic": "BENCH_PR10.json",
		}[*fig]
	}

	if err := run(*fig, *query, *out, sc); err != nil {
		log.Fatal(err)
	}
}

func run(fig, query, out string, sc bench.Scale) error {
	ctx := context.Background()
	w := os.Stdout
	want := func(f, q string) bool {
		return (fig == "all" || fig == f) && (query == "all" || query == q)
	}
	if want("4", "sssp") {
		if err := bench.Fig4SSSP(ctx, w, sc); err != nil {
			return err
		}
	}
	if want("4", "pr") {
		if err := bench.Fig4PR(ctx, w, sc); err != nil {
			return err
		}
	}
	if want("4", "dq") {
		if err := bench.Fig4DQ(ctx, w, sc); err != nil {
			return err
		}
	}
	if fig == "all" || fig == "5" {
		if err := bench.Fig5(ctx, w, sc); err != nil {
			return err
		}
	}
	if fig == "all" || fig == "6" {
		if err := bench.Fig6(ctx, w, sc); err != nil {
			return err
		}
	}
	if fig == "rounds" {
		if err := bench.RoundTrace(ctx, w, sc); err != nil {
			return err
		}
	}
	if fig == "stmtcache" {
		if err := bench.StmtCacheFig(ctx, w, sc); err != nil {
			return err
		}
	}
	if fig == "shards" {
		if err := bench.PR5Fig(ctx, w, sc, out); err != nil {
			return err
		}
	}
	if fig == "traffic" {
		if err := bench.TrafficFig(ctx, w, sc, out); err != nil {
			return err
		}
	}
	if fig == "io" {
		if err := bench.IOFig(ctx, w, sc, out); err != nil {
			return err
		}
	}
	if fig == "elastic" {
		if err := bench.ElasticFig(ctx, w, sc, out); err != nil {
			return err
		}
	}
	if fig == "trend" {
		if err := bench.TrendFig(w); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "\ndone.")
	return nil
}
