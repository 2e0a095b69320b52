// Command perfbench is SQLoop's end-to-end benchmark. One run sets up
// one workload from a seed, runs its iterative query repeatedly for the
// given number of seconds, checks every answer against an evaluation
// made apart from the program, and prints one JSON object as its last
// line of output:
//
//	perfbench --workload pagerank-heap --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced queries.
// With --trace 1 it alternates untraced and traced queries, writes the
// traced queries' spans to .bench_out/spans-<workload>.jsonl and
// reports the per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sqloop/internal/core"
)

// outDir holds spans files and each run's scratch data, relative to the
// directory the benchmark runs from.
const outDir = ".bench_out"

// runLimit bounds a whole run, set-up included.
const runLimit = 170 * time.Second

// endToEnd lists the end-to-end metrics and their units; BENCHMARK.json
// lists the same names. Each timing is the median over the run's timed
// queries, except setup_s, the one cold set-up of the run.
var endToEnd = []struct{ name, unit string }{
	{"query_s", "s"}, {"cpu_s", "s"}, {"setup_s", "s"}, {"peak_heap_bytes", "bytes"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long the timed phase lasts")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced queries")
	flag.Parse()
	w := workloadNamed(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	rep, err := run(ctx, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// bench is one run in progress.
type bench struct {
	w     *workload
	g     *graph
	sys   *system
	check func(*core.Result) error

	attempted, failed int
	problems          []error // failed checks; any makes the run incorrect

	wall, cpu, peak []float64 // untraced queries
	tracedWall      []float64
	stmtDur         []time.Duration
	layer           map[string]float64
	cacheHits       int64
	cacheLookups    int64
	vecBatches      int64
	vecFallbacks    int64
	pagerHitPct     float64
	lastAnswer      *core.Result
}

func (b *bench) problem(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.w.name, err)
	b.problems = append(b.problems, err)
}

func run(ctx context.Context, w *workload, seed int64, timed time.Duration, tracing bool) (*report, error) {
	b := &bench{w: w, layer: make(map[string]float64)}
	dir := filepath.Join(outDir, fmt.Sprintf("run-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	b.g = w.generate(seed)
	t1 := time.Now()
	b.sys = &system{dir: dir}
	defer b.sys.close()
	if err := w.open(b.sys, tracing); err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	if err := load(ctx, b.sys.plain, b.g); err != nil {
		return nil, err
	}
	setup := time.Since(processStart)
	loadS := time.Since(t1)
	genS := t1.Sub(t0)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d nodes, %d edges, set-up %.3fs\n",
		w.name, seed, len(b.g.nodeSet()), len(b.g.edges), setup.Seconds())

	b.check = w.checker(b.g)
	// Warm-up: the first query on each instance fills the statement and
	// program caches and opens the pooled connections. It is checked
	// but not timed.
	if res := b.query(ctx, b.sys.plain, false, false); res != nil {
		if err := b.check(perturb(res)); err == nil {
			b.problem(errors.New("self-test: the check accepted a perturbed answer"))
		}
	}
	if tracing {
		b.query(ctx, b.sys.traced, false, false)
	}
	if b.sys.dataDir != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s: after warm-up the buffer pool holds %d pages; tables: %s\n",
			w.name, ssspPoolPages, tablePages(b.sys.dataDir))
	}
	start := time.Now()
	for time.Since(start) < timed {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		b.query(ctx, b.sys.plain, true, false)
		if tracing {
			b.query(ctx, b.sys.traced, true, true)
		}
	}
	if len(b.wall) == 0 {
		return nil, errors.New("no query completed")
	}
	diskBytes := float64(0)
	if b.sys.dataDir != "" {
		diskBytes = float64(dirBytes(b.sys.dataDir))
	}
	if err := b.sys.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if b.sys.dataDir != "" {
		b.durability()
	}
	if tracing {
		if err := spans.writeFile(filepath.Join(outDir, "spans-"+w.name+".jsonl")); err != nil {
			return nil, err
		}
	}

	rep := &report{
		Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: make(map[string]metric),
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d queries; untraced timed %.3f s; traced %.3f s\n",
		w.name, b.attempted, b.wall, b.tracedWall)
	if !tracing {
		vals := map[string]float64{
			"query_s":         median(b.wall),
			"cpu_s":           median(b.cpu),
			"setup_s":         setup.Seconds(),
			"peak_heap_bytes": median(b.peak),
		}
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		return rep, nil
	}
	b.layerMetrics(rep, genS.Seconds(), loadS.Seconds(), diskBytes)
	return rep, nil
}

// query runs the workload's query once on ex and checks the answer.
// Timed queries record the end-to-end measurements; traced ones also
// record spans and per-layer counter deltas.
func (b *bench) query(ctx context.Context, ex executor, timed, traced bool) *core.Result {
	b.attempted++
	// Every query starts from a collected heap, so one query's garbage
	// does not shift the next one's collections.
	runtime.GC()
	var before counters
	if traced {
		before = b.sys.snapshot()
	}
	peak := startHeapPeak()
	cpu0 := cpuTime()
	t0 := time.Now()
	if traced {
		spans.begin(len(b.tracedWall)+1, t0)
	}
	res, err := ex.Exec(ctx, b.w.query)
	t1 := time.Now()
	cpu := cpuTime() - cpu0
	peakBytes := peak.Stop()
	var after counters
	if traced {
		spans.end(t1)
		after = b.sys.snapshot()
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: query failed: %v\n", b.w.name, err)
		return nil
	}
	if err := b.check(res); err != nil {
		b.problem(err)
	}
	b.lastAnswer = res
	wall := t1.Sub(t0)
	switch {
	case traced:
		b.tracedWall = append(b.tracedWall, wall.Seconds())
		b.recordLayers(before, after, wall)
	case timed:
		b.wall = append(b.wall, wall.Seconds())
		b.cpu = append(b.cpu, cpu.Seconds())
		b.peak = append(b.peak, float64(peakBytes))
	}
	return res
}

// durability reopens the disk engine's data directory after the system
// closed and requires the kept result table to equal the last answer
// the program acknowledged.
func (b *bench) durability() {
	if b.lastAnswer == nil {
		return
	}
	want, err := perNode(b.lastAnswer)
	if err != nil {
		b.problem(err)
		return
	}
	got, err := rereadSSSP(b.sys.dataDir)
	if err != nil {
		b.problem(err)
		return
	}
	if err := checkSame("durability", got, want); err != nil {
		b.problem(err)
	}
	if checkSame("durability", perturbed(got, 1e-6), want) == nil {
		b.problem(errors.New("self-test: the durability check accepted a perturbed table"))
	}
}
