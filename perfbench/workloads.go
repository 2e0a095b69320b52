package main

// The three workloads. Each opens its own engines (and, for the wire
// workload, servers) through the program's module functions, loads its
// generated graph as plain INSERT statements, and runs one iterative
// query repeatedly. Each layer does most of its work in one workload
// and little in another; see README.md for the mapping.

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"

	"sqloop/internal/core"
	"sqloop/internal/driver"
	"sqloop/internal/engine"
	"sqloop/internal/obs"
	"sqloop/internal/serve"
	"sqloop/internal/storage"
	"sqloop/internal/wire"
)

// Workload parameters. The seed is the only input that varies.
const (
	prNodes      = 16000 // web graph: about 84k edges
	prOutDegree  = 5
	prIterations = 10
	prPartitions = 10 // about 650 statements per query

	dqNodes = 6000 // chain graph: about 14k edges
	dqChain = 120  // about 63 AsyncP rounds whatever the seed
	dqRoot  = 1
	dqHops  = 10 // about 2.5k of the 6k nodes lie within reach

	ssspNodes       = 20000 // ego graph: about 47k edges
	ssspCluster     = 20
	ssspPartitions  = 10
	ssspSource      = 1
	ssspPoolPages   = 64 // 512 KiB: smaller than the edge table alone
	workerConns     = 2  // worker connections per instance or group
	loadBatchRows   = 500
	edgeBytesPerRow = 24 // src, dst and weight as 8-byte values
)

// workload is one set of inputs and the query run over them. Why each
// was chosen is recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	// generate builds the input graph from the seed.
	generate func(seed int64) *graph
	// open starts the engines and the instances queries run on.
	open func(sys *system, tracing bool) error
	// query is the iterative query every operation runs.
	query string
	// checker computes the expected answer, apart from the program.
	checker func(g *graph) func(res *core.Result) error
}

var workloads = []*workload{
	{
		name:     "pagerank-heap",
		generate: func(seed int64) *graph { return webGraph(prNodes, prOutDegree, seed) },
		open: func(sys *system, tracing bool) error {
			cfg, err := engine.Profile("pgsim")
			if err != nil {
				return err
			}
			return sys.openEmbedded(cfg, core.Options{
				Mode: core.ModeSync, Threads: workerConns, Partitions: prPartitions,
			}, tracing)
		},
		query: pageRankQuery(prIterations),
		checker: func(g *graph) func(*core.Result) error {
			want := pageRankOracle(g, prIterations)
			return func(res *core.Result) error {
				got, err := perNode(res)
				if err != nil {
					return err
				}
				return checkPageRank(got, want)
			}
		},
	},
	{
		name:     "dq-wire-shards",
		generate: func(seed int64) *graph { return chainGraph(dqNodes, dqChain, seed) },
		open: func(sys *system, tracing bool) error {
			return sys.openWireShards(2, core.Options{
				Mode: core.ModeAsyncPrio, PriorityQuery: minFrontierPriority, Threads: workerConns,
			}, tracing)
		},
		query: dqQuery(dqRoot, dqHops),
		checker: func(g *graph) func(*core.Result) error {
			want := dqOracle(g, dqRoot, dqHops)
			nodes := len(g.nodeSet())
			return func(res *core.Result) error {
				if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
					return fmt.Errorf("dq: want one count, got %d rows", len(res.Rows))
				}
				got, ok := res.Rows[0][0].(int64)
				if !ok {
					return fmt.Errorf("dq: count is %T", res.Rows[0][0])
				}
				return checkDQ(got, want, nodes)
			}
		},
	},
	{
		name:     "sssp-disk-ckpt",
		generate: func(seed int64) *graph { return egoGraph(ssspNodes, ssspCluster, seed) },
		open: func(sys *system, tracing bool) error {
			cfg, err := engine.Profile("pgsim")
			if err != nil {
				return err
			}
			cfg.Backend = storage.KindDisk
			cfg.DataDir = filepath.Join(sys.dir, "data")
			cfg.BufferPoolPages = ssspPoolPages
			sys.dataDir = cfg.DataDir
			return sys.openEmbedded(cfg, core.Options{
				Mode: core.ModeSync, Threads: workerConns, Partitions: ssspPartitions,
				KeepTable:  true,
				Checkpoint: core.CheckpointOptions{Dir: filepath.Join(sys.dir, "ckpt"), EveryRounds: 1},
			}, tracing)
		},
		query: ssspQuery(),
		checker: func(g *graph) func(*core.Result) error {
			want := dijkstra(g, ssspSource)
			return func(res *core.Result) error {
				got, err := perNode(res)
				if err != nil {
					return err
				}
				return checkSSSP(g, ssspSource, got, want)
			}
		},
	},
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// executor is what a query runs on: one instance or a shard group.
type executor interface {
	Exec(ctx context.Context, query string) (*core.Result, error)
}

// system is everything one run opened, and the registries its layers
// report into.
type system struct {
	dir     string // the run's scratch directory
	dataDir string // the disk backend's data directory, if any

	engines    []*engine.Engine
	regs       []*obs.Registry // every registry of the system
	clientRegs []*obs.Registry // the registries the driver reports into
	wire       bool

	plain  executor // the program's own driver, no observer
	traced executor // the span driver and observer; nil without tracing

	closers []func() error // run last-first by close
}

func (sys *system) onClose(f func() error) { sys.closers = append(sys.closers, f) }

// close releases everything, last opened first.
func (sys *system) close() error {
	var first error
	for i := len(sys.closers) - 1; i >= 0; i-- {
		if err := sys.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	sys.closers = nil
	return first
}

// newEngine opens an engine whose lifetime the system owns.
func (sys *system) newEngine(cfg engine.Config) *engine.Engine {
	eng := engine.New(cfg)
	sys.engines = append(sys.engines, eng)
	sys.onClose(eng.Close)
	return eng
}

// openEmbedded opens one in-process engine reached through the inproc
// DSN, wired like the program's embedded mode: engine, driver and
// middleware share one registry, and a durable engine's pages are
// flushed after every middleware checkpoint.
func (sys *system) openEmbedded(cfg engine.Config, opts core.Options, tracing bool) error {
	eng := sys.newEngine(cfg)
	reg := obs.NewRegistry()
	eng.SetMetrics(reg)
	sys.regs = append(sys.regs, reg)
	sys.clientRegs = append(sys.clientRegs, reg)
	handle := fmt.Sprintf("perfbench-%d", len(sys.engines))
	driver.RegisterEngine(handle, eng)
	sys.onClose(func() error { driver.UnregisterEngine(handle); return nil })
	dsn := driver.InprocDSN(handle)
	driver.Configure(dsn, driver.Config{Metrics: reg})
	sys.onClose(func() error { driver.Configure(dsn, driver.Config{}); return nil })

	opts.Dialect = cfg.Dialect.String()
	opts.Metrics = reg
	if cfg.Backend == storage.KindDisk {
		opts.AfterCheckpoint = eng.Checkpoint
	}
	plain, err := core.Open(driver.DriverName, dsn, opts)
	if err != nil {
		return err
	}
	sys.onClose(plain.Close)
	sys.plain = plain
	if !tracing {
		return nil
	}
	opts.Observer = spans
	if opts.Checkpoint.Dir != "" {
		opts.Checkpoint.Dir += "-traced"
	}
	traced, err := core.Open(spanDriverName, dsn, opts)
	if err != nil {
		return err
	}
	sys.onClose(traced.Close)
	sys.traced = traced
	return nil
}

// openWireShards starts n heap engines, each behind a pooled wire
// server on loopback, and groups one client instance per server into a
// shard group. Each shard instance holds one connection.
func (sys *system) openWireShards(n int, gopts core.Options, tracing bool) error {
	cfg, err := engine.Profile("pgsim")
	if err != nil {
		return err
	}
	sys.wire = true
	var plain, traced []*core.SQLoop
	for i := 0; i < n; i++ {
		eng := sys.newEngine(cfg)
		srv := wire.NewServer(eng)
		eng.SetMetrics(srv.Metrics())
		srv.EnablePool(serve.Config{})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		sys.onClose(srv.Close)
		creg := obs.NewRegistry()
		sys.regs = append(sys.regs, srv.Metrics(), creg)
		sys.clientRegs = append(sys.clientRegs, creg)
		dsn := driver.TCPDSN(addr)
		driver.Configure(dsn, driver.Config{Metrics: creg})
		sys.onClose(func() error { driver.Configure(dsn, driver.Config{}); return nil })
		opts := core.Options{Threads: 1, Dialect: cfg.Dialect.String(), Metrics: creg}
		p, err := core.Open(driver.DriverName, dsn, opts)
		if err != nil {
			return err
		}
		sys.onClose(p.Close)
		plain = append(plain, p)
		if tracing {
			t, err := core.Open(spanDriverName, dsn, opts)
			if err != nil {
				return err
			}
			sys.onClose(t.Close)
			traced = append(traced, t)
		}
	}
	greg := obs.NewRegistry()
	sys.regs = append(sys.regs, greg)
	gopts.Dialect = cfg.Dialect.String()
	gopts.Metrics = greg
	g, err := core.NewShardGroup(plain, gopts, false)
	if err != nil {
		return err
	}
	sys.plain = g
	if tracing {
		gopts.Observer = spans
		if sys.traced, err = core.NewShardGroup(traced, gopts, false); err != nil {
			return err
		}
	}
	return nil
}

// load creates the edges table and inserts the graph in batches, as
// plain SQL text: the program receives only the generated rows.
func load(ctx context.Context, ex executor, g *graph) error {
	if _, err := ex.Exec(ctx, "CREATE TABLE edges (src BIGINT, dst BIGINT, weight DOUBLE)"); err != nil {
		return fmt.Errorf("create edges: %w", err)
	}
	var sb strings.Builder
	for i := 0; i < len(g.edges); i += loadBatchRows {
		sb.Reset()
		sb.WriteString("INSERT INTO edges VALUES ")
		for j, e := range g.edges[i:min(i+loadBatchRows, len(g.edges))] {
			if j > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %g)", e.src, e.dst, e.w)
		}
		if _, err := ex.Exec(ctx, sb.String()); err != nil {
			return fmt.Errorf("load edges from row %d: %w", i, err)
		}
	}
	return nil
}

// perNode reads a (node, value) result into a map.
func perNode(res *core.Result) (map[int64]float64, error) {
	out := make(map[int64]float64, len(res.Rows))
	for _, row := range res.Rows {
		if len(row) != 2 {
			return nil, fmt.Errorf("row has %d columns, want 2", len(row))
		}
		n, ok1 := row[0].(int64)
		v, ok2 := row[1].(float64)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("row (%T, %T), want (int64, float64)", row[0], row[1])
		}
		out[n] = v
	}
	return out, nil
}

// perturb copies a result with one value moved: the first row whose
// last value is a positive finite number gains one part in a million,
// or one when it is a count.
func perturb(res *core.Result) *core.Result {
	out := *res
	out.Rows = make([][]any, len(res.Rows))
	moved := false
	for i, row := range res.Rows {
		out.Rows[i] = append([]any(nil), row...)
		if moved || len(row) == 0 {
			continue
		}
		switch v := row[len(row)-1].(type) {
		case float64:
			if v > 0 && !math.IsInf(v, 0) {
				out.Rows[i][len(row)-1] = v * (1 + 1e-6)
				moved = true
			}
		case int64:
			out.Rows[i][len(row)-1] = v + 1
			moved = true
		}
	}
	return &out
}

// rereadSSSP opens a fresh engine on a closed engine's data directory
// and reads back the sssp table the last query kept, as node distances.
func rereadSSSP(dataDir string) (map[int64]float64, error) {
	cfg, err := engine.Profile("pgsim")
	if err != nil {
		return nil, err
	}
	cfg.Backend = storage.KindDisk
	cfg.DataDir = dataDir
	cfg.BufferPoolPages = ssspPoolPages
	eng := engine.New(cfg)
	defer eng.Close()
	res, err := eng.NewSession().Exec("SELECT Node, LEAST(Distance, Delta) FROM sssp")
	if err != nil {
		return nil, fmt.Errorf("re-read sssp: %w", err)
	}
	out := make(map[int64]float64, len(res.Rows))
	for _, row := range res.Rows {
		n, ok1 := row[0].GoValue().(int64)
		v, ok2 := row[1].GoValue().(float64)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("re-read sssp: row (%T, %T)", row[0].GoValue(), row[1].GoValue())
		}
		out[n] = v
	}
	return out, nil
}
