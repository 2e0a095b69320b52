package bench

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"sqloop/internal/core"
	"sqloop/internal/driver"
	"sqloop/internal/engine"
	"sqloop/internal/graph"
	"sqloop/internal/obs"
	"sqloop/internal/storage"
)

// Config describes one experiment run.
type Config struct {
	Profile    string // pgsim | mysim | mariasim
	Mode       core.Mode
	Threads    int
	Partitions int
	Dataset    string // google-web | twitter-ego | berkstan-web
	Nodes      int64
	Seed       int64
	// WithCost enables the calibrated latency model (DESIGN.md) so that
	// multi-connection parallelism behaves like the paper's multi-core
	// server.
	WithCost bool
	// Priority overrides the AsyncP priority query.
	Priority string
	// DisableMaterialization turns off the constant-join
	// materialization (the SQL-script baseline runs without it).
	DisableMaterialization bool
	// SampleEvery enables the convergence sampler at this period
	// (0 disables). The paper sampled every 5 s; scaled-down runs sample
	// faster.
	SampleEvery time.Duration
	// SampleQuery is what the sampler evaluates (e.g. the sum of rank).
	SampleQuery string
	// DisableStmtCache turns off both the engine's parse+plan cache and
	// the middleware's per-connection prepared statements, for
	// cache-ablation runs (the -fig stmtcache comparison).
	DisableStmtCache bool
	// Backend selects the engine's storage backend by name (heap, btree,
	// lsm, disk); empty keeps the profile default. The disk backend runs
	// with DataDir and BufferPoolPages (both optional) and reports pager
	// I/O in Metrics.Pager (the -fig io comparison).
	Backend         string
	DataDir         string
	BufferPoolPages int
}

// PagerStats is the durable backend's I/O delta over one run, all zero
// for the in-memory backends.
type PagerStats struct {
	PageReads  int64
	PageWrites int64
	Evictions  int64
	HitRatePct int64 // buffer pool hit rate, percent
}

// Sample is one convergence observation.
type Sample struct {
	At    time.Duration
	Value float64
}

// Metrics is the outcome of one experiment run.
type Metrics struct {
	Elapsed   time.Duration
	Rounds    int
	MsgTables int
	// RoundStats is the per-round execution trace (delta sizes, round
	// runtimes, straggler spread) — the data behind the paper's §VI
	// convergence plots.
	RoundStats []core.RoundStats
	Result     *core.Result
	Samples    []Sample
	FinalValue float64 // last sampled value (or NaN when sampling off)
	// ConvergenceTime is when the sampled value first reached 99% of its
	// final value (the paper's convergence definition for PageRank).
	ConvergenceTime time.Duration
	// Work is the engine's logical work delta over the run.
	Work engine.StatsSnapshot
	// StmtCache is the engine statement-cache delta over the run (all
	// zero when the cache is disabled).
	StmtCache engine.StmtCacheStats
	// Pager is the buffer pool / page I/O activity of the run (disk
	// backend only).
	Pager PagerStats
}

// StmtsPerRound is the statement overhead per completed round.
func (m *Metrics) StmtsPerRound() float64 {
	if m.Rounds == 0 {
		return float64(m.Work.Statements)
	}
	return float64(m.Work.Statements) / float64(m.Rounds)
}

// backendFor maps an engine profile to its storage backend name.
func backendFor(profile string) string {
	cfg, err := engine.Profile(profile)
	if err != nil {
		return profile
	}
	return cfg.Backend.String()
}

var handleSeq atomic.Int64

// Run executes the query under cfg against a fresh embedded engine with
// the dataset loaded, returning the measured metrics.
func Run(ctx context.Context, cfg Config, query string) (*Metrics, error) {
	engCfg, err := engine.Profile(cfg.Profile)
	if err != nil {
		return nil, err
	}
	if cfg.WithCost {
		engCfg.Cost = engine.DefaultCost(engCfg.Dialect)
	}
	if cfg.DisableStmtCache {
		engCfg.StmtCacheSize = -1
	}
	if cfg.Backend != "" {
		kind, err := storage.ParseKind(cfg.Backend)
		if err != nil {
			return nil, err
		}
		engCfg.Backend = kind
		engCfg.DataDir = cfg.DataDir
		engCfg.BufferPoolPages = cfg.BufferPoolPages
	}
	eng := engine.New(engCfg)
	var pagerReg *obs.Registry
	if engCfg.Backend == storage.KindDisk {
		pagerReg = obs.NewRegistry()
		eng.SetMetrics(pagerReg)
	}
	handle := "bench-" + strconv.FormatInt(handleSeq.Add(1), 10)
	driver.RegisterEngine(handle, eng)
	defer func() {
		driver.UnregisterEngine(handle)
		// The disk backend holds page files, WALs and possibly a temp
		// data directory; the in-memory backends make this a no-op.
		_ = eng.Close()
	}()

	s, err := core.Open(driver.DriverName, driver.InprocDSN(handle), core.Options{
		Mode:                   cfg.Mode,
		Threads:                cfg.Threads,
		Partitions:             cfg.Partitions,
		Dialect:                engCfg.Dialect.String(),
		PriorityQuery:          cfg.Priority,
		DisableMaterialization: cfg.DisableMaterialization,
		DisableStmtCache:       cfg.DisableStmtCache,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()

	g, err := graph.ByName(cfg.Dataset, cfg.Nodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if err := graph.Load(ctx, s.DB(), "edges", g, 500); err != nil {
		return nil, err
	}
	before := eng.Stats()
	cacheBefore := eng.StmtCacheStats()

	// Convergence sampler: a separate connection polling the live CTE
	// view, like the paper's sampling thread (§VI-A). Samples are timed
	// from the same instant as the query.
	var samples []Sample
	stopSampler := func() {}
	started := time.Now()
	if cfg.SampleEvery > 0 && cfg.SampleQuery != "" {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			ticker := time.NewTicker(cfg.SampleEvery)
			defer ticker.Stop()
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
					var v float64
					// The view appears once partitioning finishes;
					// ignore errors before/after.
					if err := s.DB().QueryRowContext(ctx, cfg.SampleQuery).Scan(&v); err == nil {
						samples = append(samples, Sample{At: time.Since(started), Value: v})
					}
				}
			}
		}()
		stopSampler = func() {
			close(stop)
			<-done
		}
	}

	res, err := s.Exec(ctx, query)
	elapsed := time.Since(started)
	stopSampler()
	if err != nil {
		return nil, err
	}
	// A sample that completed after the query returned observed no part
	// of the run.
	for len(samples) > 0 && samples[len(samples)-1].At > elapsed {
		samples = samples[:len(samples)-1]
	}

	after := eng.Stats()
	cacheAfter := eng.StmtCacheStats()
	m := &Metrics{
		Elapsed:    elapsed,
		Rounds:     res.Stats.Iterations,
		MsgTables:  res.Stats.MessageTables,
		RoundStats: res.Stats.Rounds,
		Result:     res,
		Samples:    samples,
		Work: engine.StatsSnapshot{
			RowsScanned:  after.RowsScanned - before.RowsScanned,
			RowsJoined:   after.RowsJoined - before.RowsJoined,
			RowsGrouped:  after.RowsGrouped - before.RowsGrouped,
			RowsInserted: after.RowsInserted - before.RowsInserted,
			RowsUpdated:  after.RowsUpdated - before.RowsUpdated,
			RowsDeleted:  after.RowsDeleted - before.RowsDeleted,
			Statements:   after.Statements - before.Statements,
		},
		StmtCache: engine.StmtCacheStats{
			Hits:      cacheAfter.Hits - cacheBefore.Hits,
			Misses:    cacheAfter.Misses - cacheBefore.Misses,
			Evictions: cacheAfter.Evictions - cacheBefore.Evictions,
			Size:      cacheAfter.Size,
		},
	}
	if pagerReg != nil {
		snap := pagerReg.Snapshot()
		m.Pager = PagerStats{
			PageReads:  snap.Counters["sqloop_pager_page_reads"],
			PageWrites: snap.Counters["sqloop_pager_page_writes"],
			Evictions:  snap.Counters["sqloop_pager_evictions"],
			HitRatePct: snap.Gauges["sqloop_pager_hit_rate_percent"],
		}
	}
	m.ConvergenceTime = elapsed
	if n := len(samples); n > 0 {
		m.FinalValue = samples[n-1].Value
		for _, sm := range samples {
			if sm.Value >= 0.99*m.FinalValue {
				m.ConvergenceTime = sm.At
				break
			}
		}
	}
	return m, nil
}

// ScalarResult extracts a single numeric result value (for SSSP/DQ).
func (m *Metrics) ScalarResult() float64 {
	if m.Result == nil || len(m.Result.Rows) == 0 || len(m.Result.Rows[0]) == 0 {
		return 0
	}
	switch v := m.Result.Rows[0][0].(type) {
	case int64:
		return float64(v)
	case float64:
		return v
	default:
		return 0
	}
}

// ModeLabel renders a mode the way the paper's legends do.
func ModeLabel(m core.Mode) string {
	switch m {
	case core.ModeSingle:
		return "SQL Script"
	case core.ModeSync:
		return "Sync"
	case core.ModeAsync:
		return "Async"
	case core.ModeAsyncPrio:
		return "AsyncP"
	default:
		return m.String()
	}
}

// Engines lists the three simulated engines in the paper's order.
func Engines() []string { return []string{"pgsim", "mysim", "mariasim"} }

// EngineLabel maps a profile to the engine it simulates.
func EngineLabel(profile string) string {
	switch profile {
	case "pgsim":
		return "PostgreSQL(sim)"
	case "mysim":
		return "MySQL(sim)"
	case "mariasim":
		return "MariaDB(sim)"
	default:
		return profile
	}
}

// fmtDur prints a duration with millisecond resolution.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%8.3fs", d.Seconds())
}
