// Package sqloop is the public API of the SQLoop reproduction: a
// middleware that extends SQL with iterative common table expressions
//
//	WITH ITERATIVE R AS (R0 ITERATE Ri UNTIL Tc) Qf
//
// and transparently parallelizes qualifying iterative queries with
// synchronous, asynchronous (delta-accumulative) and prioritized
// asynchronous execution against any engine reachable through
// database/sql — including the embedded engine this repository ships
// with its three storage profiles (pgsim, mysim, mariasim).
//
// Quick start:
//
//	db, err := sqloop.OpenEmbedded("pgsim", sqloop.Options{})
//	...
//	res, err := db.Exec(ctx, `WITH ITERATIVE ... UNTIL 10 ITERATIONS) SELECT ...`)
package sqloop

import (
	"context"
	"database/sql"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"sqloop/internal/core"
	"sqloop/internal/driver"
	"sqloop/internal/engine"
	"sqloop/internal/graph"
	"sqloop/internal/obs"
	"sqloop/internal/serve"
	"sqloop/internal/sqlparser"
	"sqloop/internal/storage"
	"sqloop/internal/wire"
)

// Re-exported core types: these aliases are the supported public
// surface; internal/core is not importable outside this module.
type (
	// SQLoop is one middleware instance bound to a target database.
	SQLoop = core.SQLoop
	// Options configures a SQLoop instance.
	Options = core.Options
	// Result is the outcome of one Exec call.
	Result = core.Result
	// ExecStats describes how a CTE was executed.
	ExecStats = core.ExecStats
	// Mode selects the execution strategy.
	Mode = core.Mode
	// Analysis reports whether a query qualifies for parallel execution.
	Analysis = core.Analysis
	// RoundStats is the per-round trace entry inside ExecStats.
	RoundStats = core.RoundStats
	// CheckpointOptions configures round-boundary snapshots and
	// crash recovery (Options.Checkpoint).
	CheckpointOptions = core.CheckpointOptions
	// CheckpointInfo describes one stored snapshot
	// (SQLoop.ListCheckpoints).
	CheckpointInfo = core.CheckpointInfo
	// ShardGroup executes iterative CTEs across several engine
	// endpoints at once (scale-out), hash-partitioning the working
	// table and exchanging deltas between rounds.
	ShardGroup = core.ShardGroup
	// ShardGroupOptions configures a group's elastic behaviour: standby
	// replicas for failover and growth, and scheduled online
	// repartitions.
	ShardGroupOptions = core.ShardGroupOptions
	// RebalanceStep is one scheduled online repartition (change the
	// shard count after a given round completes).
	RebalanceStep = core.RebalanceStep
)

// Re-exported serving-layer types (see internal/serve): multi-tenant
// admission control and fair round scheduling.
type (
	// RoundScheduler fair-schedules concurrent iterative executions:
	// each holds a slot for one round at a time and yields at round
	// boundaries, so tenants' fix-point loops interleave rounds. Attach
	// one shared instance via Options.Scheduler (with Options.Tenant).
	RoundScheduler = serve.Scheduler
	// AdmissionError reports work turned away by admission control
	// (per-tenant limits, full queues) before anything executed.
	AdmissionError = serve.AdmissionError
)

// ErrAdmissionRejected matches every admission failure via errors.Is,
// whether it happened in-process (Options.Scheduler) or server-side
// across the wire protocol.
var ErrAdmissionRejected = serve.ErrAdmissionRejected

// NewRoundScheduler builds a fair round scheduler with the given
// number of concurrently-running rounds (minimum 1) and per-tenant
// concurrent-execution limit (0 = unlimited).
func NewRoundScheduler(slots, tenantLimit int) *RoundScheduler {
	return serve.NewScheduler(slots, tenantLimit)
}

// TenantDSN appends tenant identity (and, when positive, a default
// per-statement deadline) to a DSN as query parameters, giving each
// tenant its own connection pool against a shared server:
//
//	sqloop.Open(sqloop.TenantDSN(srv.DSN(), "acme", 300*time.Millisecond), opts)
func TenantDSN(dsn, tenant string, deadline time.Duration) string {
	return driver.TenantDSN(dsn, tenant, deadline)
}

// Re-exported observability types (see internal/obs). Observers receive
// typed events through Options.Observer or WithObserver; metrics are
// read with SQLoop.Metrics().Snapshot().
type (
	// Event is one typed execution event.
	Event = obs.Event
	// Tracer consumes events.
	Tracer = obs.Tracer
	// FuncTracer adapts a function to the Tracer interface.
	FuncTracer = obs.FuncTracer
	// Recorder is a Tracer that stores every event (tests, tooling).
	Recorder = obs.Recorder
	// MetricsRegistry holds named counters, gauges and histograms.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry.
	MetricsSnapshot = obs.Snapshot

	// Event payload types.
	ExecStartEvent        = obs.ExecStart
	ExecEndEvent          = obs.ExecEnd
	RoundStartEvent       = obs.RoundStart
	RoundEndEvent         = obs.RoundEnd
	PartitionDoneEvent    = obs.PartitionDone
	FallbackEvent         = obs.Fallback
	TerminationCheckEvent = obs.TerminationCheck
	CheckpointEvent       = obs.Checkpoint
	RestoreEvent          = obs.Restore
	RetryEvent            = obs.Retry
	ShardExchangeEvent    = obs.ShardExchange
	ShardFailoverEvent    = obs.ShardFailover
	ShardRebalanceEvent   = obs.ShardRebalance
)

// MultiTracer fans events out to every non-nil tracer.
func MultiTracer(ts ...Tracer) Tracer { return obs.Multi(ts...) }

// Execution modes (see the package documentation of internal/core).
const (
	ModeAuto      = core.ModeAuto
	ModeSingle    = core.ModeSingle
	ModeSync      = core.ModeSync
	ModeAsync     = core.ModeAsync
	ModeAsyncPrio = core.ModeAsyncPrio
)

// ParseMode resolves a mode name ("auto", "single", "sync", "async",
// "asyncp").
func ParseMode(name string) (Mode, error) { return core.ParseMode(name) }

// Open connects to a database by DSN through the bundled database/sql
// driver. Supported DSNs: sqlsim://inproc/<handle> for engines
// registered in-process and sqlsim://tcp/<host:port> for a remote
// sqlsimd server.
func Open(dsn string, opts Options) (*SQLoop, error) {
	// Share one registry between the middleware and the driver (and, for
	// tcp DSNs, the wire client), mirroring OpenEmbedded's wiring. The
	// instance's connector carries it, so another Open of the same DSN
	// cannot take it over; other driver settings come from the DSN's
	// Configure entry as it stands now.
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	dcfg := driver.ConfigFor(dsn)
	dcfg.Metrics = opts.Metrics
	return core.NewWithDB(sql.OpenDB(driver.NewConnector(dsn, dcfg)), dsn, opts)
}

var embeddedSeq atomic.Int64

// OpenOption configures OpenEmbedded and Serve beyond Options — the
// knobs that concern the embedded engine rather than the middleware.
type OpenOption func(*openConfig)

type openConfig struct {
	cost         bool
	observer     obs.Tracer
	noStmtCache  bool
	backend      string
	dataDir      string
	poolPages    int
	walCkptBytes int64

	// Serving-layer knobs (Serve only; OpenEmbedded has no sessions to
	// pool and ignores them).
	maxSessions int
	queueDepth  int
	tenantLimit int
	deadline    time.Duration
}

// WithMaxSessions caps how many requests a server executes at once;
// excess requests queue per tenant and are drained fairly (round-robin
// across tenants). 0 keeps the default (8).
func WithMaxSessions(n int) OpenOption {
	return func(c *openConfig) { c.maxSessions = n }
}

// WithQueueDepth caps each tenant's wait queue; a request arriving
// beyond the cap is rejected immediately with ErrAdmissionRejected
// instead of waiting. 0 keeps the default (64).
func WithQueueDepth(n int) OpenOption {
	return func(c *openConfig) { c.queueDepth = n }
}

// WithTenantLimit caps how many of one tenant's requests may run
// concurrently, so a single tenant cannot occupy every session. 0
// means no per-tenant cap.
func WithTenantLimit(n int) OpenOption {
	return func(c *openConfig) { c.tenantLimit = n }
}

// WithDeadline bounds every request that arrives without its own
// deadline: queue wait plus execution, enforced at statement and round
// boundaries. 0 means unbounded.
func WithDeadline(d time.Duration) OpenOption {
	return func(c *openConfig) { c.deadline = d }
}

// WithBackend overrides the profile's storage backend ("heap",
// "btree", "lsm", "disk"). "disk" selects the durable pager: tables
// live in 8 KiB slotted pages under a data directory, every mutation
// is write-ahead logged, and a crash loses at most the uncommitted
// tail of the last statement. Unknown names fail Open/Serve.
func WithBackend(name string) OpenOption {
	return func(c *openConfig) { c.backend = name }
}

// WithDataDir sets where the disk backend keeps its page and WAL files.
// Empty keeps the default: a throwaway temp directory, removed when the
// instance or server is closed.
func WithDataDir(dir string) OpenOption {
	return func(c *openConfig) { c.dataDir = dir }
}

// WithBufferPoolPages sizes the disk backend's shared buffer pool in
// 8 KiB pages (0 keeps the default of 256 = 2 MiB).
func WithBufferPoolPages(n int) OpenOption {
	return func(c *openConfig) { c.poolPages = n }
}

// WithCostModel enables the calibrated latency model used by the
// benchmark harness, so multi-connection parallelism behaves like the
// paper's multi-core server even on a small host.
func WithCostModel() OpenOption {
	return func(c *openConfig) { c.cost = true }
}

// WithObserver attaches a tracer in addition to any Options.Observer,
// as a composable alternative to setting the struct field.
func WithObserver(t Tracer) OpenOption {
	return func(c *openConfig) { c.observer = obs.Multi(c.observer, t) }
}

// WithoutStmtCache disables the embedded engine's parse+plan statement
// cache and the middleware's per-connection prepared-statement cache —
// an escape hatch for debugging and for cache-ablation benchmarks.
// Every statement is then parsed and planned from its text on each
// execution, the behaviour before prepared statements existed.
func WithoutStmtCache() OpenOption {
	return func(c *openConfig) { c.noStmtCache = true }
}

// WithWALCheckpointBytes starts the embedded disk backend's background
// checkpointer: a table whose write-ahead log grows past n bytes is
// checkpointed (pages flushed, WAL truncated) without waiting for a
// middleware snapshot, keeping long DML-only runs' logs bounded. 0
// (the default) leaves checkpointing to explicit Checkpoint calls.
func WithWALCheckpointBytes(n int64) OpenOption {
	return func(c *openConfig) { c.walCkptBytes = n }
}

func applyOpenOptions(extra []OpenOption) openConfig {
	var c openConfig
	for _, o := range extra {
		if o != nil {
			o(&c)
		}
	}
	return c
}

// engineConfig resolves the named profile plus the engine options into
// an engine configuration.
func engineConfig(profile string, oc openConfig) (engine.Config, error) {
	cfg, err := engine.Profile(profile)
	if err != nil {
		return cfg, err
	}
	if oc.backend != "" {
		if cfg.Backend, err = storage.ParseKind(oc.backend); err != nil {
			return cfg, err
		}
	}
	if oc.cost {
		cfg.Cost = engine.DefaultCost(cfg.Dialect)
	}
	if oc.noStmtCache {
		cfg.StmtCacheSize = -1
	}
	cfg.DataDir = oc.dataDir
	cfg.BufferPoolPages = oc.poolPages
	cfg.WALCheckpointBytes = oc.walCkptBytes
	return cfg, nil
}

// OpenEmbedded spins up an embedded engine with the named profile
// ("pgsim"/"postgres", "mysim"/"mysql", "mariasim"/"mariadb") and
// returns a SQLoop bound to it. The engine and the driver report into
// the instance's Metrics() registry, so one snapshot covers all layers.
// The instance owns the engine: its Close also closes the engine,
// removing a temporary disk data directory.
func OpenEmbedded(profile string, opts Options, extra ...OpenOption) (*SQLoop, error) {
	oc := applyOpenOptions(extra)
	cfg, err := engineConfig(profile, oc)
	if err != nil {
		return nil, err
	}
	opts.DisableStmtCache = opts.DisableStmtCache || oc.noStmtCache
	if oc.observer != nil {
		opts.Observer = obs.Multi(opts.Observer, oc.observer)
	}
	eng := engine.New(cfg)
	// A middleware checkpoint on a durable engine also flushes the
	// engine's pages and truncates its WALs, so a post-crash restart
	// replays only the post-snapshot tail.
	if cfg.Backend == storage.KindDisk && opts.AfterCheckpoint == nil {
		opts.AfterCheckpoint = eng.Checkpoint
	}
	if opts.Dialect == "" {
		opts.Dialect = cfg.Dialect.String()
	}
	// One registry shared by the middleware, the driver connections and
	// the engine: configure it before the first pooled connection opens
	// so even that one reports into it.
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	eng.SetMetrics(opts.Metrics)
	handle := "embedded-" + strconv.FormatInt(embeddedSeq.Add(1), 10)
	db := sql.OpenDB(driver.OwnEngine(handle, eng, driver.Config{Metrics: opts.Metrics}))
	s, err := core.NewWithDB(db, driver.InprocDSN(handle), opts)
	if err != nil {
		_ = db.Close()
		return nil, err
	}
	return s, nil
}

// NewShardGroup builds a scale-out execution group from already-open
// instances (mixed backends and remote servers allowed; shard i
// executes hash partition i). The group borrows the shards; closing it
// leaves them open.
func NewShardGroup(shards []*SQLoop, opts Options) (*ShardGroup, error) {
	return core.NewShardGroup(shards, opts, false)
}

// NewElasticShardGroup builds a scale-out group with elastic behaviour:
// standby replicas in gopts.Replicas take over for dead shards
// (failover) and activate when the shard count grows, and
// gopts.Rebalance (or ShardGroup.RequestRebalance) repartitions the
// working table online between rounds. The group borrows the shards
// and replicas; closing it leaves them open.
func NewElasticShardGroup(shards []*SQLoop, gopts ShardGroupOptions, opts Options) (*ShardGroup, error) {
	return core.NewElasticShardGroup(shards, gopts, opts, false)
}

// OpenEmbeddedShards spins up n embedded engines of the named profile
// and groups them for scale-out execution. The group owns the engines:
// Close shuts all of them down.
func OpenEmbeddedShards(profile string, n int, opts Options, extra ...OpenOption) (*ShardGroup, error) {
	return OpenEmbeddedElasticShards(profile, n, 0, ShardGroupOptions{}, opts, extra...)
}

// OpenEmbeddedElasticShards spins up n embedded shard engines plus
// replicas standby engines of the named profile and groups them
// elastically. Replicas listed in gopts.Replicas are prepended to the
// standby pool ahead of the freshly-opened ones. The group owns every
// engine it opened: Close shuts them all down.
func OpenEmbeddedElasticShards(profile string, n, replicas int, gopts ShardGroupOptions, opts Options, extra ...OpenOption) (*ShardGroup, error) {
	if n < 1 {
		return nil, fmt.Errorf("sqloop: shard count %d, need at least 1", n)
	}
	if replicas < 0 {
		return nil, fmt.Errorf("sqloop: replica count %d, need at least 0", replicas)
	}
	all := make([]*SQLoop, 0, n+replicas)
	for i := 0; i < n+replicas; i++ {
		s, err := OpenEmbedded(profile, opts, extra...)
		if err != nil {
			for _, prev := range all {
				_ = prev.Close()
			}
			return nil, err
		}
		all = append(all, s)
	}
	gopts.Replicas = append(gopts.Replicas, all[n:]...)
	return core.NewElasticShardGroup(all[:n], gopts, opts, true)
}

// Server is a network-facing embedded engine (the standalone form of
// cmd/sqlsimd), so SQLoop instances on other machines can reach it via
// sqlsim://tcp DSNs — the paper's remote-database deployment.
type Server struct {
	srv  *wire.Server
	eng  *engine.Engine
	addr string
}

// Serve starts an embedded engine with the given profile listening on
// addr ("127.0.0.1:0" picks a free port). The server admits requests
// through a bounded multi-tenant session pool — size it with
// WithMaxSessions, WithQueueDepth, WithTenantLimit and WithDeadline.
func Serve(profile, addr string, extra ...OpenOption) (*Server, error) {
	oc := applyOpenOptions(extra)
	cfg, err := engineConfig(profile, oc)
	if err != nil {
		return nil, err
	}
	eng := engine.New(cfg)
	srv := wire.NewServer(eng)
	// Server-side statements and lock waits land in the same registry as
	// the wire request metrics.
	eng.SetMetrics(srv.Metrics())
	srv.EnablePool(serve.Config{
		MaxSessions:     oc.maxSessions,
		QueueDepth:      oc.queueDepth,
		TenantLimit:     oc.tenantLimit,
		DefaultDeadline: oc.deadline,
	})
	bound, err := srv.Listen(addr)
	if err != nil {
		_ = srv.Close()
		_ = eng.Close()
		return nil, err
	}
	return &Server{srv: srv, eng: eng, addr: bound}, nil
}

// Addr returns the bound address (connect with sqloop.Open(TCPDSN)).
func (s *Server) Addr() string { return s.addr }

// DSN returns the DSN clients should open.
func (s *Server) DSN() string { return driver.TCPDSN(s.addr) }

// Close stops the server and its connections, then closes its engine.
func (s *Server) Close() error {
	err := s.srv.Close()
	if engErr := s.eng.Close(); err == nil {
		err = engErr
	}
	return err
}

// Metrics returns the server's registry: per-statement wire latency,
// request counts, traffic bytes and engine-side instruments.
func (s *Server) Metrics() *MetricsRegistry { return s.srv.Metrics() }

// Profiles lists the available embedded engine profiles.
func Profiles() []string { return []string{"pgsim", "mysim", "mariasim"} }

// FormatRows renders a result set as a plain text table (a convenience
// for the example programs and the CLI). Columns are aligned to the
// widest value instead of a fixed width.
func FormatRows(res *Result, max int) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	for i, c := range res.Columns {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, c)
	}
	fmt.Fprintln(tw)
	truncated := 0
	for i, row := range res.Rows {
		if max > 0 && i >= max {
			truncated = len(res.Rows) - max
			break
		}
		for j, v := range row {
			if j > 0 {
				fmt.Fprint(tw, "\t")
			}
			if v == nil {
				fmt.Fprint(tw, "NULL")
			} else {
				fmt.Fprintf(tw, "%v", v)
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	if truncated > 0 {
		fmt.Fprintf(&b, "... (%d more rows)\n", truncated)
	}
	return b.String()
}

// LoadDataset generates one of the bundled synthetic datasets
// ("google-web", "twitter-ego", "berkstan-web" — the stand-ins for the
// paper's SNAP graphs) at the given node count and loads it into an
// edges(src, dst, weight) table through s.
func LoadDataset(s *SQLoop, name string, nodes, seed int64) (int, error) {
	g, err := graph.ByName(name, nodes, seed)
	if err != nil {
		return 0, err
	}
	if err := graph.Load(context.Background(), s.DB(), "edges", g, 500); err != nil {
		return 0, err
	}
	return len(g.Edges), nil
}

// Explain describes how SQLoop would execute a statement (see
// core.Explain).
type Explain = core.Explain

// ExplainAnalysis pairs the static plan with the observed profile of
// one actual run (see core.ExplainAnalysis); render it with Render.
type ExplainAnalysis = core.ExplainAnalysis

// ExplainQuery is re-exported for convenience; it analyzes a statement
// without executing it.
func ExplainQuery(s *SQLoop, query string) (*Explain, error) { return s.ExplainQuery(query) }

// GenerateScript renders the hand-written multi-statement SQL script
// equivalent to an iterative CTE (the paper's §VI-D baseline), unrolled
// for the given iteration count (taken from the query when it uses
// UNTIL n ITERATIONS). dialect names the target engine's SQL flavour.
func GenerateScript(query string, iterations int, dialect string) (string, error) {
	d, err := sqlparser.ParseDialect(dialect)
	if err != nil {
		return "", err
	}
	return core.GenerateScript(query, iterations, d)
}
