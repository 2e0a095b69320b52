package core

// Scale-out execution (shard-parallel): one iterative CTE executes
// across N engine endpoints at once. Each shard is a full SQLoop
// instance bound to its own engine (embedded or remote, mixed backends
// allowed); every shard holds the complete input relations but exactly
// one hash partition of the CTE table. The plan generator's partition
// count is the shard count, so PARTHASH(id, S) = s names the rows shard
// s owns, and the per-partition Compute/Gather statements of §V-C run
// unchanged — each against its shard's local partition.
//
// What is new versus the in-process parallel executor is the delta
// exchange: a shard's message table holds rows for every destination
// id, but only the locally-owned rows are reachable by the local
// gather. After each compute wave the coordinator reads each shard's
// remote-owned message rows (PARTHASH(id, S) <> s), routes them Go-side
// with shard.Route — which hashes bit-identically to the engines'
// PARTHASH — ships them through the shard batch codec, and inserts them
// as receive tables on their owning shards. Termination conditions are
// merged at the coordinator: iteration counts globally, update counts
// sum, and aggregate UNTIL expressions are decomposed per §V-D
// (SUM/COUNT add, MIN/MAX fold, AVG ships as SUM+COUNT).

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqloop/internal/ckpt"
	"sqloop/internal/obs"
	"sqloop/internal/shard"
	"sqloop/internal/sqlparser"
	"sqloop/internal/sqltypes"
)

// ShardGroupOptions configures a group's elastic behaviour: standby
// replicas for failover and growth, scheduled online repartitions, and
// AsyncP straggler work handoff. The zero value is a plain fixed-N
// group.
type ShardGroupOptions struct {
	// Replicas are standby instances available to the group: failover
	// replaces a dead shard endpoint with one, and growing the shard
	// count activates them as new shards. Standbys must hold the same
	// base relations as the shards — statements broadcast through the
	// group reach them too, so loading data via the group keeps them in
	// sync. An owned group (OpenEmbeddedElasticShards) closes its
	// replicas on Close.
	Replicas []*SQLoop
	// Rebalance schedules online repartitions: after the step's round
	// completes, the working partitions are re-routed by PARTHASH onto
	// Shards endpoints (growing activates standbys, shrinking retires
	// trailing shards back to the standby pool). Each step fires at
	// most once. RequestRebalance triggers the same transition
	// dynamically.
	Rebalance []RebalanceStep
	// Handoff enables AsyncP straggler mitigation: after each
	// prioritized cycle the slowest shard's pending delta queue is
	// pre-combined on the fastest shard and handed back as a single
	// message table, so the straggler's next gather does one cheap pass.
	Handoff bool
	// ProbeTimeout bounds each per-shard liveness probe during failover
	// (default 2s).
	ProbeTimeout time.Duration
}

// RebalanceStep is one scheduled topology change.
type RebalanceStep struct {
	// AfterRound is the 1-based completed round the change lands after.
	AfterRound int
	// Shards is the new shard count.
	Shards int
}

// ShardGroup executes statements across a set of SQLoop instances, one
// per engine endpoint. Iterative CTEs run sharded; everything else is
// broadcast to every shard and standby (each endpoint must see the
// same base relations for a sharded execution to be meaningful). With
// ShardGroupOptions the set is elastic: dead shards fail over to
// standby replicas and the shard count changes between rounds.
type ShardGroup struct {
	// mu guards the membership slices: failover and rebalance mutate
	// them while accessors may run from other goroutines.
	mu       sync.RWMutex
	shards   []*SQLoop
	standbys []*SQLoop
	retired  []*SQLoop // dead endpoints swapped out by failover
	gopts    ShardGroupOptions
	rebTaken []bool // gopts.Rebalance steps already fired (guarded by mu)
	opts     Options
	owned    bool
	// identity is the group's initial topology signature. It stays
	// fixed across failover and rebalance so the group checkpoint key
	// survives elastic transitions: a snapshot taken before a standby
	// swap or a repartition must still be found by the replay after it.
	identity string
	// epoch counts topology transitions (failover swaps and
	// rebalances). Every group snapshot records it, so the newest
	// snapshot under the stable identity key is unambiguous after a
	// transition.
	epoch atomic.Int64
	// rebalanceReq is a dynamically requested shard count (0 = none),
	// consumed at the next round boundary of a sharded execution.
	rebalanceReq atomic.Int64
	// tracer and metrics are the group's own: coordinator-level events
	// (rounds, exchanges, termination checks) land here, while each
	// shard's statement-level instruments stay in its own registry.
	tracer  obs.Tracer
	metrics *obs.Registry
}

// NewShardGroup builds a fixed-N group over existing instances. With
// own set the group closes the shards on Close; borrowed shards (e.g.
// router targets) stay open.
func NewShardGroup(shards []*SQLoop, opts Options, own bool) (*ShardGroup, error) {
	return NewElasticShardGroup(shards, ShardGroupOptions{}, opts, own)
}

// NewElasticShardGroup builds a group with standby replicas and
// rebalance behaviour. With own set the group closes shards, standbys
// and failed-over endpoints on Close.
func NewElasticShardGroup(shards []*SQLoop, gopts ShardGroupOptions, opts Options, own bool) (*ShardGroup, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: shard group needs at least one shard")
	}
	for _, st := range gopts.Rebalance {
		if st.Shards < 1 || st.AfterRound < 1 {
			return nil, fmt.Errorf("core: rebalance step to %d shards after round %d is not valid",
				st.Shards, st.AfterRound)
		}
	}
	opts = opts.withDefaults()
	tracer := obs.Multi(opts.Observer, onRoundTracer(opts.OnRound))
	if tracer == nil {
		tracer = obs.NopTracer{}
	}
	metrics := opts.Metrics
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	g := &ShardGroup{
		shards:   append([]*SQLoop(nil), shards...),
		standbys: append([]*SQLoop(nil), gopts.Replicas...),
		gopts:    gopts,
		rebTaken: make([]bool, len(gopts.Rebalance)),
		opts:     opts, owned: own,
		identity: topologySignature(shards),
		tracer:   tracer, metrics: metrics,
	}
	return g, nil
}

// topologySignature renders a shard list for checkpoint identity.
func topologySignature(shards []*SQLoop) string {
	dsns := make([]string, len(shards))
	for i, sh := range shards {
		dsns[i] = sh.dsn
	}
	return strings.Join(dsns, ";") + "|shards=" + strconv.Itoa(len(shards))
}

// Size returns the current number of shards.
func (g *ShardGroup) Size() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.shards)
}

// Shards returns the current member instances in shard order.
func (g *ShardGroup) Shards() []*SQLoop {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]*SQLoop(nil), g.shards...)
}

// Shard returns the instance currently executing partition i.
func (g *ShardGroup) Shard(i int) *SQLoop {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.shards[i]
}

// Standbys returns the current standby replicas in pool order.
func (g *ShardGroup) Standbys() []*SQLoop {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]*SQLoop(nil), g.standbys...)
}

// Epoch returns the group's topology epoch: 0 at construction,
// incremented by every failover swap and every online repartition.
func (g *ShardGroup) Epoch() int64 { return g.epoch.Load() }

// RequestRebalance asks the group to repartition to n shards at the
// next round boundary of the in-flight (or next) sharded execution.
// Growing past the current count consumes standby replicas; shrinking
// retires trailing shards back to the standby pool.
func (g *ShardGroup) RequestRebalance(n int) {
	if n > 0 {
		g.rebalanceReq.Store(int64(n))
	}
}

// Options returns the group's effective options.
func (g *ShardGroup) Options() Options { return g.opts }

// Metrics returns the group-level registry (cross-shard rows,
// checkpoint, failover and rebalance counters).
func (g *ShardGroup) Metrics() *obs.Registry { return g.metrics }

// Close releases owned shards, standbys and failed-over endpoints.
func (g *ShardGroup) Close() error {
	if !g.owned {
		return nil
	}
	g.mu.Lock()
	all := append([]*SQLoop(nil), g.shards...)
	all = append(all, g.standbys...)
	all = append(all, g.retired...)
	g.shards, g.standbys, g.retired = nil, nil, nil
	g.mu.Unlock()
	var errs []error
	for _, sh := range all {
		if err := sh.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// loopFor builds a synthetic SQLoop over shard i's engine that runs
// under the GROUP's options, tracer and metrics — used for whole-run
// fallbacks and for checkpoint plumbing. Its dsn is the group's stable
// identity so checkpoint keys carry the shard dimension yet survive
// failover and rebalance.
func (g *ShardGroup) loopFor(i int) *SQLoop {
	g.mu.RLock()
	sh := g.shards[i]
	g.mu.RUnlock()
	return &SQLoop{db: sh.db, opts: g.opts, dialect: sh.dialect,
		dsn: g.identity, tracer: g.tracer, metrics: g.metrics}
}

// membership snapshots the current shards and standbys.
func (g *ShardGroup) membership() (members, standbys []*SQLoop) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]*SQLoop(nil), g.shards...), append([]*SQLoop(nil), g.standbys...)
}

// Exec runs one statement: iterative CTEs execute sharded, everything
// else is broadcast to all shards (shard 0's result is returned).
func (g *ShardGroup) Exec(ctx context.Context, query string) (*Result, error) {
	st, err := sqlparser.Parse(query)
	if err != nil {
		return nil, err
	}
	if cte, ok := st.(*sqlparser.LoopCTEStmt); ok {
		return g.execShardedCTE(ctx, cte)
	}
	return g.broadcast(ctx, st)
}

// ExecScript runs a multi-statement script: CTEs sharded, the rest
// broadcast. Returns the last statement's result.
func (g *ShardGroup) ExecScript(ctx context.Context, script string) (*Result, error) {
	stmts, err := sqlparser.ParseAll(script)
	if err != nil {
		return nil, err
	}
	var res *Result
	for _, st := range stmts {
		if cte, ok := st.(*sqlparser.LoopCTEStmt); ok {
			res, err = g.execShardedCTE(ctx, cte)
		} else {
			res, err = g.broadcast(ctx, st)
		}
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// broadcast runs a plain statement on every shard — and every standby —
// so base relations stay replicated across the whole elastic pool:
// failover and growth can then activate a standby without reloading
// data. Shard 0's result is returned.
func (g *ShardGroup) broadcast(ctx context.Context, st sqlparser.Statement) (*Result, error) {
	members, standbys := g.membership()
	var out *Result
	for s, sh := range members {
		res, err := sh.execPlain(ctx, st)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", s, err)
		}
		if s == 0 {
			out = res
		}
	}
	for i, sh := range standbys {
		if _, err := sh.execPlain(ctx, st); err != nil {
			return nil, fmt.Errorf("core: standby %d: %w", i, err)
		}
	}
	return out, nil
}

// hasStandbys reports whether any standby replica remains in the pool.
func (g *ShardGroup) hasStandbys() bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.standbys) > 0
}

// probe reports whether sh's engine answers a trivial query. A fresh
// pooled connection is requested so the probe exercises a real dial for
// remote engines; the driver's own dial retry and the probe timeout
// bound the wait.
func (g *ShardGroup) probe(ctx context.Context, sh *SQLoop) bool {
	timeout := g.gopts.ProbeTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	conn, err := sh.db.Conn(pctx)
	if err != nil {
		return false
	}
	defer conn.Close()
	var one int64
	return conn.QueryRowContext(pctx, "SELECT 1").Scan(&one) == nil
}

// failover probes every current shard and swaps each dead one for a
// live standby replica, bumping the topology epoch per swap. The dead
// instance moves to the retired list (its *sql.DB stays open so an
// owned Close can release it; a healed endpoint rejoins only as a new
// replica). Returns how many shards were replaced. The actual state
// transfer is free: the subsequent re-run restores every partition —
// including the replacement's — from the group checkpoint and replays
// from the checkpointed cut.
func (g *ShardGroup) failover(ctx context.Context, resumeRound int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	swapped := 0
	for s, sh := range g.shards {
		if len(g.standbys) == 0 {
			break
		}
		if g.probe(ctx, sh) {
			continue
		}
		repl := -1
		for i, sb := range g.standbys {
			if g.probe(ctx, sb) {
				repl = i
				break
			}
		}
		if repl < 0 {
			// Every standby is dead too; leave the shard in place so the
			// retry loop surfaces the original failure.
			continue
		}
		sb := g.standbys[repl]
		g.standbys = append(g.standbys[:repl], g.standbys[repl+1:]...)
		g.retired = append(g.retired, sh)
		g.shards[s] = sb
		swapped++
		ep := g.epoch.Add(1)
		g.tracer.Emit(obs.ShardFailover{Shard: s, From: sh.dsn, To: sb.dsn,
			Round: resumeRound, Epoch: ep})
		g.metrics.Counter("sqloop_shard_failovers_total").Inc()
	}
	return swapped
}

// takeRebalance returns the shard count the group should repartition
// to after round completes, or 0. A dynamic RequestRebalance wins over
// the scheduled steps; each scheduled step fires at most once.
func (g *ShardGroup) takeRebalance(round int) int {
	if n := g.rebalanceReq.Swap(0); n > 0 {
		return int(n)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, st := range g.gopts.Rebalance {
		if !g.rebTaken[i] && st.AfterRound <= round {
			g.rebTaken[i] = true
			return st.Shards
		}
	}
	return 0
}

// resize swaps the group membership to n shards. Growth activates the
// first n-S standby replicas as shards S..n-1; shrink retires the
// trailing shards back to the standby pool (they keep their base
// relations, so a later growth or failover can reactivate them). The
// caller moves the partition data.
func (g *ShardGroup) resize(n int) (added, removed []*SQLoop, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	S := len(g.shards)
	switch {
	case n > S:
		need := n - S
		if len(g.standbys) < need {
			return nil, nil, fmt.Errorf("core: rebalance to %d shards needs %d standby replicas, have %d",
				n, need, len(g.standbys))
		}
		added = append([]*SQLoop(nil), g.standbys[:need]...)
		g.standbys = append([]*SQLoop(nil), g.standbys[need:]...)
		g.shards = append(g.shards, added...)
	case n < S:
		removed = append([]*SQLoop(nil), g.shards[n:]...)
		g.shards = g.shards[:n]
		g.standbys = append(g.standbys, removed...)
	}
	return added, removed, nil
}

// peekRound reports the round of the stored group snapshot for cte (0
// when none): failover events record the cut the replay resumes from.
func (g *ShardGroup) peekRound(cte *sqlparser.LoopCTEStmt) int {
	if !g.opts.Checkpoint.enabled() {
		return 0
	}
	store, err := ckpt.NewStore(g.opts.Checkpoint.Dir)
	if err != nil {
		return 0
	}
	key := ckpt.Key(sqlparser.Format(cte), g.opts.Mode.String(), g.identity)
	snap, err := store.Load(key)
	if err != nil || snap == nil {
		return 0
	}
	return snap.Round
}

// execShardedCTE is the sharded twin of execLoopCTE: it decides whether
// the CTE can execute across shards, falls back to a whole-run on shard
// 0 otherwise, and brackets the sharded run with the ExecStart/ExecEnd
// events and the checkpoint recovery loop.
func (g *ShardGroup) execShardedCTE(ctx context.Context, cte *sqlparser.LoopCTEStmt) (*Result, error) {
	if err := validateCTE(cte); err != nil {
		return nil, err
	}
	// Structural non-starters run whole on shard 0 (which already
	// brackets itself with events): a single shard IS a whole run,
	// ModeSingle asks for one, and recursion has no partitioned plan.
	if g.Size() == 1 || g.opts.Mode == ModeSingle || cte.Kind == sqlparser.CTERecursive {
		res, err := g.loopFor(0).execLoopCTE(ctx, cte)
		if err != nil {
			return nil, err
		}
		res.Stats.ShardCount = 1
		return res, nil
	}
	an := analyzeStep(cte)
	reason := ""
	var tp *shardTermPlan
	if !an.Parallelizable {
		// The inner executor will emit its own Fallback event if a
		// parallel mode was requested; no shard-level event here.
		reason = an.Reason
	} else {
		var why string
		if tp, why = decomposeTerm(cte); why != "" {
			// A sharding-specific limitation: the plan parallelizes but
			// the UNTIL condition cannot be merged across shards.
			reason = why
			g.tracer.Emit(obs.Fallback{CTE: cte.Name, Reason: reason})
			g.metrics.Counter("sqloop_fallbacks_total").Inc()
		}
	}
	if reason != "" {
		res, err := g.loopFor(0).execLoopCTE(ctx, cte)
		if err != nil {
			return nil, err
		}
		if res.Stats.FallbackReason == "" {
			res.Stats.FallbackReason = reason
		}
		res.Stats.ShardCount = 1
		return res, nil
	}
	mode := g.opts.Mode
	if mode == ModeAuto {
		mode = ModeAsync
	}

	g.tracer.Emit(obs.ExecStart{Kind: "iterative", CTE: cte.Name, Mode: g.opts.Mode.String()})
	start := time.Now()
	run := func() (*Result, error) { return g.execSharded(ctx, cte, an, mode, tp) }
	res, err := run()
	// Recovery loop, mirroring execLoopCTE: a transport-level failure on
	// any shard restarts the whole group run, which restores every
	// shard's partition from the latest group snapshot. Before each
	// retry an elastic group probes its members and swaps persistently
	// dead endpoints for standby replicas — the re-run then restores the
	// replacement's partition from the same snapshot, so failover costs
	// nothing beyond the replay.
	var failovers int
	if err != nil && g.opts.Checkpoint.enabled() {
		for attempt := 1; attempt <= g.opts.Checkpoint.recoveries() && recoverable(err); attempt++ {
			backoff := g.opts.Checkpoint.backoff(attempt)
			g.tracer.Emit(obs.Retry{CTE: cte.Name, Attempt: attempt, Err: err.Error(), Backoff: backoff})
			g.metrics.Counter("sqloop_recoveries_total").Inc()
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(backoff):
			}
			if g.hasStandbys() {
				failovers += g.failover(ctx, g.peekRound(cte))
			}
			var res2 *Result
			if res2, err = run(); err == nil {
				res2.Stats.Recoveries = attempt
				res = res2
			}
		}
	}
	end := obs.ExecEnd{CTE: cte.Name, Elapsed: time.Since(start)}
	if err != nil {
		end.Err = err.Error()
		end.Mode = g.opts.Mode.String()
	} else {
		end.Mode = res.Stats.Mode.String()
		end.Iterations = res.Stats.Iterations
	}
	g.tracer.Emit(end)
	if err != nil {
		return nil, err
	}
	res.Stats.Failovers = failovers
	g.metrics.Counter("sqloop_cte_execs_total").Inc()
	g.metrics.Counter("sqloop_rounds_total").Add(int64(res.Stats.Iterations))
	g.metrics.Histogram("sqloop_cte_seconds").Observe(res.Stats.Elapsed)
	return res, nil
}

// shardTermPlan is a decomposed UNTIL expression: one aggregate over
// the CTE, evaluated per shard and merged at the coordinator (§V-D
// decomposition rules applied to the termination side).
type shardTermPlan struct {
	agg   string          // SUM, COUNT, MIN, MAX or AVG
	star  bool            // COUNT(*)
	arg   sqlparser.Expr  // aggregate argument (nil for COUNT(*))
	alias string          // the CTE's alias inside the condition
	where sqlparser.Expr  // optional row filter, references the CTE only
	cmpOp sqltypes.CompareOp
	cmpTo sqltypes.Value  // numeric comparison literal
}

// decomposeTerm decides whether the UNTIL condition can be evaluated
// across shards. ITERATIONS and UPDATES conditions always merge (round
// counts are global, update counts sum); an expression condition must
// be a single decomposable aggregate over the CTE compared to a numeric
// literal. The returned reason is empty when sharding may proceed.
func decomposeTerm(cte *sqlparser.LoopCTEStmt) (*shardTermPlan, string) {
	term := cte.Until
	if term.Kind != sqlparser.TermExpr {
		return nil, ""
	}
	if term.Delta {
		return nil, "UNTIL condition references the Rdelta snapshot"
	}
	if term.Any {
		return nil, "UNTIL ANY conditions do not decompose across shards"
	}
	if term.CmpOp == 0 {
		return nil, "UNTIL condition is not an aggregate comparison"
	}
	lit, ok := term.CmpTo.(*sqlparser.Literal)
	if !ok || !lit.Val.IsNumeric() {
		return nil, "UNTIL comparison target is not a numeric literal"
	}
	sel, ok := term.Expr.(*sqlparser.Select)
	if !ok {
		return nil, "UNTIL condition uses set operations"
	}
	if sel.Distinct || len(sel.GroupBy) > 0 || sel.Having != nil ||
		len(sel.OrderBy) > 0 || sel.Limit != nil || sel.Offset != nil {
		return nil, "UNTIL condition is not a plain aggregate query"
	}
	if len(sel.From) != 1 {
		return nil, "UNTIL condition must read the CTE table only"
	}
	tn, ok := sel.From[0].(*sqlparser.TableName)
	if !ok || !strings.EqualFold(tn.Name, cte.Name) {
		return nil, "UNTIL condition must read the CTE table only"
	}
	if len(sel.Items) != 1 || sel.Items[0].Star {
		return nil, "UNTIL condition must compute exactly one aggregate"
	}
	fc, ok := sel.Items[0].Expr.(*sqlparser.FuncCall)
	if !ok || fc.Distinct {
		return nil, "UNTIL condition must compute exactly one aggregate"
	}
	tp := &shardTermPlan{agg: fc.Name, alias: tn.Alias, where: sel.Where,
		cmpOp: term.CmpOp, cmpTo: lit.Val}
	if tp.alias == "" {
		tp.alias = tn.Name
	}
	switch fc.Name {
	case "COUNT":
		tp.star = fc.Star
		if !fc.Star {
			if len(fc.Args) != 1 {
				return nil, "UNTIL aggregate must take one argument"
			}
			tp.arg = fc.Args[0]
		}
	case "SUM", "MIN", "MAX", "AVG":
		if fc.Star || len(fc.Args) != 1 {
			return nil, "UNTIL aggregate must take one argument"
		}
		tp.arg = fc.Args[0]
	default:
		return nil, fmt.Sprintf("UNTIL aggregate %s does not decompose across shards", fc.Name)
	}
	// Subqueries could read anything; the merge only reasons about
	// per-shard partitions of the one CTE table.
	bad := false
	scan := func(e sqlparser.Expr) {
		if e == nil {
			return
		}
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			switch t := x.(type) {
			case *sqlparser.Subquery, *sqlparser.ExistsExpr:
				bad = true
			case *sqlparser.InExpr:
				if t.Sub != nil {
					bad = true
				}
			}
			return !bad
		})
	}
	scan(tp.where)
	scan(tp.arg)
	if bad {
		return nil, "UNTIL condition contains a subquery"
	}
	return tp, ""
}

// shardedRun is one sharded execution in flight.
type shardedRun struct {
	g   *ShardGroup
	cte *sqlparser.LoopCTEStmt
	an  Analysis
	pl  *plan // partition count == current shard count
	// cols are the CTE's public columns, kept so an online rebalance can
	// rebuild the plan at the new shard count.
	cols []string
	mode Mode
	// conns pins one connection per shard; conns[s] is only ever used
	// by shard s's worker goroutine or by the coordinator between waves.
	// A rebalance grows or shrinks the slice between rounds (closers
	// stays index-aligned with it).
	conns   []*dbConn
	closers []func() error
	tp      *shardTermPlan // nil unless the UNTIL is a decomposed aggregate
	tok     string
	ck      *ckptRun
	rt      *roundTrace

	nameSeq atomic.Int64
	// pending[s] lists message tables shard s has not gathered yet
	// (its own compute output plus receive tables routed to it).
	pending    [][]string
	lastGather []int64
	computed   []bool
	rounds     []int
	startRound int
	crossRows  int64

	stats ExecStats
}

// connectShard pins one connection to sh and appends it (with its
// closer) to the run's connection set.
func (r *shardedRun) connectShard(ctx context.Context, sh *SQLoop) error {
	conn, err := sh.db.Conn(ctx)
	if err != nil {
		return err
	}
	c := sh.newConn(conn)
	r.conns = append(r.conns, c)
	r.closers = append(r.closers, func() error {
		c.closeStmts()
		return conn.Close()
	})
	return nil
}

// closeConns releases every connection the run still holds.
func (r *shardedRun) closeConns() {
	for _, cl := range r.closers {
		_ = cl()
	}
	r.conns, r.closers = nil, nil
}

// execSharded runs one iterative CTE across every shard.
func (g *ShardGroup) execSharded(ctx context.Context, cte *sqlparser.LoopCTEStmt, an Analysis, mode Mode, tp *shardTermPlan) (*Result, error) {
	start := time.Now()
	members := g.Shards()
	S := len(members)
	loop0 := g.loopFor(0)

	ck, err := loop0.newCkptRun(cte)
	if err != nil {
		return nil, err
	}
	// A usable group snapshot has exactly one partition table (and round
	// counter) per recorded partition; anything else is discarded. A
	// shard-count mismatch alone is NOT a discard — repartitionSnapshot
	// re-routes the recorded rows under the current topology, which is
	// what makes resume after an online rebalance (or into a group
	// rebuilt at a different size) well-defined.
	if ck.restoring() && (ck.resumed.Partitions < 1 ||
		len(ck.resumed.Tables) != ck.resumed.Partitions ||
		len(ck.resumed.PartRounds) != ck.resumed.Partitions) {
		ck.resumed = nil
	}
	tok := ck.execToken()

	rUser := strings.ToLower(cte.Name)
	rName := rTableName(tok, cte.Name)

	run := &shardedRun{
		g: g, cte: cte, an: an, mode: mode, tp: tp, tok: tok, ck: ck,
		rt:         newRoundTrace(g.tracer, false),
		pending:    make([][]string, S),
		lastGather: make([]int64, S),
		computed:   make([]bool, S),
		rounds:     make([]int, S),
	}
	defer run.closeConns()
	for s, sh := range members {
		if err := run.connectShard(ctx, sh); err != nil {
			return nil, fmt.Errorf("core: shard %d connection: %w", s, err)
		}
	}
	conns := run.conns

	// Stale user-visible objects from a crashed legacy run must not
	// break this one on any shard.
	if err := run.forEach(func(s int) error {
		if _, err := conns[s].runStmt(ctx, dropView(rUser)); err != nil {
			return err
		}
		_, err := conns[s].runStmt(ctx, dropTable(rUser))
		return err
	}); err != nil {
		return nil, err
	}

	var cols []string
	if ck.restoring() {
		cols = ck.resumed.Columns
	} else {
		// Every shard evaluates the full R0 (the seed is tiny next to the
		// iteration) and then keeps only its own partition. Shard 0 runs
		// first so derived column names are settled before the fan-out.
		cols, err = loop0.seedTable(ctx, conns[0], cte, tok, rName, true)
		if err != nil {
			return nil, err
		}
		if err := run.forEach(func(s int) error {
			if s == 0 {
				return nil
			}
			sc, err := loop0.seedTable(ctx, conns[s], cte, tok, rName, true)
			if err != nil {
				return fmt.Errorf("seeding shard %d: %w", s, err)
			}
			if len(sc) != len(cols) {
				return fmt.Errorf("core: shard %d derived %d seed columns, shard 0 derived %d",
					s, len(sc), len(cols))
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if len(cols) <= an.DeltaItem {
		return nil, fmt.Errorf("core: CTE %s declares %d columns but the delta is item %d",
			cte.Name, len(cols), an.DeltaItem+1)
	}

	run.cols = cols
	run.pl = newPlan(cte, an, cols, S, tok, !g.opts.DisableMaterialization)
	defer run.cleanup(context.WithoutCancel(ctx))

	if ck.restoring() {
		if ck.resumed.Partitions != S {
			if err := run.repartitionSnapshot(); err != nil {
				return nil, err
			}
		}
		// Adopt the snapshot's epoch if it is ahead (a fresh group object
		// resuming another incarnation's work).
		if e := ck.resumed.Epoch; e > g.epoch.Load() {
			g.epoch.Store(e)
		}
		if err := run.forEach(func(s int) error {
			if err := ck.restoreTable(ctx, conns[s], ck.resumed.Tables[s], true); err != nil {
				return err
			}
			_, err := conns[s].runStmt(ctx, &sqlparser.CreateViewStmt{
				Name: run.pl.rQL, Body: run.localViewBody(s)})
			return err
		}); err != nil {
			return nil, err
		}
		copy(run.rounds, ck.resumed.PartRounds)
		run.startRound = ck.resumed.Round
		run.stats.Iterations = ck.resumed.Round
		ck.markResumed()
	} else {
		if err := run.forEach(func(s int) error {
			for _, st := range run.localPartitionStmts(s) {
				if _, err := conns[s].runStmt(ctx, st); err != nil {
					return fmt.Errorf("partitioning %s on shard %d: %w", cte.Name, s, err)
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if err := run.forEach(func(s int) error {
		publishAdvisoryView(ctx, conns[s], rUser, run.pl.rQL)
		if run.pl.materialized {
			for _, st := range run.pl.mjoinStmts() {
				if _, err := conns[s].runStmt(ctx, st); err != nil {
					return fmt.Errorf("materializing join on shard %d: %w", s, err)
				}
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	switch mode {
	case ModeSync:
		err = run.driveSync(ctx)
	case ModeAsyncPrio:
		err = run.driveAsync(ctx, true)
	default:
		err = run.driveAsync(ctx, false)
	}
	if err != nil {
		return nil, err
	}

	out, err := run.mergeFinal(ctx)
	if err != nil {
		return nil, err
	}
	run.stats.Mode = mode
	run.stats.Parallelized = true
	run.stats.ShardCount = len(run.conns)
	run.stats.CrossShardRows = run.crossRows
	run.stats.Elapsed = time.Since(start)
	run.stats.Rounds = run.rt.rounds
	ck.finish(&run.stats)
	out.Stats = run.stats
	return out, nil
}

// repartitionSnapshot rewrites a group snapshot taken under a different
// shard count in place for the current topology: every recorded
// partition row is re-routed by its id hash under the current count
// (the same Route the live exchange uses), yielding one partition
// table per current shard. Per-row delta state rides inside the rows
// themselves, so re-routing whole rows preserves the execution state
// exactly.
func (r *shardedRun) repartitionSnapshot() error {
	snap := r.ck.resumed
	S := len(r.conns)
	batches := make([]shard.Batch, 0, len(snap.Tables))
	var cols []string
	for _, ts := range snap.Tables {
		if cols == nil {
			cols = ts.Columns
		}
		rows := make([][]any, len(ts.Rows))
		for i, row := range ts.Rows {
			dec := make([]any, len(row))
			for j, v := range row {
				gv, err := v.Decode()
				if err != nil {
					return fmt.Errorf("core: repartition snapshot %s: %w", ts.Name, err)
				}
				dec[j] = gv
			}
			rows[i] = dec
		}
		batches = append(batches, shard.Batch{Columns: ts.Columns, Rows: rows})
	}
	all, err := shard.Merge(batches...)
	if err != nil {
		return fmt.Errorf("core: repartition snapshot: %w", err)
	}
	if len(all.Columns) == 0 {
		all.Columns = cols
	}
	parts, err := shard.Route(all, 0, S) // column 0 is the partition id
	if err != nil {
		return fmt.Errorf("core: repartition snapshot: %w", err)
	}
	tables := make([]ckpt.TableState, S)
	for s := 0; s < S; s++ {
		ts := ckpt.TableState{Name: r.pl.partName(s), Columns: all.Columns,
			Rows: make([][]ckpt.Value, len(parts[s].Rows))}
		for i, row := range parts[s].Rows {
			enc := make([]ckpt.Value, len(row))
			for j, v := range row {
				ev, err := ckpt.EncodeValue(v)
				if err != nil {
					return fmt.Errorf("core: repartition snapshot: %w", err)
				}
				enc[j] = ev
			}
			ts.Rows[i] = enc
		}
		tables[s] = ts
	}
	snap.Tables = tables
	snap.Partitions = S
	snap.PartRounds = fillRounds(make([]int, S), snap.Round)
	return nil
}

// forEach runs fn concurrently for every shard index and joins the
// errors. Each invocation touches only its own shard's connection and
// its own slice slots, so no locking is needed.
func (r *shardedRun) forEach(fn func(s int) error) error {
	errs := make([]error, len(r.conns))
	var wg sync.WaitGroup
	for s := range r.conns {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = fn(s)
		}(s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// localPartitionStmts is partitionStmts restricted to the one partition
// this shard owns: filter the seeded table down to PARTHASH(id,S)=s,
// drop the full copy, and re-expose the CTE name as a view over the
// local partition alone (the union view of the in-process executor
// would claim rows this shard does not have).
func (r *shardedRun) localPartitionStmts(s int) []sqlparser.Statement {
	pl := r.pl
	partCols := append([]string(nil), pl.cols...)
	if pl.avg {
		partCols = append(partCols, avgSumCol, avgCntCol)
	}
	sel := &sqlparser.Select{
		From:  []sqlparser.TableExpr{tbl(pl.rQL)},
		Where: eq(fn("PARTHASH", col("", pl.idCol), intLit(int64(pl.p))), intLit(int64(s))),
	}
	for _, c := range pl.cols {
		sel.Items = append(sel.Items, item(col("", c), ""))
	}
	if pl.avg {
		sel.Items = append(sel.Items,
			item(litVal(sqltypes.NewFloat(0)), avgSumCol),
			item(litVal(sqltypes.NewFloat(0)), avgCntCol))
	}
	return []sqlparser.Statement{
		dropTable(pl.partName(s)),
		createAnyTable(pl.partName(s), partCols, true),
		insertBody(pl.partName(s), sel),
		dropTable(pl.rQL),
		&sqlparser.CreateViewStmt{Name: pl.rQL, Body: r.localViewBody(s)},
	}
}

// localViewBody selects the public CTE columns from this shard's
// partition table.
func (r *shardedRun) localViewBody(s int) sqlparser.SelectBody {
	sel := &sqlparser.Select{From: []sqlparser.TableExpr{tbl(r.pl.partName(s))}}
	for _, c := range r.pl.cols {
		sel.Items = append(sel.Items, item(col("", c), c))
	}
	return sel
}

// computeShard runs the three Compute steps on shard s (absorb, emit
// messages, reset). It returns the rows changed by the absorb and the
// message table name ("" when the shard emitted nothing).
func (r *shardedRun) computeShard(ctx context.Context, s int, gatherChanged int64) (int64, string, error) {
	c := r.conns[s]
	var changed int64
	hasAbsorb := len(r.pl.valueSets) > 0
	if hasAbsorb {
		res, err := c.runStmt(ctx, r.pl.absorbStmt(s))
		if err != nil {
			return 0, "", fmt.Errorf("compute(absorb) shard %d: %w", s, err)
		}
		changed = res.RowsAffected
	}
	// Quiet-shard fast path (same proof as the in-process executor):
	// after a compute every delta is at the identity; if the preceding
	// gather accepted nothing and the absorb changed nothing, the
	// activity filter would yield an empty message table.
	if hasAbsorb && r.computed[s] && gatherChanged == 0 && changed == 0 {
		return 0, "", nil
	}
	r.computed[s] = true
	msgName := msgTableName(r.pl.tok, r.cte.Name, r.nameSeq.Add(1))
	if _, err := c.runStmt(ctx, r.pl.messageStmt(s, msgName)); err != nil {
		return 0, "", fmt.Errorf("compute(messages) shard %d: %w", s, err)
	}
	n, ok, err := c.scalar(ctx, sqlparser.FormatDialect(countStmt(msgName), c.dialect))
	if err != nil {
		return 0, "", err
	}
	if !ok || n == 0 {
		if _, err := c.runStmt(ctx, dropTable(msgName)); err != nil {
			return 0, "", err
		}
		msgName = ""
	}
	if _, err := c.runStmt(ctx, r.pl.resetStmt(s)); err != nil {
		return 0, "", fmt.Errorf("compute(reset) shard %d: %w", s, err)
	}
	return changed, msgName, nil
}

// exchange is the cross-shard delta wave: for every shard that emitted
// a message table this cycle, read the rows owned by other shards,
// route them Go-side, ship them through the batch codec and insert them
// as receive tables on their owners. The local table keeps all rows —
// the owner-filtered gather ignores the shipped ones — so no deletes
// are needed.
func (r *shardedRun) exchange(ctx context.Context, round int, msgs []string) error {
	S := len(r.conns)
	any := false
	for _, m := range msgs {
		if m != "" {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	msgCols := r.pl.msgCols()

	// Phase one, parallel per source shard: read outbound rows, route by
	// owner, encode each destination's batch for the wire.
	outbound := make([][][]byte, S)
	durs := make([]time.Duration, S)
	moved := make([]int64, S)
	if err := r.forEach(func(s int) error {
		name := msgs[s]
		if name == "" {
			return nil
		}
		r.pending[s] = append(r.pending[s], name)
		t0 := time.Now()
		sel := &sqlparser.Select{
			From: []sqlparser.TableExpr{tbl(name)},
			Where: &sqlparser.ComparisonExpr{Op: sqltypes.CmpNE,
				Left:  col("", msgPartCol),
				Right: intLit(int64(s))},
		}
		for _, c := range msgCols {
			sel.Items = append(sel.Items, item(col("", c), c))
		}
		res, err := r.conns[s].runStmt(ctx, &sqlparser.SelectStmt{Body: sel})
		if err != nil {
			return fmt.Errorf("exchange read on shard %d: %w", s, err)
		}
		if len(res.Rows) == 0 {
			durs[s] = time.Since(t0)
			return nil
		}
		parts, err := shard.Route(shard.Batch{Columns: msgCols, Rows: res.Rows}, 0, S)
		if err != nil {
			return fmt.Errorf("exchange route from shard %d: %w", s, err)
		}
		enc := make([][]byte, S)
		for d := 0; d < S; d++ {
			if d == s || len(parts[d].Rows) == 0 {
				continue
			}
			enc[d] = shard.EncodeBatch(parts[d])
			moved[s] += int64(len(parts[d].Rows))
		}
		outbound[s] = enc
		durs[s] = time.Since(t0)
		return nil
	}); err != nil {
		return err
	}

	// Phase two, parallel per destination shard: decode every inbound
	// batch and materialize it as a receive table for the next gather.
	rx := make([]int, S)
	if err := r.forEach(func(d int) error {
		for s := 0; s < S; s++ {
			if outbound[s] == nil || outbound[s][d] == nil {
				continue
			}
			b, err := shard.DecodeBatch(outbound[s][d])
			if err != nil {
				return fmt.Errorf("exchange decode on shard %d: %w", d, err)
			}
			rxName := msgTableName(r.pl.tok, r.cte.Name, r.nameSeq.Add(1))
			if err := r.insertBatch(ctx, r.conns[d], rxName, b); err != nil {
				return fmt.Errorf("exchange insert on shard %d: %w", d, err)
			}
			r.pending[d] = append(r.pending[d], rxName)
			rx[d]++
		}
		return nil
	}); err != nil {
		return err
	}

	for s := 0; s < S; s++ {
		r.stats.MessageTables += rx[s]
		r.rt.msgTables(rx[s])
		if moved[s] > 0 {
			r.crossRows += moved[s]
			r.g.metrics.Counter("sqloop_shard_rows_exchanged").Add(moved[s])
			r.g.tracer.Emit(obs.ShardExchange{Round: round, Shard: s,
				Rows: moved[s], Tables: 1, Duration: durs[s]})
		}
	}
	return nil
}

// insertBatch materializes a decoded batch as a table on c.
func (r *shardedRun) insertBatch(ctx context.Context, c *dbConn, name string, b shard.Batch) error {
	if _, err := c.runStmt(ctx, createAnyTable(name, b.Columns, false)); err != nil {
		return err
	}
	const batch = 500
	for lo := 0; lo < len(b.Rows); lo += batch {
		hi := min(lo+batch, len(b.Rows))
		vals := &sqlparser.Values{Rows: make([][]sqlparser.Expr, 0, hi-lo)}
		for _, row := range b.Rows[lo:hi] {
			exprs := make([]sqlparser.Expr, len(row))
			for j, v := range row {
				sv, err := sqltypes.FromGo(v)
				if err != nil {
					return fmt.Errorf("batch value: %w", err)
				}
				exprs[j] = litVal(sv)
			}
			vals.Rows = append(vals.Rows, exprs)
		}
		if _, err := c.runStmt(ctx, &sqlparser.InsertStmt{Table: name, Source: vals}); err != nil {
			return err
		}
	}
	return nil
}

// gatherShard accumulates shard s's pending message tables into its
// partition delta and drops them.
func (r *shardedRun) gatherShard(ctx context.Context, s int) (int64, error) {
	names := r.pending[s]
	if len(names) == 0 {
		return 0, nil
	}
	res, err := r.conns[s].runStmt(ctx, r.pl.gatherStmt(s, names))
	if err != nil {
		return 0, fmt.Errorf("gather shard %d: %w", s, err)
	}
	for _, n := range names {
		if _, err := r.conns[s].runStmt(ctx, dropTable(n)); err != nil {
			return 0, err
		}
	}
	r.pending[s] = nil
	return res.RowsAffected, nil
}

// drainGather delivers every pending message into the partition deltas
// (gathers create no new messages, so one wave suffices). The accepted
// changes are credited to lastGather so the next compute cannot take
// its quiet fast path past them.
func (r *shardedRun) drainGather(ctx context.Context) (int64, error) {
	changes := make([]int64, len(r.conns))
	err := r.forEach(func(s int) error {
		ch, err := r.gatherShard(ctx, s)
		if err != nil {
			return err
		}
		changes[s] = ch
		r.lastGather[s] += ch
		return nil
	})
	var total int64
	for _, c := range changes {
		total += c
	}
	return total, err
}

// pendingEmpty reports whether any shard still has undelivered
// messages.
func (r *shardedRun) pendingEmpty() bool {
	for _, p := range r.pending {
		if len(p) > 0 {
			return false
		}
	}
	return true
}

// maybeRebalance consumes a pending topology request and, between
// rounds, repartitions the working table onto the new shard count:
// drain in-flight messages (the same soft barrier a checkpoint uses),
// read every partition, split/merge the PARTHASH ranges by re-routing
// every row under the new count, ship each bucket through the batch
// codec, swap the group membership (standbys activate on growth,
// trailing shards retire to the standby pool on shrink), rebuild the
// per-partition plan and checkpoint the new topology immediately.
// Reports whether a checkpoint was just written so the caller's
// due-save can skip.
func (r *shardedRun) maybeRebalance(ctx context.Context, round int) (bool, error) {
	S := len(r.conns)
	newS := r.g.takeRebalance(round)
	if newS == 0 || newS == S {
		return false, nil
	}
	if newS < 1 {
		return false, fmt.Errorf("core: cannot rebalance to %d shards", newS)
	}
	start := time.Now()
	if _, err := r.drainGather(ctx); err != nil {
		return false, err
	}

	// Read each partition's complete rows (public columns plus the AVG
	// accumulators), route every row under the new count and encode each
	// (source, destination) bucket for the wire.
	batches := make([]shard.Batch, S)
	if err := r.forEach(func(s int) error {
		res, err := r.conns[s].runStmt(ctx, &sqlparser.SelectStmt{Body: selectStar(r.pl.partName(s))})
		if err != nil {
			return fmt.Errorf("rebalance read on shard %d: %w", s, err)
		}
		batches[s] = shard.Batch{Columns: res.Columns, Rows: res.Rows}
		return nil
	}); err != nil {
		return false, err
	}
	outbound := make([][][]byte, S)
	var moved int64
	for s := 0; s < S; s++ {
		parts, err := shard.Route(batches[s], 0, newS)
		if err != nil {
			return false, fmt.Errorf("rebalance route from shard %d: %w", s, err)
		}
		outbound[s] = make([][]byte, newS)
		for d := 0; d < newS; d++ {
			outbound[s][d] = shard.EncodeBatch(parts[d])
			if d != s {
				moved += int64(len(parts[d].Rows))
			}
		}
	}

	partCols := append([]string(nil), r.pl.cols...)
	if r.pl.avg {
		partCols = append(partCols, avgSumCol, avgCntCol)
	}
	rUser := strings.ToLower(r.cte.Name)

	// Retiring shards shed their working objects before leaving (their
	// rows are already captured in the outbound buckets).
	for s := newS; s < S; s++ {
		c := r.conns[s]
		for _, name := range r.pending[s] {
			if _, err := c.runStmt(ctx, dropTable(name)); err != nil {
				return false, err
			}
		}
		for _, st := range []sqlparser.Statement{
			dropView(rUser), dropView(r.pl.rQL), dropTable(r.pl.rQL),
			dropTable(r.pl.partName(s)), dropTable(mjoinTableName(r.pl.tok, r.cte.Name)),
		} {
			if _, err := c.runStmt(ctx, st); err != nil {
				return false, fmt.Errorf("rebalance retire shard %d: %w", s, err)
			}
		}
	}

	added, _, err := r.g.resize(newS)
	if err != nil {
		return false, err
	}
	if newS < S {
		for _, cl := range r.closers[newS:] {
			_ = cl()
		}
		r.conns = r.conns[:newS]
		r.closers = r.closers[:newS]
	}
	for i, sh := range added {
		if err := r.connectShard(ctx, sh); err != nil {
			return false, fmt.Errorf("core: rebalance shard %d connection: %w", S+i, err)
		}
	}

	// Rebuild the plan at the new partition count; every PARTHASH
	// predicate, gather filter and priority query downstream picks the
	// new count up from here.
	r.pl = newPlan(r.cte, r.an, r.cols, newS, r.tok, !r.g.opts.DisableMaterialization)
	r.pending = make([][]string, newS)
	r.lastGather = make([]int64, newS)
	// A fresh topology disables the quiet-shard fast path for one round:
	// every delta already rides inside the moved rows, and the next
	// message wave must re-derive activity from them.
	r.computed = make([]bool, newS)
	r.rounds = fillRounds(make([]int, newS), round)

	if err := r.forEach(func(d int) error {
		c := r.conns[d]
		fresh := d >= S
		if fresh {
			// A standby may hold stale user-visible objects from earlier
			// runs, like any shard at startup.
			if _, err := c.runStmt(ctx, dropView(rUser)); err != nil {
				return err
			}
			if _, err := c.runStmt(ctx, dropTable(rUser)); err != nil {
				return err
			}
		}
		for _, st := range []sqlparser.Statement{
			dropView(r.pl.rQL), dropTable(r.pl.rQL),
			dropTable(r.pl.partName(d)),
			createAnyTable(r.pl.partName(d), partCols, true),
		} {
			if _, err := c.runStmt(ctx, st); err != nil {
				return fmt.Errorf("rebalance rebuild on shard %d: %w", d, err)
			}
		}
		for s := 0; s < S; s++ {
			b, err := shard.DecodeBatch(outbound[s][d])
			if err != nil {
				return fmt.Errorf("rebalance decode on shard %d: %w", d, err)
			}
			if err := r.insertRows(ctx, c, r.pl.partName(d), b.Rows); err != nil {
				return fmt.Errorf("rebalance insert on shard %d: %w", d, err)
			}
		}
		if _, err := c.runStmt(ctx, &sqlparser.CreateViewStmt{
			Name: r.pl.rQL, Body: r.localViewBody(d)}); err != nil {
			return err
		}
		publishAdvisoryView(ctx, c, rUser, r.pl.rQL)
		if fresh && r.pl.materialized {
			for _, st := range r.pl.mjoinStmts() {
				if _, err := c.runStmt(ctx, st); err != nil {
					return fmt.Errorf("rebalance materializing join on shard %d: %w", d, err)
				}
			}
		}
		return nil
	}); err != nil {
		return false, err
	}

	ep := r.g.epoch.Add(1)
	r.stats.Rebalances++
	r.g.metrics.Counter("sqloop_shard_rebalances_total").Inc()
	r.g.tracer.Emit(obs.ShardRebalance{Round: round, From: S, To: newS,
		Epoch: ep, Rows: moved, Duration: time.Since(start)})

	// Checkpoint the new topology immediately so a crash from here on
	// resumes at the new shard count rather than re-routing again.
	if err := r.saveCkpt(ctx, round); err != nil {
		return false, err
	}
	return true, nil
}

// maybeHandoff offloads the slowest shard's pending delta queue after a
// prioritized cycle: its undelivered owned rows ship to the fastest
// shard, which pre-combines them per id with the aggregate's own
// combine rule (exactly what the straggler's gather would compute), and
// the combined rows ship back as a single message table replacing the
// queue. Correct because the exchange already routed away every
// foreign-owned row when each message table was created — a shard's
// pending queue holds only rows its own gather would read — and the
// gather's combine is associative (MIN/MAX fold, SUM/COUNT add, AVG
// ships as SUM+COUNT).
func (r *shardedRun) maybeHandoff(ctx context.Context, cycle int, durs []time.Duration) error {
	S := len(r.conns)
	if S < 2 {
		return nil
	}
	worst, best := -1, -1
	for s := 0; s < S; s++ {
		if len(r.pending[s]) > 1 && (worst < 0 || durs[s] > durs[worst]) {
			worst = s
		}
	}
	if worst < 0 {
		return nil
	}
	for s := 0; s < S; s++ {
		if s != worst && (best < 0 || durs[s] < durs[best]) {
			best = s
		}
	}
	if best < 0 {
		return nil
	}
	msgCols := r.pl.msgCols()
	batches := make([]shard.Batch, 0, len(r.pending[worst]))
	for _, name := range r.pending[worst] {
		sel := &sqlparser.Select{
			From:  []sqlparser.TableExpr{tbl(name)},
			Where: eq(col("", msgPartCol), intLit(int64(worst))),
		}
		for _, c := range msgCols {
			sel.Items = append(sel.Items, item(col("", c), c))
		}
		res, err := r.conns[worst].runStmt(ctx, &sqlparser.SelectStmt{Body: sel})
		if err != nil {
			return fmt.Errorf("handoff read on shard %d: %w", worst, err)
		}
		batches = append(batches, shard.Batch{Columns: msgCols, Rows: res.Rows})
	}
	all, err := shard.Merge(batches...)
	if err != nil {
		return fmt.Errorf("handoff merge: %w", err)
	}
	if len(all.Rows) == 0 {
		return nil
	}

	// Ship to the helper through the codec and combine per id there.
	in, err := shard.DecodeBatch(shard.EncodeBatch(all))
	if err != nil {
		return fmt.Errorf("handoff decode on shard %d: %w", best, err)
	}
	inName := msgTableName(r.pl.tok, r.cte.Name, r.nameSeq.Add(1))
	if err := r.insertBatch(ctx, r.conns[best], inName, in); err != nil {
		return fmt.Errorf("handoff insert on shard %d: %w", best, err)
	}
	comb := &sqlparser.Select{
		Items:   []sqlparser.SelectItem{item(col("", "id"), "id")},
		From:    []sqlparser.TableExpr{tbl(inName)},
		GroupBy: []sqlparser.Expr{col("", "id")},
	}
	switch r.an.AggName {
	case "MIN", "MAX":
		comb.Items = append(comb.Items, item(fn(r.an.AggName, col("", "val")), "val"))
	default: // SUM, COUNT and AVG all ship additive partials
		comb.Items = append(comb.Items, item(fn("SUM", col("", "val")), "val"))
	}
	if r.pl.avg {
		comb.Items = append(comb.Items, item(fn("SUM", col("", "cnt")), "cnt"))
	}
	comb.Items = append(comb.Items, item(intLit(int64(worst)), msgPartCol))
	res, err := r.conns[best].runStmt(ctx, &sqlparser.SelectStmt{Body: comb})
	if err != nil {
		return fmt.Errorf("handoff combine on shard %d: %w", best, err)
	}
	if _, err := r.conns[best].runStmt(ctx, dropTable(inName)); err != nil {
		return err
	}

	// Ship the combined queue back and swap it in for the old tables.
	out, err := shard.DecodeBatch(shard.EncodeBatch(shard.Batch{Columns: msgCols, Rows: res.Rows}))
	if err != nil {
		return fmt.Errorf("handoff decode on shard %d: %w", worst, err)
	}
	outName := msgTableName(r.pl.tok, r.cte.Name, r.nameSeq.Add(1))
	if err := r.insertBatch(ctx, r.conns[worst], outName, out); err != nil {
		return fmt.Errorf("handoff return on shard %d: %w", worst, err)
	}
	old := r.pending[worst]
	r.pending[worst] = []string{outName}
	for _, name := range old {
		if _, err := r.conns[worst].runStmt(ctx, dropTable(name)); err != nil {
			return err
		}
	}
	r.stats.Handoffs++
	r.g.metrics.Counter("sqloop_shard_handoffs_total").Inc()
	r.g.tracer.Emit(obs.ShardHandoff{Round: cycle, From: worst, To: best,
		Tables: len(old), Rows: int64(len(all.Rows))})
	return nil
}

// termKindString mirrors terminator.kindString for coordinator-emitted
// events.
func (r *shardedRun) termKindString() string {
	switch r.cte.Until.Kind {
	case sqlparser.TermIterations:
		return "iterations"
	case sqlparser.TermUpdates:
		return "updates"
	default:
		return "expr"
	}
}

func (r *shardedRun) emitTermCheck(round int, updated int64, satisfied bool) {
	r.g.tracer.Emit(obs.TerminationCheck{Round: round, Kind: r.termKindString(),
		Updated: updated, Satisfied: satisfied})
}

// checkExprMerged evaluates the decomposed UNTIL aggregate: the same
// single-aggregate query runs on every shard's local partition (through
// the rQL view), the partials merge per §V-D, and the merged value
// feeds the original comparison. Fresh AST nodes are built per check so
// no shared statement tree is ever mutated.
func (r *shardedRun) checkExprMerged(ctx context.Context) (bool, error) {
	aggStmt := func(aggName string, arg sqlparser.Expr, star bool) *sqlparser.SelectStmt {
		fc := &sqlparser.FuncCall{Name: aggName, Star: star}
		if !star {
			fc.Args = []sqlparser.Expr{sqlparser.CloneExpr(arg)}
		}
		sel := &sqlparser.Select{
			Items: []sqlparser.SelectItem{item(fc, "")},
			From:  []sqlparser.TableExpr{&sqlparser.TableName{Name: r.pl.rQL, Alias: r.tp.alias}},
		}
		if r.tp.where != nil {
			sel.Where = sqlparser.CloneExpr(r.tp.where)
		}
		return &sqlparser.SelectStmt{Body: sel}
	}
	runAgg := func(aggName string, arg sqlparser.Expr, star bool) ([]float64, []bool, error) {
		vals := make([]float64, len(r.conns))
		oks := make([]bool, len(r.conns))
		err := r.forEach(func(s int) error {
			c := r.conns[s]
			v, ok, err := c.scalar(ctx, sqlparser.FormatDialect(aggStmt(aggName, arg, star), c.dialect))
			if err != nil {
				return fmt.Errorf("termination check on shard %d: %w", s, err)
			}
			vals[s], oks[s] = v, ok
			return nil
		})
		return vals, oks, err
	}

	var merged float64
	switch r.tp.agg {
	case "AVG":
		// AVG does not merge; ship (SUM, COUNT) and divide at the
		// coordinator, the same decomposition the message path uses.
		sums, soks, err := runAgg("SUM", r.tp.arg, false)
		if err != nil {
			return false, err
		}
		cnts, _, err := runAgg("COUNT", r.tp.arg, false)
		if err != nil {
			return false, err
		}
		var sum, cnt float64
		for s := range sums {
			if soks[s] {
				sum += sums[s]
			}
			cnt += cnts[s]
		}
		if cnt <= 0 {
			return false, nil // AVG over no rows is NULL: not satisfied
		}
		merged = sum / cnt
	case "MIN", "MAX":
		vals, oks, err := runAgg(r.tp.agg, r.tp.arg, false)
		if err != nil {
			return false, err
		}
		found := false
		for s := range vals {
			if !oks[s] {
				continue // NULL on an empty shard contributes nothing
			}
			if !found ||
				(r.tp.agg == "MIN" && vals[s] < merged) ||
				(r.tp.agg == "MAX" && vals[s] > merged) {
				merged = vals[s]
				found = true
			}
		}
		if !found {
			return false, nil // all shards NULL: not satisfied
		}
	default: // SUM, COUNT
		vals, oks, err := runAgg(r.tp.agg, r.tp.arg, r.tp.star)
		if err != nil {
			return false, err
		}
		found := false
		for s := range vals {
			if oks[s] {
				merged += vals[s]
				found = true
			}
		}
		if r.tp.agg == "SUM" && !found {
			return false, nil // SUM over no rows anywhere is NULL
		}
	}
	cmp, err := sqltypes.CompareSQL(r.tp.cmpOp, sqltypes.NewFloat(merged), r.tp.cmpTo)
	if err != nil {
		return false, err
	}
	return cmp.IsTrue(), nil
}

// driveSync is the sharded Synchronous Execution: compute on every
// shard concurrently, barrier, exchange remote deltas, gather on every
// shard concurrently, barrier, then the merged termination check.
func (r *shardedRun) driveSync(ctx context.Context) error {
	term := r.cte.Until
	iters := r.startRound
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if iters >= r.g.opts.MaxIterations {
			return fmt.Errorf("core: iterative CTE %s exceeded %d iterations", r.cte.Name, r.g.opts.MaxIterations)
		}
		S := len(r.conns) // a rebalance changes it between rounds
		iters++
		r.rt.begin(iters)
		var roundChanged int64
		msgs := make([]string, S)
		changes := make([]int64, S)
		durs := make([]time.Duration, S)

		if err := r.forEach(func(s int) error {
			t0 := time.Now()
			ch, msg, err := r.computeShard(ctx, s, r.lastGather[s])
			changes[s], msgs[s], durs[s] = ch, msg, time.Since(t0)
			return err
		}); err != nil {
			return err
		}
		for s := 0; s < S; s++ {
			roundChanged += changes[s]
			if msgs[s] != "" {
				r.stats.MessageTables++
				r.rt.msgTables(1)
			}
			r.rt.task(obs.PartitionDone{Round: iters, Part: s, Phase: "compute",
				Changed: changes[s], Duration: durs[s]})
		}

		if err := r.exchange(ctx, iters, msgs); err != nil {
			return err
		}

		if err := r.forEach(func(s int) error {
			t0 := time.Now()
			ch, err := r.gatherShard(ctx, s)
			changes[s], durs[s] = ch, time.Since(t0)
			return err
		}); err != nil {
			return err
		}
		for s := 0; s < S; s++ {
			roundChanged += changes[s]
			r.lastGather[s] = changes[s]
			r.rt.task(obs.PartitionDone{Round: iters, Part: s, Phase: "gather",
				Changed: changes[s], Duration: durs[s]})
		}

		r.rt.end(iters, roundChanged)
		r.stats.Iterations = iters

		var done bool
		var err error
		switch term.Kind {
		case sqlparser.TermIterations:
			done = int64(iters) >= term.N
		case sqlparser.TermUpdates:
			done = roundChanged <= term.N
		default:
			if done, err = r.checkExprMerged(ctx); err != nil {
				return err
			}
		}
		r.emitTermCheck(iters, roundChanged, done)
		if done {
			return nil
		}
		rebalanced, err := r.maybeRebalance(ctx, iters)
		if err != nil {
			return err
		}
		// Post-gather barrier: every message table has been delivered, so
		// the partition tables are the complete state. A rebalance just
		// checkpointed the new topology itself.
		if !rebalanced && r.ck.due(iters) {
			for x := range r.rounds {
				r.rounds[x] = iters
			}
			if err := r.saveCkpt(ctx, iters); err != nil {
				return err
			}
		}
	}
}

// driveAsync is the sharded Asynchronous Execution: each cycle fuses
// gather-then-compute per shard (all shards concurrent), then exchanges
// remote deltas. With prio set it becomes the prioritized variant: the
// per-shard priority query orders the shards and each shard's exchange
// happens immediately after its own cycle, so high-priority shards see
// the freshest deltas first.
func (r *shardedRun) driveAsync(ctx context.Context, prio bool) error {
	term := r.cte.Until
	iterTarget := term.N
	if iterTarget < 1 {
		iterTarget = 1
	}
	prioQuery := r.g.opts.PriorityQuery
	if prioQuery == "" {
		prioQuery = r.pl.defaultPriorityQuery()
	}
	cycle := r.startRound
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if cycle >= r.g.opts.MaxIterations {
			return fmt.Errorf("core: iterative CTE %s exceeded %d iterations", r.cte.Name, r.g.opts.MaxIterations)
		}
		S := len(r.conns) // a rebalance changes it between cycles
		cycle++
		r.rt.begin(cycle)
		var cycleChanged int64
		newMsgs := 0
		changes := make([]int64, S)
		durs := make([]time.Duration, S)

		if prio {
			order, err := r.priorityOrder(ctx, prioQuery)
			if err != nil {
				return err
			}
			// Sequential, in priority order, exchanging after every shard:
			// a later shard's gather sees the earlier shards' fresh deltas
			// within the same cycle.
			for _, s := range order {
				t0 := time.Now()
				gch, err := r.gatherShard(ctx, s)
				if err != nil {
					return err
				}
				eff := gch + r.lastGather[s]
				r.lastGather[s] = 0
				cch, msg, err := r.computeShard(ctx, s, eff)
				if err != nil {
					return err
				}
				changes[s] = gch + cch
				durs[s] = time.Since(t0)
				if msg != "" {
					newMsgs++
					r.stats.MessageTables++
					r.rt.msgTables(1)
					one := make([]string, S)
					one[s] = msg
					if err := r.exchange(ctx, cycle, one); err != nil {
						return err
					}
				}
			}
			if r.g.gopts.Handoff {
				if err := r.maybeHandoff(ctx, cycle, durs); err != nil {
					return err
				}
			}
		} else {
			msgs := make([]string, S)
			if err := r.forEach(func(s int) error {
				t0 := time.Now()
				gch, err := r.gatherShard(ctx, s)
				if err != nil {
					return err
				}
				eff := gch + r.lastGather[s]
				r.lastGather[s] = 0
				cch, msg, err := r.computeShard(ctx, s, eff)
				if err != nil {
					return err
				}
				changes[s], msgs[s], durs[s] = gch+cch, msg, time.Since(t0)
				return nil
			}); err != nil {
				return err
			}
			for s := 0; s < S; s++ {
				if msgs[s] != "" {
					newMsgs++
					r.stats.MessageTables++
					r.rt.msgTables(1)
				}
			}
			if err := r.exchange(ctx, cycle, msgs); err != nil {
				return err
			}
		}

		for s := 0; s < S; s++ {
			cycleChanged += changes[s]
			r.rt.task(obs.PartitionDone{Round: cycle, Part: s, Phase: "pair",
				Changed: changes[s], Duration: durs[s]})
		}
		r.rt.end(cycle, cycleChanged)
		r.stats.Iterations = cycle
		r.rounds = fillRounds(r.rounds, cycle)

		switch term.Kind {
		case sqlparser.TermIterations:
			if int64(cycle) >= iterTarget {
				// Deliver in-flight messages so no accumulated change is
				// silently lost (the Sync method's final gather ran too).
				if _, err := r.drainGather(ctx); err != nil {
					return err
				}
				return nil
			}
		case sqlparser.TermUpdates:
			if term.N == 0 {
				// Quiescence: nothing changed, nothing emitted, nothing in
				// flight — more cycles are provably no-ops.
				if cycleChanged == 0 && newMsgs == 0 && r.pendingEmpty() {
					return nil
				}
			} else {
				drained, err := r.drainGather(ctx)
				if err != nil {
					return err
				}
				total := cycleChanged + drained
				done := total <= term.N
				r.emitTermCheck(cycle, total, done)
				if done {
					return nil
				}
			}
		default: // decomposed TermExpr
			drained, err := r.drainGather(ctx)
			if err != nil {
				return err
			}
			done, err := r.checkExprMerged(ctx)
			if err != nil {
				return err
			}
			r.emitTermCheck(cycle, cycleChanged+drained, done)
			if done {
				return nil
			}
			if cycleChanged+drained == 0 && newMsgs == 0 {
				return fmt.Errorf("core: %s converged without satisfying its UNTIL condition", r.cte.Name)
			}
		}

		rebalanced, err := r.maybeRebalance(ctx, cycle)
		if err != nil {
			return err
		}
		if !rebalanced && r.ck.due(cycle) {
			// Same soft barrier the in-process async executor uses: drain
			// pending messages so the partitions alone carry the state.
			if _, err := r.drainGather(ctx); err != nil {
				return err
			}
			if err := r.saveCkpt(ctx, cycle); err != nil {
				return err
			}
		}
	}
}

// fillRounds sets every shard's completed-round counter (sharded cycles
// advance all shards together).
func fillRounds(rounds []int, n int) []int {
	for i := range rounds {
		rounds[i] = n
	}
	return rounds
}

// priorityOrder evaluates the priority query on every shard's partition
// and returns shard indices in descending priority. Shards whose query
// yields no value sort last but still run — every shard must advance
// every cycle for the global round count to stay meaningful.
func (r *shardedRun) priorityOrder(ctx context.Context, q string) ([]int, error) {
	type sp struct {
		s  int
		p  float64
		ok bool
	}
	sps := make([]sp, len(r.conns))
	if err := r.forEach(func(s int) error {
		text := strings.ReplaceAll(q, "$PART", r.pl.partName(s))
		v, ok, err := r.conns[s].scalar(ctx, text)
		if err != nil {
			return fmt.Errorf("priority query on shard %d: %w", s, err)
		}
		sps[s] = sp{s: s, p: v, ok: ok}
		return nil
	}); err != nil {
		return nil, err
	}
	sort.SliceStable(sps, func(i, j int) bool {
		if sps[i].ok != sps[j].ok {
			return sps[i].ok
		}
		return sps[i].p > sps[j].p
	})
	order := make([]int, len(sps))
	for i, e := range sps {
		order[i] = e.s
	}
	return order, nil
}

// mergeFinal collects every shard's partition onto shard 0 under the
// rQL name and runs the final query there.
func (r *shardedRun) mergeFinal(ctx context.Context) (*Result, error) {
	c0 := r.conns[0]
	if _, err := c0.runStmt(ctx, dropView(r.pl.rQL)); err != nil {
		return nil, err
	}
	if _, err := c0.runStmt(ctx, createAnyTable(r.pl.rQL, r.pl.cols, true)); err != nil {
		return nil, err
	}
	if _, err := c0.runStmt(ctx, insertBody(r.pl.rQL, r.localViewBody(0))); err != nil {
		return nil, err
	}
	for s := 1; s < len(r.conns); s++ {
		res, err := r.conns[s].runStmt(ctx, &sqlparser.SelectStmt{Body: r.localViewBody(s)})
		if err != nil {
			return nil, fmt.Errorf("final merge read from shard %d: %w", s, err)
		}
		if err := r.insertRows(ctx, c0, r.pl.rQL, res.Rows); err != nil {
			return nil, fmt.Errorf("final merge insert from shard %d: %w", s, err)
		}
	}
	final := retargetCTE(r.cte.Final, r.cte, r.tok)
	return c0.runStmt(ctx, &sqlparser.SelectStmt{Body: final})
}

// insertRows batch-inserts driver rows into a table on c.
func (r *shardedRun) insertRows(ctx context.Context, c *dbConn, table string, rows [][]any) error {
	const batch = 500
	for lo := 0; lo < len(rows); lo += batch {
		hi := min(lo+batch, len(rows))
		vals := &sqlparser.Values{Rows: make([][]sqlparser.Expr, 0, hi-lo)}
		for _, row := range rows[lo:hi] {
			exprs := make([]sqlparser.Expr, len(row))
			for j, v := range row {
				sv, err := sqltypes.FromGo(v)
				if err != nil {
					return err
				}
				exprs[j] = litVal(sv)
			}
			vals.Rows = append(vals.Rows, exprs)
		}
		if _, err := c.runStmt(ctx, &sqlparser.InsertStmt{Table: table, Source: vals}); err != nil {
			return err
		}
	}
	return nil
}

// cleanup drops every working object on every shard. KeepTable
// re-publishes the merged result under the user name on shard 0.
func (r *shardedRun) cleanup(ctx context.Context) {
	rUser := strings.ToLower(r.cte.Name)
	_ = r.forEach(func(s int) error {
		c := r.conns[s]
		for _, name := range r.pending[s] {
			_, _ = c.runStmt(ctx, dropTable(name))
		}
		if s == 0 && r.g.opts.KeepTable {
			materializeKeepTable(ctx, c, rUser, r.pl.rQL)
			_, _ = c.runStmt(ctx, dropView(r.pl.rQL))
		} else {
			_, _ = c.runStmt(ctx, dropView(rUser))
			_, _ = c.runStmt(ctx, dropView(r.pl.rQL))
			_, _ = c.runStmt(ctx, dropTable(r.pl.rQL))
		}
		_, _ = c.runStmt(ctx, dropTable(r.pl.partName(s)))
		_, _ = c.runStmt(ctx, dropTable(mjoinTableName(r.pl.tok, r.cte.Name)))
		return nil
	})
}

// saveCkpt writes one group snapshot: every shard's partition table
// (read over that shard's own connection) plus the per-shard round
// counters, under the group-signature key. Callers must have drained
// pending messages first.
func (r *shardedRun) saveCkpt(ctx context.Context, round int) error {
	ck := r.ck
	if ck == nil {
		return nil
	}
	start := time.Now()
	snap := &ckpt.Snapshot{
		Key: ck.key, Query: ck.query, Mode: ck.mode, Engine: ck.s.dsn,
		CTE: ck.cteName, Token: ck.token, Round: round, Partitions: r.pl.p,
		Epoch:      r.g.epoch.Load(),
		PartRounds: append([]int(nil), r.rounds...),
		Columns:    append([]string(nil), r.pl.cols...),
		CreatedAt:  time.Now().UTC(),
	}
	tables := make([]ckpt.TableState, len(r.conns))
	if err := r.forEach(func(s int) error {
		ts, err := ck.readTable(ctx, r.conns[s], r.pl.partName(s))
		if err != nil {
			return err
		}
		tables[s] = ts
		return nil
	}); err != nil {
		return err
	}
	snap.Tables = tables
	n, err := ck.store.Save(snap)
	if err != nil {
		return fmt.Errorf("checkpoint of %s at round %d: %w", ck.cteName, round, err)
	}
	elapsed := time.Since(start)
	r.g.tracer.Emit(obs.Checkpoint{CTE: ck.cteName, Round: round,
		Tables: len(snap.Tables), Bytes: n, Elapsed: elapsed})
	r.g.metrics.Counter("sqloop_checkpoints_total").Inc()
	r.g.metrics.Counter("sqloop_checkpoint_bytes_total").Add(n)
	r.g.metrics.Histogram("sqloop_checkpoint_seconds").Observe(elapsed)
	return nil
}
