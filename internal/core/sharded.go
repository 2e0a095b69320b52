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
// The round scheduler is the in-process one (parallel.go), with shard s
// as partition s: its tasks run on shard s's pinned connection, and the
// message rows other shards own travel as encoded batches routed with
// shard.Route, which hashes bit-identically to the engines' PARTHASH.
// This file holds what only a group has: membership, failover and
// online rebalance, the per-shard setup and final merge, and the
// termination merge — iteration counts are global, update counts sum,
// and aggregate UNTIL expressions are decomposed per §V-D (SUM/COUNT
// add, MIN/MAX fold, AVG ships as SUM+COUNT).

import (
	"context"
	"errors"
	"fmt"
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
// replicas for failover and growth, and scheduled online repartitions.
// The zero value is a plain fixed-N group.
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
	agg   string         // SUM, COUNT, MIN, MAX or AVG
	star  bool           // COUNT(*)
	arg   sqlparser.Expr // aggregate argument (nil for COUNT(*))
	alias string         // the CTE's alias inside the condition
	where sqlparser.Expr // optional row filter, references the CTE only
	cmpOp sqltypes.CompareOp
	cmpTo sqltypes.Value // numeric comparison literal
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

// shardPlacement is what a parallelRun needs to run its partitions on a
// shard group: the group, the analysis and public columns to rebuild
// the plan at a new shard count, and the decomposed UNTIL aggregate.
type shardPlacement struct {
	g         *ShardGroup
	an        Analysis
	cols      []string
	tp        *shardTermPlan // nil unless the UNTIL is a decomposed aggregate
	crossRows int64
}

// execSharded runs one iterative CTE across every shard: shard s holds
// partition s, and the in-process scheduler drives them with one pinned
// worker per shard.
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

	// The run exists before the plan does so the shard connections are
	// closed on every exit; init fills the rest in below.
	run := &parallelRun{s: loop0, ckpt: ck, group: &shardPlacement{g: g, an: an, tp: tp}}
	defer run.closeConns()
	for s, sh := range members {
		if err := run.connect(ctx, sh); err != nil {
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

	pl := newPlan(cte, an, cols, S, tok, !g.opts.DisableMaterialization)
	run.group.cols = cols
	run.init(cte, pl, mode, tok)
	if tp != nil {
		run.term.merged = run.checkExprMerged
	}
	defer run.cleanup(context.WithoutCancel(ctx))

	if ck.restoring() {
		if ck.resumed.Partitions != S {
			if err := repartitionSnapshot(ck.resumed, pl); err != nil {
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
				Name: pl.rQL, Body: run.localViewBody(s)})
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
		publishAdvisoryView(ctx, conns[s], rUser, pl.rQL)
		if pl.materialized {
			for _, st := range pl.mjoinStmts() {
				if _, err := conns[s].runStmt(ctx, st); err != nil {
					return fmt.Errorf("materializing join on shard %d: %w", s, err)
				}
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if err := run.drive(ctx); err != nil {
		return nil, err
	}
	out, err := run.mergeFinal(ctx)
	if err != nil {
		return nil, err
	}
	run.finish(start)
	run.stats.ShardCount = len(run.conns)
	run.stats.CrossShardRows = run.group.crossRows
	out.Stats = run.stats
	return out, nil
}

// repartitionSnapshot rewrites a group snapshot taken under a different
// shard count in place for the plan's: every recorded partition row is
// re-routed by its id hash under the current count (the same Route the
// live exchange uses), yielding one partition table per current shard.
// Per-row delta state rides inside the rows themselves, so re-routing
// whole rows preserves the execution state exactly.
func repartitionSnapshot(snap *ckpt.Snapshot, pl *plan) error {
	S := pl.p
	batches := make([]shard.Batch, 0, len(snap.Tables))
	var cols []string
	for _, ts := range snap.Tables {
		if cols == nil {
			cols = ts.Columns
		}
		batches = append(batches, shard.Batch{Columns: ts.Columns, Rows: ts.Rows})
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
		tables[s] = ckpt.TableState{Name: pl.partName(s), Columns: all.Columns, Rows: parts[s].Rows}
	}
	snap.Tables = tables
	snap.Partitions = S
	snap.PartRounds = make([]int, S)
	for s := range snap.PartRounds {
		snap.PartRounds[s] = snap.Round
	}
	return nil
}

// forEach runs fn concurrently for every shard index and joins the
// errors. Each invocation touches only its own shard's connection, so
// no locking is needed; callers run it with no task in flight.
func (r *parallelRun) forEach(fn func(s int) error) error {
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
func (r *parallelRun) localPartitionStmts(s int) []sqlparser.Statement {
	pl := r.pl
	sel := &sqlparser.Select{
		From:  []sqlparser.TableExpr{tbl(pl.rQL)},
		Where: eq(pl.partOf(col("", pl.idCol)), intLit(int64(s))),
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
		createAnyTable(pl.partName(s), r.partCols(), true),
		insertBody(pl.partName(s), sel),
		dropTable(pl.rQL),
		&sqlparser.CreateViewStmt{Name: pl.rQL, Body: r.localViewBody(s)},
	}
}

// partCols are a partition table's columns: the public CTE columns plus
// AVG's accumulators.
func (r *parallelRun) partCols() []string {
	cols := append([]string(nil), r.pl.cols...)
	if r.pl.avg {
		cols = append(cols, avgSumCol, avgCntCol)
	}
	return cols
}

// localViewBody selects the public CTE columns from this shard's
// partition table.
func (r *parallelRun) localViewBody(s int) sqlparser.SelectBody {
	sel := &sqlparser.Select{From: []sqlparser.TableExpr{tbl(r.pl.partName(s))}}
	for _, c := range r.pl.cols {
		sel.Items = append(sel.Items, item(col("", c), c))
	}
	return sel
}

// rebalance repartitions the working table onto newS shards at a soft
// barrier (nothing in flight, every message delivered): read every
// partition, split/merge the PARTHASH ranges by re-routing every row
// under the new count, ship each bucket through the batch codec, swap
// the group membership (standbys activate on growth, trailing shards
// retire to the standby pool on shrink), rebuild the per-partition plan
// and state, and checkpoint the new topology immediately.
func (r *parallelRun) rebalance(ctx context.Context, round, newS int) error {
	g := r.group.g
	S := len(r.conns)
	start := time.Now()

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
		return err
	}
	outbound := make([][][]byte, S)
	var moved int64
	for s := 0; s < S; s++ {
		parts, err := shard.Route(batches[s], 0, newS)
		if err != nil {
			return fmt.Errorf("rebalance route from shard %d: %w", s, err)
		}
		outbound[s] = make([][]byte, newS)
		for d := 0; d < newS; d++ {
			outbound[s][d] = shard.EncodeBatch(parts[d])
			if d != s {
				moved += int64(len(parts[d].Rows))
			}
		}
	}

	partCols := r.partCols()
	rUser := strings.ToLower(r.cte.Name)

	// Retiring shards shed their working objects before leaving (their
	// rows are already captured in the outbound buckets).
	for s := newS; s < S; s++ {
		for _, st := range []sqlparser.Statement{
			dropView(rUser), dropView(r.pl.rQL), dropTable(r.pl.rQL),
			dropTable(r.pl.partName(s)), dropTable(mjoinTableName(r.pl.tok, r.cte.Name)),
		} {
			if _, err := r.conns[s].runStmt(ctx, st); err != nil {
				return fmt.Errorf("rebalance retire shard %d: %w", s, err)
			}
		}
	}

	added, _, err := g.resize(newS)
	if err != nil {
		return err
	}
	// The workers serve the old shard set; restart them over the new one.
	r.pool.close()
	if newS < S {
		for _, cl := range r.closers[newS:] {
			_ = cl()
		}
		r.conns = r.conns[:newS]
		r.closers = r.closers[:newS]
	}
	for i, sh := range added {
		if err := r.connect(ctx, sh); err != nil {
			r.pool = startWorkers(r.conns, true)
			return fmt.Errorf("core: rebalance shard %d connection: %w", S+i, err)
		}
	}
	r.pool = startWorkers(r.conns, true)

	// Rebuild the plan at the new partition count; every PARTHASH
	// predicate, gather filter and priority query downstream picks the
	// new count up from here. A fresh topology disables the quiet-shard
	// fast path for one round: every delta already rides inside the
	// moved rows, and the next message wave must re-derive activity from
	// them.
	r.pl = newPlan(r.cte, r.group.an, r.group.cols, newS, r.pl.tok, !g.opts.DisableMaterialization)
	r.resetPartitions(round)

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
			if err := insertRows(ctx, c, r.pl.partName(d), b.Rows); err != nil {
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
		return err
	}

	ep := g.epoch.Add(1)
	r.stats.Rebalances++
	g.metrics.Counter("sqloop_shard_rebalances_total").Inc()
	g.tracer.Emit(obs.ShardRebalance{Round: round, From: S, To: newS,
		Epoch: ep, Rows: moved, Duration: time.Since(start)})

	// Checkpoint the new topology immediately so a crash from here on
	// resumes at the new shard count rather than re-routing again.
	return r.saveCkpt(ctx, round)
}

// checkExprMerged evaluates the decomposed UNTIL aggregate: the same
// single-aggregate query runs on every shard's local partition (through
// the rQL view), the partials merge per §V-D, and the merged value
// feeds the original comparison. Fresh AST nodes are built per check so
// no shared statement tree is ever mutated.
func (r *parallelRun) checkExprMerged(ctx context.Context) (bool, error) {
	tp := r.group.tp
	aggStmt := func(aggName string, arg sqlparser.Expr, star bool) *sqlparser.SelectStmt {
		fc := &sqlparser.FuncCall{Name: aggName, Star: star}
		if !star {
			fc.Args = []sqlparser.Expr{sqlparser.CloneExpr(arg)}
		}
		sel := &sqlparser.Select{
			Items: []sqlparser.SelectItem{item(fc, "")},
			From:  []sqlparser.TableExpr{&sqlparser.TableName{Name: r.pl.rQL, Alias: tp.alias}},
		}
		if tp.where != nil {
			sel.Where = sqlparser.CloneExpr(tp.where)
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
	switch tp.agg {
	case "AVG":
		// AVG does not merge; ship (SUM, COUNT) and divide at the
		// coordinator, the same decomposition the message path uses.
		sums, soks, err := runAgg("SUM", tp.arg, false)
		if err != nil {
			return false, err
		}
		cnts, _, err := runAgg("COUNT", tp.arg, false)
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
		vals, oks, err := runAgg(tp.agg, tp.arg, false)
		if err != nil {
			return false, err
		}
		found := false
		for s := range vals {
			if !oks[s] {
				continue // NULL on an empty shard contributes nothing
			}
			if !found ||
				(tp.agg == "MIN" && vals[s] < merged) ||
				(tp.agg == "MAX" && vals[s] > merged) {
				merged = vals[s]
				found = true
			}
		}
		if !found {
			return false, nil // all shards NULL: not satisfied
		}
	default: // SUM, COUNT
		vals, oks, err := runAgg(tp.agg, tp.arg, tp.star)
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
		if tp.agg == "SUM" && !found {
			return false, nil // SUM over no rows anywhere is NULL
		}
	}
	cmp, err := sqltypes.CompareSQL(tp.cmpOp, sqltypes.NewFloat(merged), tp.cmpTo)
	if err != nil {
		return false, err
	}
	return cmp.IsTrue(), nil
}

// mergeFinal collects every shard's partition onto shard 0 under the
// rQL name and runs the final query there.
func (r *parallelRun) mergeFinal(ctx context.Context) (*Result, error) {
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
		if err := insertRows(ctx, c0, r.pl.rQL, res.Rows); err != nil {
			return nil, fmt.Errorf("final merge insert from shard %d: %w", s, err)
		}
	}
	final := retargetCTE(r.cte.Final, r.cte, r.pl.tok)
	return c0.runStmt(ctx, &sqlparser.SelectStmt{Body: final})
}

// cleanupShards drops every working object on every shard. KeepTable
// re-publishes the merged result under the user name on shard 0.
func (r *parallelRun) cleanupShards(ctx context.Context) {
	rUser := strings.ToLower(r.cte.Name)
	_ = r.forEach(func(s int) error {
		c := r.conns[s]
		if s == 0 && r.s.opts.KeepTable {
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
