package core

// The partitioned Compute/Gather executor (§V-B..§V-E) and its round
// scheduler. One scheduler runs the three schedules — Sync, Async and
// AsyncP — over partitions that live in one of two placements:
//
//   - in-process: every partition table sits in one engine; a task runs
//     on any of the Threads worker connections, and a message table is a
//     shared table that each destination's gather reads by index lookup;
//   - a shard group: partition s is the one partition shard s owns, and
//     its tasks run on shard s's pinned connection (one worker per
//     shard). A compute reads the rows other shards own out of its
//     message table, routes and encodes them (shard.Route/EncodeBatch),
//     and each destination's next gather turns them into a receive
//     table on its own connection.
//
// Everything else — dispatch, priorities, termination, checkpoints,
// rebalances — is placement-blind.

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqloop/internal/obs"
	"sqloop/internal/shard"
	"sqloop/internal/sqlparser"
	"sqloop/internal/sqltypes"
)

// msgTable is one message table a Compute task created (§V-C). Every
// partition it holds rows for keeps it in its inbox; readers counts the
// reads still owed, and the last reader drops the table on its own
// connection, so a table is never dropped while a gather reads it.
type msgTable struct {
	name    string
	src     int // the partition whose Compute created it (its shard, in a group)
	readers int // guarded by inboxes.mu
}

// inboxItem is one unread delivery: a shared message table, or an
// encoded shard.Batch of rows another shard routed here.
type inboxItem struct {
	table *msgTable
	batch []byte
}

// inboxes hold each partition's unread messages — the paper's "global
// data-structure that is visible across all SQLoop threads". A gather
// takes its partition's whole list at once, so a delivery that lands
// while it runs waits for the next gather.
type inboxes struct {
	mu    sync.Mutex
	items [][]inboxItem
	live  []*msgTable // posted and not yet dropped
}

func newInboxes(p int) *inboxes { return &inboxes{items: make([][]inboxItem, p)} }

// post delivers a message table to the partitions it holds rows for.
func (b *inboxes) post(t *msgTable, dests []int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t.readers = len(dests)
	for _, d := range dests {
		b.items[d] = append(b.items[d], inboxItem{table: t})
	}
	b.live = append(b.live, t)
}

// postBatch delivers an encoded batch of routed rows to partition x.
func (b *inboxes) postBatch(x int, batch []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.items[x] = append(b.items[x], inboxItem{batch: batch})
}

// take removes and returns everything partition x has not read yet.
func (b *inboxes) take(x int) []inboxItem {
	b.mu.Lock()
	defer b.mu.Unlock()
	items := b.items[x]
	b.items[x] = nil
	return items
}

// release ends one read of t and reports whether it was the last, in
// which case the caller drops the table and then calls dropped.
func (b *inboxes) release(t *msgTable) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	t.readers--
	return t.readers == 0
}

// dropped forgets a table its last reader has dropped.
func (b *inboxes) dropped(t *msgTable) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, l := range b.live {
		if l == t {
			b.live = append(b.live[:i], b.live[i+1:]...)
			return
		}
	}
}

// unread reports whether partition x has pending messages.
func (b *inboxes) unread(x int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.items[x]) > 0
}

// anyUnread reports whether any partition has pending messages.
func (b *inboxes) anyUnread() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, it := range b.items {
		if len(it) > 0 {
			return true
		}
	}
	return false
}

// remaining hands every table not yet dropped to cleanup.
func (b *inboxes) remaining() []*msgTable {
	b.mu.Lock()
	defer b.mu.Unlock()
	live := b.live
	b.live = nil
	return live
}

// taskResult is what a worker reports after one partition task.
type taskResult struct {
	part    int
	changed int64 // absorb + gather row changes
	msgs    int   // message tables created
	err     error
	// dur is the task's wall time on the worker connection; phase names
	// the task kind ("compute", "gather", "pair") for PartitionDone
	// events and straggler accounting.
	dur   time.Duration
	phase string
	// prio carries the refreshed partition priority (AsyncP runs the
	// priority query on the worker at the end of each task, §V-E).
	prio    float64
	hasPrio bool
	// gatherOnly marks a prioritized-scheduler gather task (it does not
	// complete a round; see driveAsync); quiet marks a compute that took
	// the quiet-partition fast path.
	gatherOnly bool
	quiet      bool
	// shipped and shipDur are the rows a group compute routed to other
	// shards and the time reading, routing and encoding them took; round
	// is the round in progress when the task was dispatched, so every
	// exchange of round k+1 follows a checkpoint due after round k.
	shipped int64
	shipDur time.Duration
	round   int
}

// workerPool runs partition tasks on pinned connections — SQLoop's
// thread pool where "each thread opens a new connection with the
// underlying database system" (§V-B). In-process any worker takes any
// task from one shared queue; pinned, worker s serves partition s alone.
type workerPool struct {
	queues  []chan func(*dbConn) taskResult
	pinned  bool
	results chan taskResult
	wg      sync.WaitGroup
}

// startWorkers starts one worker per connection.
func startWorkers(conns []*dbConn, pinned bool) *workerPool {
	p := &workerPool{pinned: pinned, results: make(chan taskResult, len(conns))}
	if pinned {
		// A partition never has two tasks in flight, so one slot per
		// queue keeps submit from blocking.
		for range conns {
			p.queues = append(p.queues, make(chan func(*dbConn) taskResult, 1))
		}
	} else {
		p.queues = []chan func(*dbConn) taskResult{make(chan func(*dbConn) taskResult)}
	}
	for i, c := range conns {
		q := p.queues[0]
		if pinned {
			q = p.queues[i]
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for task := range q {
				p.results <- task(c)
			}
		}()
	}
	return p
}

// submit queues a task for partition x.
func (p *workerPool) submit(x int, task func(*dbConn) taskResult) {
	if p.pinned {
		p.queues[x] <- task
		return
	}
	p.queues[0] <- task
}

// close stops the workers once their queued tasks are done.
func (p *workerPool) close() {
	for _, q := range p.queues {
		close(q)
	}
	p.queues = nil
	p.wg.Wait()
}

// debugAsync enables scheduler tracing (tests only).
var debugAsync = os.Getenv("SQLOOP_DEBUG") != ""

// parallelRun executes one iterative CTE with the partitioned
// Compute/Gather model.
type parallelRun struct {
	s       *SQLoop
	nameSeq atomic.Int64
	cte     *sqlparser.LoopCTEStmt
	pl      *plan
	mode    Mode
	// coord is the in-process coordinator connection (nil in a group).
	coord *dbConn
	// conns are the worker connections: Threads of them in-process, one
	// per shard in a group (conns[s] is shard s's). closers stays
	// index-aligned with conns.
	conns   []*dbConn
	closers []func() error
	pool    *workerPool
	inbox   *inboxes
	term    *terminator
	// group is the shard placement; nil for an in-process run.
	group *shardPlacement

	rt *roundTrace

	rounds []int  // per partition completed G+C rounds
	clean  []bool // async quiescence flags
	// lastGather tracks each partition's most recent gather change
	// count; with it the Compute task can prove it has nothing to emit
	// (see computeTask) and skip the message statements entirely.
	lastGather []int64
	computed   []atomic.Bool // partition has computed at least once
	priority   []float64
	hasPrio    []bool
	prioQuery  string

	// ckpt is this run's checkpoint context (nil when disabled);
	// startRound is the round the run resumes after (0 for fresh starts).
	ckpt       *ckptRun
	startRound int

	stats ExecStats
}

// init sets the run up for a plan. The caller sets s, the checkpoint
// context and, for a group, the placement, and adds the connections.
func (r *parallelRun) init(cte *sqlparser.LoopCTEStmt, pl *plan, mode Mode, tok string) {
	r.cte, r.pl, r.mode = cte, pl, mode
	// Sync has real barriers, so its rounds trace eagerly; the async
	// schedulers discover rounds at completion (lazy).
	r.rt = newRoundTrace(r.s.tracer, mode != ModeSync)
	r.term = newTerminator(cte, r.s.tracer, tok)
	r.term.rTable = pl.rQL
	r.prioQuery = r.s.opts.PriorityQuery
	if r.prioQuery == "" {
		r.prioQuery = pl.defaultPriorityQuery()
	}
	r.resetPartitions(0)
}

// resetPartitions sizes the per-partition state for the current plan,
// every partition at the given round and dirty, so each one runs again.
func (r *parallelRun) resetPartitions(round int) {
	p := r.pl.p
	r.inbox = newInboxes(p)
	r.rounds = make([]int, p)
	for x := range r.rounds {
		r.rounds[x] = round
	}
	r.clean = make([]bool, p)
	r.lastGather = make([]int64, p)
	r.computed = make([]atomic.Bool, p)
	r.priority = make([]float64, p)
	r.hasPrio = make([]bool, p)
}

// connect pins one connection to sh's engine as a worker connection.
func (r *parallelRun) connect(ctx context.Context, sh *SQLoop) error {
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

// closeConns stops the workers and releases every worker connection.
func (r *parallelRun) closeConns() {
	if r.pool != nil {
		r.pool.close()
		r.pool = nil
	}
	for _, cl := range r.closers {
		_ = cl()
	}
	r.conns, r.closers = nil, nil
}

// connOf is the connection that reaches partition x's table from the
// coordinator side (drains, priority refreshes, checkpoints, cleanup),
// which only runs with nothing in flight.
func (r *parallelRun) connOf(x int) *dbConn {
	if r.group != nil {
		return r.conns[x]
	}
	return r.coord
}

// execIterativeParallel is the entry point from execIterative.
func (s *SQLoop) execIterativeParallel(ctx context.Context, cte *sqlparser.LoopCTEStmt, an Analysis, mode Mode) (*Result, error) {
	start := time.Now()
	conn, err := s.db.Conn(ctx)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	coord := s.newConn(conn)
	defer coord.closeStmts()

	ck, err := s.newCkptRun(cte)
	if err != nil {
		return nil, err
	}
	// A parallel snapshot holds one table per partition plus each
	// partition's round counter; anything else (the partition count
	// changed, or the snapshot came from a single-mode run) is unusable.
	if ck.restoring() && (ck.resumed.Partitions != s.opts.Partitions ||
		len(ck.resumed.PartRounds) != s.opts.Partitions ||
		len(ck.resumed.Tables) != s.opts.Partitions) {
		ck.resumed = nil
	}
	tok := ck.execToken()

	rUser := strings.ToLower(cte.Name)
	rName := rTableName(tok, cte.Name)

	// Stale user-visible objects from a crashed legacy run must not
	// break this one (tokenized names cannot pre-exist).
	if _, err := coord.runStmt(ctx, dropView(rUser)); err != nil {
		return nil, err
	}
	if _, err := coord.runStmt(ctx, dropTable(rUser)); err != nil {
		return nil, err
	}

	var cols []string
	if ck.restoring() {
		cols = ck.resumed.Columns
	} else {
		// Seed R as a real table, then partition it.
		cols, err = s.seedTable(ctx, coord, cte, tok, rName, true)
		if err != nil {
			return nil, err
		}
	}
	if len(cols) <= an.DeltaItem {
		return nil, fmt.Errorf("core: CTE %s declares %d columns but the delta is item %d",
			cte.Name, len(cols), an.DeltaItem+1)
	}

	pl := newPlan(cte, an, cols, s.opts.Partitions, tok, !s.opts.DisableMaterialization)
	run := &parallelRun{s: s, coord: coord, ckpt: ck}
	run.init(cte, pl, mode, tok)
	defer run.cleanup(context.WithoutCancel(ctx))

	if ck.restoring() {
		// Resume: the partition tables come back from the snapshot (the
		// save drained every message table first, so the tables are the
		// whole state); R is re-exposed as the view over their union.
		for _, ts := range ck.resumed.Tables {
			if err := ck.restoreTable(ctx, coord, ts, true); err != nil {
				return nil, err
			}
		}
		if _, err := coord.runStmt(ctx, &sqlparser.CreateViewStmt{Name: pl.rQL, Body: pl.unionBody()}); err != nil {
			return nil, fmt.Errorf("restoring view of %s: %w", cte.Name, err)
		}
		copy(run.rounds, ck.resumed.PartRounds)
		run.startRound = ck.resumed.Round
		run.stats.Iterations = ck.resumed.Round
		ck.markResumed()
	} else {
		for _, st := range pl.partitionStmts() {
			if _, err := coord.runStmt(ctx, st); err != nil {
				return nil, fmt.Errorf("partitioning %s: %w", cte.Name, err)
			}
		}
	}
	publishAdvisoryView(ctx, coord, rUser, pl.rQL)
	if pl.materialized {
		for _, st := range pl.mjoinStmts() {
			if _, err := coord.runStmt(ctx, st); err != nil {
				return nil, fmt.Errorf("materializing join for %s: %w", cte.Name, err)
			}
		}
	}
	if err := run.term.prepare(ctx, coord); err != nil {
		return nil, err
	}

	defer run.closeConns()
	for i := 0; i < s.opts.Threads; i++ {
		if err := run.connect(ctx, s); err != nil {
			return nil, fmt.Errorf("core: worker %d connection: %w", i, err)
		}
	}
	if err := run.drive(ctx); err != nil {
		return nil, err
	}

	out, err := s.runFinal(ctx, coord, cte, tok)
	if err != nil {
		return nil, err
	}
	run.finish(start)
	out.Stats = run.stats
	return out, nil
}

// drive starts the workers and runs the schedule.
func (r *parallelRun) drive(ctx context.Context) error {
	r.pool = startWorkers(r.conns, r.group != nil)
	if r.mode == ModeSync {
		return r.driveSync(ctx)
	}
	return r.driveAsync(ctx, r.mode == ModeAsyncPrio)
}

// finish stamps the run's statistics after the final query.
func (r *parallelRun) finish(start time.Time) {
	r.stats.Mode = r.mode
	r.stats.Parallelized = true
	r.stats.Elapsed = time.Since(start)
	r.stats.Rounds = r.rt.rounds
	r.ckpt.finish(&r.stats)
}

// saveCkpt snapshots every partition table, each read on its own
// partition's connection, with the per-partition round counters.
// Callers must have delivered every pending message first, so the
// partition tables are the complete iterative state.
func (r *parallelRun) saveCkpt(ctx context.Context, round int) error {
	names := make([]string, r.pl.p)
	for x := range names {
		names[x] = r.pl.partName(x)
	}
	var epoch int64
	if r.group != nil {
		epoch = r.group.g.epoch.Load()
	}
	return r.ckpt.save(ctx, r.connOf, round, r.rounds, epoch, r.pl.cols, names)
}

// cleanup drops every working object.
func (r *parallelRun) cleanup(ctx context.Context) {
	for _, t := range r.inbox.remaining() {
		_, _ = r.connOf(t.src).runStmt(ctx, dropTable(t.name))
	}
	if r.group != nil {
		r.cleanupShards(ctx)
		return
	}
	for _, st := range r.pl.cleanupStmts(r.s.opts.KeepTable) {
		_, _ = r.coord.runStmt(ctx, st)
	}
	user := strings.ToLower(r.cte.Name)
	if user != r.pl.rQL {
		// Retire the advisory view regardless of KeepTable; keepStmts
		// already re-published the data under the user name.
		_, _ = r.coord.runStmt(ctx, dropView(user))
	}
	if !r.s.opts.KeepTable {
		_, _ = r.coord.runStmt(ctx, dropTable(r.pl.rQL))
	}
	_ = r.term.cleanup(ctx, r.coord)
}

// computeTask runs the three Compute steps for partition x on a worker
// connection: absorb, emit messages, reset (§V-C). gatherChanged is the
// change count of the gather that preceded this compute for x.
func (r *parallelRun) computeTask(ctx context.Context, x int, c *dbConn, gatherChanged int64) taskResult {
	res := taskResult{part: x}
	hasAbsorb := len(r.pl.valueSets) > 0
	if hasAbsorb {
		ar, err := c.runStmt(ctx, r.pl.absorbStmt(x))
		if err != nil {
			res.err = fmt.Errorf("compute(absorb) pt%d: %w", x, err)
			return res
		}
		res.changed = ar.RowsAffected
	}
	// Quiet-partition fast path: once a partition has computed, its
	// delta is reset to the identity after every compute; if the gather
	// before this compute accepted nothing and the absorb changed
	// nothing, every delta is still at the identity and the activity
	// filter would yield an empty message table — skip the statements.
	if hasAbsorb && r.computed[x].Load() && gatherChanged == 0 && res.changed == 0 {
		res.quiet = true
		return res
	}
	r.computed[x].Store(true)
	if res.err = r.emitMessages(ctx, x, c, &res); res.err != nil {
		return res
	}
	if _, err := c.runStmt(ctx, r.pl.resetStmt(x)); err != nil {
		res.err = fmt.Errorf("compute(reset) pt%d: %w", x, err)
	}
	return res
}

// emitMessages creates partition x's message table and delivers it.
// In-process the table goes, indexed on its routed part column (as
// mjoinStmts indexes src_id) so each reader's gather is a lookup, to the
// inbox of every partition it holds rows for. In a group the rows other
// shards own travel as encoded batches (see ship) and the table stays
// for x's own gather alone.
func (r *parallelRun) emitMessages(ctx context.Context, x int, c *dbConn, res *taskResult) error {
	msgName := msgTableName(r.pl.tok, r.cte.Name, r.nameSeq.Add(1))
	made, err := c.runStmt(ctx, r.pl.messageStmt(x, msgName))
	if err != nil {
		return fmt.Errorf("compute(messages) pt%d: %w", x, err)
	}
	var dests []int
	if r.group != nil {
		if made.RowsAffected > 0 {
			res.msgs = 1
			dests, err = r.ship(ctx, x, c, msgName, made.RowsAffected, res)
		}
	} else if dests, err = r.messageDestinations(ctx, c, msgName); len(dests) > 0 {
		res.msgs = 1
		if _, err = c.runStmt(ctx, r.pl.msgIndexStmt(msgName)); err != nil {
			err = fmt.Errorf("compute(messages) pt%d: %w", x, err)
		}
	}
	if err != nil {
		return err
	}
	if len(dests) == 0 {
		_, err := c.runStmt(ctx, dropTable(msgName))
		return err
	}
	r.inbox.post(&msgTable{name: msgName, src: x}, dests)
	return nil
}

// messageDestinations lists the partitions a message table holds rows
// for.
func (r *parallelRun) messageDestinations(ctx context.Context, c *dbConn, msgName string) ([]int, error) {
	q := fmt.Sprintf("SELECT DISTINCT %s FROM %s", msgPartCol, msgName)
	res, err := c.query(ctx, q)
	if err != nil {
		return nil, err
	}
	var dests []int
	for _, row := range res.Rows {
		if p, ok := row[0].(int64); ok && p >= 0 && int(p) < r.pl.p {
			dests = append(dests, int(p))
		}
	}
	return dests, nil
}

// ship reads the rows of shard x's n-row message table that other
// shards own, routes them Go-side with shard.Route — which hashes
// bit-identically to the engines' PARTHASH — and posts each owner's
// rows as an encoded batch. It returns the destinations left to read
// the table itself: x, when some of its rows are x's own.
func (r *parallelRun) ship(ctx context.Context, x int, c *dbConn, msgName string, n int64, res *taskResult) ([]int, error) {
	t0 := time.Now()
	msgCols := r.pl.msgCols()
	sel := &sqlparser.Select{
		From: []sqlparser.TableExpr{tbl(msgName)},
		Where: &sqlparser.ComparisonExpr{Op: sqltypes.CmpNE,
			Left: col("", msgPartCol), Right: intLit(int64(x))},
	}
	for _, mc := range msgCols {
		sel.Items = append(sel.Items, item(col("", mc), mc))
	}
	out, err := c.runStmt(ctx, &sqlparser.SelectStmt{Body: sel})
	if err != nil {
		return nil, fmt.Errorf("exchange read on shard %d: %w", x, err)
	}
	parts, err := shard.Route(shard.Batch{Columns: msgCols, Rows: out.Rows}, 0, r.pl.p)
	if err != nil {
		return nil, fmt.Errorf("exchange route from shard %d: %w", x, err)
	}
	for d, b := range parts {
		if d == x || len(b.Rows) == 0 {
			continue
		}
		r.inbox.postBatch(d, shard.EncodeBatch(b))
		res.shipped += int64(len(b.Rows))
	}
	res.shipDur = time.Since(t0)
	if n > int64(len(out.Rows)) {
		return []int{x}, nil
	}
	return nil, nil
}

// gatherTask accumulates partition x's unread messages into its delta.
// Batches routed from other shards first become one receive table on
// x's connection; each message table x was the last reader of is
// dropped afterwards.
func (r *parallelRun) gatherTask(ctx context.Context, x int, c *dbConn) (int64, error) {
	items := r.inbox.take(x)
	if len(items) == 0 {
		return 0, nil
	}
	var names []string
	var tables []*msgTable
	var rows [][]any
	for _, it := range items {
		if it.table != nil {
			tables = append(tables, it.table)
			names = append(names, it.table.name)
			continue
		}
		b, err := shard.DecodeBatch(it.batch)
		if err != nil {
			_ = r.releaseAll(ctx, c, tables) // the decode error is the one to report
			return 0, fmt.Errorf("exchange decode on shard %d: %w", x, err)
		}
		rows = append(rows, b.Rows...)
	}
	var rx string
	if len(rows) > 0 {
		rx = msgTableName(r.pl.tok, r.cte.Name, r.nameSeq.Add(1))
		names = append(names, rx)
	}
	var changed int64
	err := r.receive(ctx, c, rx, rows)
	if err == nil {
		var res *Result
		if res, err = c.runStmt(ctx, r.pl.gatherStmt(x, names)); err != nil {
			err = fmt.Errorf("gather pt%d: %w", x, err)
		} else {
			changed = res.RowsAffected
		}
	}
	if rx != "" {
		if _, derr := c.runStmt(ctx, dropTable(rx)); err == nil {
			err = derr
		}
	}
	if derr := r.releaseAll(ctx, c, tables); err == nil {
		err = derr
	}
	return changed, err
}

// receive materializes routed rows as the receive table rx.
func (r *parallelRun) receive(ctx context.Context, c *dbConn, rx string, rows [][]any) error {
	if rx == "" {
		return nil
	}
	if _, err := c.runStmt(ctx, createAnyTable(rx, r.pl.msgCols(), false)); err != nil {
		return fmt.Errorf("exchange receive: %w", err)
	}
	if err := insertRows(ctx, c, rx, rows); err != nil {
		return fmt.Errorf("exchange receive: %w", err)
	}
	return nil
}

// releaseAll ends this gather's read of each table, dropping the ones
// it was the last reader of.
func (r *parallelRun) releaseAll(ctx context.Context, c *dbConn, tables []*msgTable) error {
	var first error
	for _, t := range tables {
		if !r.inbox.release(t) {
			continue
		}
		if _, err := c.runStmt(ctx, dropTable(t.name)); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		r.inbox.dropped(t)
	}
	return first
}

// drain delivers every pending message into its partition's delta from
// the coordinator side (gathers create no messages, so one pass
// suffices). The accepted changes are credited to lastGather so the
// next compute cannot take its quiet fast path past them, and a
// partition that accepted any has work again.
func (r *parallelRun) drain(ctx context.Context) (int64, error) {
	var total int64
	for x := 0; x < r.pl.p; x++ {
		if !r.inbox.unread(x) {
			continue
		}
		ch, err := r.gatherTask(ctx, x, r.connOf(x))
		if err != nil {
			return total, err
		}
		total += ch
		if ch > 0 {
			r.lastGather[x] += ch
			r.clean[x] = false
		}
	}
	return total, nil
}

// noteTask records a finished task: its PartitionDone event, message
// tables and, for a group compute, its ShardExchange.
func (r *parallelRun) noteTask(round int, res taskResult) {
	r.rt.task(obs.PartitionDone{Round: round, Part: res.part,
		Phase: res.phase, Changed: res.changed, Duration: res.dur})
	r.rt.msgTables(res.msgs)
	r.stats.MessageTables += res.msgs
	if res.shipped > 0 {
		r.group.crossRows += res.shipped
		r.s.metrics.Counter("sqloop_shard_rows_exchanged").Add(res.shipped)
		r.s.tracer.Emit(obs.ShardExchange{Round: res.round, Shard: res.part,
			Rows: res.shipped, Tables: 1, Duration: res.shipDur})
	}
}

// rebalanceDue reports the shard count a group should repartition to
// after round, or 0.
func (r *parallelRun) rebalanceDue(round int) int {
	if r.group == nil {
		return 0
	}
	if n := r.group.g.takeRebalance(round); n != r.pl.p {
		return n
	}
	return 0
}

// driveSync is the Synchronous Execution (§V-E): phase one runs every
// Compute task, a barrier, phase two every Gather task, a barrier, then
// the termination check.
func (r *parallelRun) driveSync(ctx context.Context) error {
	iters := r.startRound
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if iters >= r.s.opts.MaxIterations {
			return fmt.Errorf("core: iterative CTE %s exceeded %d iterations", r.cte.Name, r.s.opts.MaxIterations)
		}
		iters++
		r.rt.begin(iters)
		var roundChanged int64

		// Phase 1: Compute on every partition, then the barrier.
		compute := func(x int) func(*dbConn) taskResult {
			return func(c *dbConn) taskResult {
				t0 := time.Now()
				res := r.computeTask(ctx, x, c, r.lastGather[x])
				res.dur, res.phase, res.round = time.Since(t0), "compute", iters
				return res
			}
		}
		if err := r.runPhase(compute, func(res taskResult) {
			roundChanged += res.changed
			r.noteTask(iters, res)
		}); err != nil {
			return err
		}

		// Phase 2: Gather on every partition, then the barrier.
		gather := func(x int) func(*dbConn) taskResult {
			return func(c *dbConn) taskResult {
				t0 := time.Now()
				ch, err := r.gatherTask(ctx, x, c)
				return taskResult{part: x, changed: ch, err: err,
					dur: time.Since(t0), phase: "gather"}
			}
		}
		if err := r.runPhase(gather, func(res taskResult) {
			roundChanged += res.changed
			r.lastGather[res.part] = res.changed
			r.noteTask(iters, res)
		}); err != nil {
			return err
		}

		r.rt.end(iters, roundChanged)
		done, err := r.term.satisfied(ctx, r.coord, iters, roundChanged)
		if err != nil {
			return err
		}
		r.stats.Iterations = iters
		if done {
			return nil
		}
		// Post-gather barrier: every message has been read and its table
		// dropped, so the partition tables are the full state. A
		// rebalance checkpoints the new topology itself.
		for x := range r.rounds {
			r.rounds[x] = iters
		}
		if n := r.rebalanceDue(iters); n > 0 {
			if err := r.rebalance(ctx, iters, n); err != nil {
				return err
			}
		} else if r.ckpt.due(iters) {
			if err := r.saveCkpt(ctx, iters); err != nil {
				return err
			}
		}
		// Round boundary (post-gather barrier): hand the scheduler slot
		// to any waiting execution before the next round.
		if err := yieldRound(ctx); err != nil {
			return err
		}
	}
}

// runPhase dispatches one task per partition and waits for all of them
// (the explicit barrier of the Sync method). Tasks are fed from a helper
// goroutine so the coordinator can drain results while feeding — with
// more partitions than workers the two would otherwise deadlock.
func (r *parallelRun) runPhase(mk func(int) func(*dbConn) taskResult, onDone func(taskResult)) error {
	// The feeder may still be leaving its loop when the last result
	// arrives, so it reads nothing a rebalance after the phase rewrites.
	p, pool := r.pl.p, r.pool
	go func() {
		for x := 0; x < p; x++ {
			pool.submit(x, mk(x))
		}
	}()
	var firstErr error
	for i := 0; i < p; i++ {
		res := <-r.pool.results
		if res.err != nil && firstErr == nil {
			firstErr = res.err
			continue
		}
		onDone(res)
	}
	return firstErr
}

// driveAsync is the Asynchronous Execution (§V-E): each partition task
// is Gather-then-Compute, so freshly produced intermediate results are
// consumed immediately; no barrier separates iterations. With prio set
// it becomes the Prioritized Asynchronous Execution: the next partition
// is the one whose pending change matters most, kept current by every
// task that changes it (§V-E).
func (r *parallelRun) driveAsync(ctx context.Context, prio bool) error {
	if prio {
		if err := r.refreshPriorities(ctx); err != nil {
			return err
		}
	}

	inflight := make([]bool, r.pl.p)
	inflightCount := 0
	// idle marks in-flight AsyncP computes dispatched to a partition
	// that signalled no work (see pick); idleCount counts them.
	idle := make([]bool, r.pl.p)
	idleCount := 0
	next := 0 // round-robin cursor
	var roundChanged int64
	lastRound := r.startRound
	taskErr := error(nil)
	done := false
	// Expression- and count-based conditions need a stable view of R:
	// when a round completes, dispatch pauses (a soft barrier), in-flight
	// tasks drain, the condition is evaluated, then dispatch resumes.
	needsBarrier := r.term.term.Kind == sqlparser.TermExpr ||
		(r.term.term.Kind == sqlparser.TermUpdates && r.term.term.N > 0)
	checkPending := false
	// A round boundary alone does not make a check sound: the slowest
	// partition can advance twice while the partitions holding the
	// pending change do not run at all (a starved worker's task
	// finishing late, then a quick no-op round), and a condition over R
	// would then read "no change" with the change still in Delta. So a
	// due check (checkDue) waits until every partition that has work has
	// completed a Compute since the previous check (computedSince).
	checkDue := false
	computedSince := make([]bool, r.pl.p)
	hasWork := func(x int) bool {
		if r.inbox.unread(x) {
			return true
		}
		if prio {
			return r.hasPrio[x]
		}
		return !r.clean[x]
	}
	settled := func() bool {
		for x, ok := range computedSince {
			if !ok && hasWork(x) {
				return false
			}
		}
		return true
	}
	// Checkpoints and rebalances reuse the same soft-barrier machinery:
	// when one comes due at a round boundary, dispatch pauses, in-flight
	// tasks drain, pending messages are delivered into the deltas, and
	// the partition tables alone are the complete state.
	ckptPending := false
	rebalanceTo := 0

	// Every partition runs at least one round even for UNTIL 0
	// ITERATIONS, matching the single-threaded executor.
	iterTarget := r.term.term.N
	if iterTarget < 1 {
		iterTarget = 1
	}

	iterBounded := r.term.term.Kind == sqlparser.TermIterations
	// eligible reports whether partition x may be scheduled now.
	eligible := func(x int) bool {
		if inflight[x] {
			return false
		}
		if iterBounded && int64(r.rounds[x]) >= iterTarget {
			return false
		}
		return true
	}
	// owes reports whether partition x holds the current round open.
	// Iteration-bounded runs need every partition to run every round;
	// otherwise only a partition with a task in flight or work pending
	// does — one with neither would only run no-op tasks, so it counts
	// as caught up with the round.
	owes := func(x int) bool { return iterBounded || inflight[x] || hasWork(x) }

	// pick selects the next partition and, for the prioritized
	// scheduler, the task kind: gathers for partitions with pending
	// messages come first (they are cheap and reveal true priorities),
	// then the highest-priority Compute.
	const (
		taskPair = iota
		taskGather
		taskCompute
		taskIdle // a Compute for a partition that signalled no work
	)
	pick := func() (int, int, bool) {
		if prio {
			for x := 0; x < r.pl.p; x++ {
				if !inflight[x] && r.inbox.unread(x) {
					return x, taskGather, true
				}
			}
			best, found := -1, false
			bestPrio := 0.0
			for x := 0; x < r.pl.p; x++ {
				if !eligible(x) {
					continue
				}
				if !r.hasPrio[x] {
					continue
				}
				if p := r.priority[x]; !found || p > bestPrio {
					best, bestPrio, found = x, p, true
				}
			}
			if found {
				return best, taskCompute, true
			}
			// Iteration-bounded runs must still complete every
			// partition's rounds even when priorities signal no work,
			// but only once no real work is in flight: an idle round
			// spent while another partition's task may still send it
			// messages would use up the round budget those messages
			// need, leaving them unabsorbed in the delta when the run
			// ends. The laggard goes first so rounds complete in order.
			if iterBounded && idleCount == inflightCount {
				lag := -1
				for x := 0; x < r.pl.p; x++ {
					if eligible(x) && (lag < 0 || r.rounds[x] < r.rounds[lag]) {
						lag = x
					}
				}
				if lag >= 0 {
					return lag, taskIdle, true
				}
			}
			return -1, 0, false
		}
		for i := 0; i < r.pl.p; i++ {
			x := (next + i) % r.pl.p
			if !eligible(x) {
				continue
			}
			// A clean partition with no pending messages is a proven
			// no-op; skipping it lets the pool drain so quiescence can
			// be judged. Iteration-bounded runs still count every round.
			if !iterBounded && r.clean[x] && !r.inbox.unread(x) {
				continue
			}
			next = (x + 1) % r.pl.p
			return x, taskPair, true
		}
		return -1, 0, false
	}

	dispatch := func(x, kind int) {
		inflight[x] = true
		inflightCount++
		round := lastRound + 1
		r.pool.submit(x, func(c *dbConn) taskResult {
			t0 := time.Now()
			var res taskResult
			switch kind {
			case taskPair:
				gch, err := r.gatherTask(ctx, x, c)
				if err != nil {
					return taskResult{part: x, err: err}
				}
				res = r.computeTask(ctx, x, c, gch)
				res.changed += gch
				res.phase = "pair"
			case taskGather:
				// The prioritized scheduler runs Gather and Compute as
				// separate tasks (§V-E, Fig. 3): delivering pending
				// messages first and re-evaluating the priority in
				// between keeps the priority queue honest — a fused task
				// would absorb and reset freshly delivered candidates
				// before the scheduler ever saw their priority. The
				// gather refreshes x's priority on the worker ("SQLoop
				// updates the priority at the end of each task by
				// scanning the correlated partition", §V-E) unless it
				// accepted nothing. Reading the cache in the worker is
				// safe: partition tasks serialize, and the coordinator
				// only writes it while no task for x is in flight.
				gch, err := r.gatherTask(ctx, x, c)
				res = taskResult{part: x, changed: gch, err: err, gatherOnly: true, phase: "gather",
					prio: r.priority[x], hasPrio: r.hasPrio[x]}
				if err == nil && gch > 0 {
					res.prio, res.hasPrio, res.err = r.partitionPriority(ctx, x, c)
				}
			default:
				gch := r.lastGather[x]
				r.lastGather[x] = 0
				res = r.computeTask(ctx, x, c, gch)
				res.phase = "compute"
				// A compute resets every delta to the identity, so no
				// pending change is left to prioritize until a gather
				// brings more; the quiet fast path leaves the deltas,
				// hence the priority, as they were.
				if res.quiet {
					res.prio, res.hasPrio = r.priority[x], r.hasPrio[x]
				}
			}
			res.dur, res.round = time.Since(t0), round
			return res
		})
	}

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Fill free workers (unless a soft-barrier action is pending).
		for inflightCount < len(r.conns) && taskErr == nil && !done && !checkPending && !ckptPending && rebalanceTo == 0 {
			x, kind, ok := pick()
			if debugAsync {
				fmt.Printf("DBG pick x=%d kind=%d ok=%v inflight=%d done=%v hasPrio=%v\n",
					x, kind, ok, inflightCount, done, r.hasPrio)
			}
			if !ok {
				break
			}
			if kind == taskIdle {
				idle[x] = true
				idleCount++
			}
			dispatch(x, kind)
		}
		if inflightCount == 0 && taskErr == nil && (checkPending || ckptPending || rebalanceTo > 0) {
			// Soft barrier reached: deliver every pending message so the
			// deltas and partition tables hold the whole state. A
			// partition that accepted messages here has work again (drain
			// unmarks it clean), or the round-robin pick would skip it and
			// quiescence would end the run with its delta unabsorbed.
			ch, err := r.drain(ctx)
			if err != nil {
				return err
			}
			roundChanged += ch
			if checkPending {
				d, err := r.term.satisfied(ctx, r.coord, lastRound, roundChanged)
				if err != nil {
					return err
				}
				roundChanged = 0
				checkPending = false
				clear(computedSince)
				if d {
					done = true
					break
				}
			}
			if rebalanceTo > 0 {
				if err := r.rebalance(ctx, lastRound, rebalanceTo); err != nil {
					return err
				}
				rebalanceTo, ckptPending = 0, false
				inflight = make([]bool, r.pl.p)
				idle = make([]bool, r.pl.p)
				computedSince = make([]bool, r.pl.p)
				next = 0
			} else if ckptPending {
				if err := r.saveCkpt(ctx, lastRound); err != nil {
					return err
				}
				ckptPending = false
			}
			if prio {
				// The drain moved mass into deltas behind the cached
				// priorities' backs; recompute them or the scheduler
				// would wrongly conclude there is no work left.
				if err := r.refreshPriorities(ctx); err != nil {
					return err
				}
			}
			continue
		}
		if inflightCount == 0 {
			break // nothing running and nothing schedulable
		}

		res := <-r.pool.results
		if debugAsync {
			fmt.Printf("DBG task part=%d gatherOnly=%v changed=%d msgs=%d prio=%v/%v err=%v\n",
				res.part, res.gatherOnly, res.changed, res.msgs, res.prio, res.hasPrio, res.err)
		}
		inflight[res.part] = false
		inflightCount--
		if idle[res.part] {
			idle[res.part] = false
			idleCount--
		}
		if res.err != nil {
			if taskErr == nil {
				taskErr = res.err
			}
			continue
		}
		if res.gatherOnly {
			// Remember the gather outcome for the partition's next
			// Compute (its quiet-partition fast path keys off it).
			r.lastGather[res.part] += res.changed
		} else {
			r.rounds[res.part]++
			computedSince[res.part] = true
		}
		// The partition's round in progress: gather-only tasks run ahead
		// of the round they feed.
		evRound := r.rounds[res.part]
		if res.gatherOnly {
			evRound++
		}
		r.noteTask(evRound, res)
		roundChanged += res.changed

		// Quiescence bookkeeping: a task that changed nothing and
		// emitted nothing leaves its partition clean; any new messages
		// dirty everyone (they may land anywhere).
		if res.changed == 0 && res.msgs == 0 {
			r.clean[res.part] = true
		} else {
			for i := range r.clean {
				r.clean[i] = false
			}
		}

		if prio {
			r.priority[res.part] = res.prio
			r.hasPrio[res.part] = res.hasPrio
		}

		// A "round" completes when the slowest partition still holding
		// it open advances (with none left, when any partition does); it
		// advances by one per result at most.
		minRounds, maxRounds := -1, lastRound
		for x, n := range r.rounds {
			maxRounds = max(maxRounds, n)
			if owes(x) && (minRounds < 0 || n < minRounds) {
				minRounds = n
			}
		}
		if minRounds < 0 {
			minRounds = maxRounds
		}
		if minRounds > lastRound {
			lastRound++
			r.stats.Iterations = lastRound
			r.rt.end(lastRound, roundChanged)
			if needsBarrier {
				checkDue = true
			} else {
				roundChanged = 0
				if iterBounded && int64(lastRound) >= iterTarget {
					done = true
				}
			}
			if !done {
				if n := r.rebalanceDue(lastRound); n > 0 {
					rebalanceTo = n
				} else if r.ckpt.due(lastRound) {
					ckptPending = true
				}
				// Lazy round boundary: the slowest partition just
				// advanced, which is the async mode's closest analogue of
				// a barrier. Workers keep draining their in-flight tasks
				// while the coordinator waits for its slot back.
				if err := yieldRound(ctx); err != nil {
					return err
				}
			}
		}
		// A partition that does not hold the round open is caught up
		// with it: the tasks it skipped would have been no-ops.
		for x := range r.rounds {
			if !owes(x) && r.rounds[x] < lastRound {
				r.rounds[x] = lastRound
			}
		}
		if checkDue && settled() {
			checkDue = false
			checkPending = true
		}
		// Quiescence may only be judged with no tasks in flight: an
		// unprocessed result still carries priority/cleanliness updates.
		// Iteration-bounded AsyncP runs end on their round bound instead:
		// idle rounds complete them, so the round count and checkpoint
		// cadence do not depend on the schedule. A due checkpoint or
		// rebalance is taken first, even when the round that made it due
		// also quiesced the run (a partition's first Compute can be the
		// run's last act when its messages were gathered while it was
		// still in flight); the loop then ends once nothing is
		// schedulable.
		if !done && !ckptPending && rebalanceTo == 0 && inflightCount == 0 &&
			!(prio && iterBounded) && r.quiescent(prio) {
			done = true
		}
		if done && inflightCount == 0 {
			break
		}
		if lastRound >= r.s.opts.MaxIterations {
			return fmt.Errorf("core: iterative CTE %s exceeded %d iterations", r.cte.Name, r.s.opts.MaxIterations)
		}
	}
	if taskErr != nil {
		return taskErr
	}
	// Iteration-capped runs stop computing with messages still in
	// flight; deliver them so no accumulated change is silently lost
	// (the Sync method's final gather phase has the same effect).
	if done && iterBounded {
		if _, err := r.drain(ctx); err != nil {
			return err
		}
	}
	if !done && !r.quiescent(prio) {
		return fmt.Errorf("core: async execution of %s stalled before its termination condition", r.cte.Name)
	}
	// Quiescent but the declared condition never fired: only an error
	// for conditions more rounds could still satisfy.
	if !done {
		if r.term.term.Kind == sqlparser.TermExpr {
			d, err := r.term.check(ctx, r.coord, lastRound, 0)
			if err != nil {
				return err
			}
			if !d {
				return fmt.Errorf("core: %s converged without satisfying its UNTIL condition", r.cte.Name)
			}
		}
		r.stats.Iterations = lastRound
	}
	return nil
}

// quiescent reports global convergence. Round-robin scheduling runs
// every partition, so the per-task clean flags suffice; the prioritized
// scheduler deliberately skips workless partitions, so quiescence there
// means no pending messages and no partition signalling work.
func (r *parallelRun) quiescent(prio bool) bool {
	for x := range r.clean {
		if (prio && r.hasPrio[x]) || (!prio && !r.clean[x]) {
			return false
		}
	}
	return !r.inbox.anyUnread()
}

// partitionPriority evaluates the priority query for partition x on the
// given connection ("SQLoop updates the priority at the end of each
// task by scanning the correlated partition", §V-E).
func (r *parallelRun) partitionPriority(ctx context.Context, x int, c *dbConn) (float64, bool, error) {
	q := strings.ReplaceAll(r.prioQuery, "$PART", r.pl.partName(x))
	v, ok, err := c.scalar(ctx, q)
	if err != nil {
		return 0, false, fmt.Errorf("priority query for pt%d: %w", x, err)
	}
	return v, ok, nil
}

// refreshPriorities re-evaluates every partition's cached priority from
// the coordinator side (at startup and after coordinator-side drains).
func (r *parallelRun) refreshPriorities(ctx context.Context) error {
	for x := 0; x < r.pl.p; x++ {
		v, ok, err := r.partitionPriority(ctx, x, r.connOf(x))
		if err != nil {
			return err
		}
		r.priority[x], r.hasPrio[x] = v, ok
	}
	return nil
}

// insertRows batch-inserts driver rows into a table on c.
func insertRows(ctx context.Context, c *dbConn, table string, rows [][]any) error {
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
