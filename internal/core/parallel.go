package core

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqloop/internal/obs"
	"sqloop/internal/sqlparser"
)

// msgRegistry tracks message tables (§V-C): which partitions have
// consumed which tables, and when a table may be dropped. It is the
// "global data-structure that is visible across all SQLoop threads" of
// the paper.
type msgRegistry struct {
	mu       sync.Mutex
	seq      int64
	entries  []*msgEntry
	consumed []int64 // per partition: highest seq consumed
	p        int
}

type msgEntry struct {
	seq   int64
	name  string
	refs  int    // in-flight gather tasks reading this table
	dests []bool // which partitions the table holds rows for
}

func newMsgRegistry(p int) *msgRegistry {
	return &msgRegistry{consumed: make([]int64, p), p: p}
}

// add registers a created message table, assigning its sequence number
// under the lock. Sequence numbers must be issued at registration time:
// if they were reserved before the table was built, a gather could
// advance its cursor past a still-unregistered table and lose messages.
// dests lists the partitions the table holds rows for (message tables
// carry Rid, so SQLoop can hash each id to its partition, §V-C); a
// partition with no rows in any unread table has no gather work.
func (r *msgRegistry) add(name string, dests []bool) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	r.entries = append(r.entries, &msgEntry{seq: r.seq, name: name, dests: dests})
	return r.seq
}

// unreadFor returns the message tables partition x has not consumed yet
// and pins them against garbage collection. through is the highest seq
// in the snapshot (pass to doneReading).
func (r *msgRegistry) unreadFor(x int) (names []string, through int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	through = r.consumed[x]
	for _, e := range r.entries {
		if e.seq > r.consumed[x] {
			// The cursor advances over tables with nothing for x; only
			// tables that target x are actually read.
			if e.seq > through {
				through = e.seq
			}
			if e.dests == nil || (x < len(e.dests) && e.dests[x]) {
				e.refs++
				names = append(names, e.name)
			}
		}
	}
	return names, through
}

// doneReading releases the pin and advances x's consumption cursor.
func (r *msgRegistry) doneReading(x int, names []string, through int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	for _, e := range r.entries {
		if set[e.name] {
			e.refs--
		}
	}
	if through > r.consumed[x] {
		r.consumed[x] = through
	}
}

// hasUnread reports whether partition x has pending messages.
func (r *msgRegistry) hasUnread(x int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		if e.seq > r.consumed[x] && (e.dests == nil || (x < len(e.dests) && e.dests[x])) {
			return true
		}
	}
	return false
}

// anyUnread reports whether any partition still has messages targeted
// at it that it has not consumed.
func (r *msgRegistry) anyUnread() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		for x := 0; x < r.p; x++ {
			if r.consumed[x] < e.seq && (e.dests == nil || e.dests[x]) {
				return true
			}
		}
	}
	return false
}

// garbage removes fully consumed, unpinned tables from the registry and
// returns their names for dropping.
func (r *msgRegistry) garbage() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	min := r.seq
	for _, c := range r.consumed {
		if c < min {
			min = c
		}
	}
	var drop []string
	kept := r.entries[:0]
	for _, e := range r.entries {
		droppable := e.refs == 0
		if droppable && e.seq > min {
			// Tables above the global low-water mark are still droppable
			// once every TARGETED partition has consumed them.
			for x := 0; x < r.p; x++ {
				if (e.dests == nil || e.dests[x]) && r.consumed[x] < e.seq {
					droppable = false
					break
				}
			}
		}
		if droppable {
			drop = append(drop, e.name)
		} else {
			kept = append(kept, e)
		}
	}
	r.entries = kept
	return drop
}

// remaining lists every live message table (for cleanup).
func (r *msgRegistry) remaining() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, len(r.entries))
	for i, e := range r.entries {
		names[i] = e.name
	}
	r.entries = nil
	return names
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
	// complete a round; see driveAsync).
	gatherOnly bool
}

// workerPool runs partition tasks on dedicated connections — SQLoop's
// thread pool where "each thread opens a new connection with the
// underlying database system" (§V-B).
type workerPool struct {
	tasks   chan func(*dbConn) taskResult
	results chan taskResult
	wg      sync.WaitGroup
	conns   []*dbConn
	closers []func() error
}

// newWorkerPool opens n pinned connections and starts the workers.
func newWorkerPool(ctx context.Context, s *SQLoop, n int) (*workerPool, error) {
	p := &workerPool{
		tasks:   make(chan func(*dbConn) taskResult),
		results: make(chan taskResult, n),
	}
	for i := 0; i < n; i++ {
		conn, err := s.db.Conn(ctx)
		if err != nil {
			_ = p.close()
			return nil, fmt.Errorf("core: worker %d connection: %w", i, err)
		}
		c := s.newConn(conn)
		p.conns = append(p.conns, c)
		p.closers = append(p.closers, conn.Close)
	}
	for _, c := range p.conns {
		p.wg.Add(1)
		// Capture the channel: close() nils the struct field, and a
		// not-yet-scheduled worker must still see the real channel.
		go func(c *dbConn, tasks <-chan func(*dbConn) taskResult) {
			defer p.wg.Done()
			for task := range tasks {
				p.results <- task(c)
			}
		}(c, p.tasks)
	}
	return p, nil
}

// close shuts the pool down and releases connections.
func (p *workerPool) close() error {
	if p.tasks != nil {
		close(p.tasks)
		p.tasks = nil
	}
	p.wg.Wait()
	for _, c := range p.conns {
		c.closeStmts()
	}
	var err error
	for _, cl := range p.closers {
		if e := cl(); e != nil && err == nil {
			err = e
		}
	}
	p.closers = nil
	return err
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
	coord   *dbConn
	pool    *workerPool
	msgs    *msgRegistry
	term    *terminator

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
	if tok == "" {
		if _, err := coord.runStmt(ctx, dropTable(deltaTableName(tok, cte.Name))); err != nil {
			return nil, err
		}
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
	run := &parallelRun{
		s: s, cte: cte, pl: pl, mode: mode, coord: coord,
		// Sync has real barriers, so its rounds trace eagerly; the async
		// schedulers discover rounds at completion (lazy).
		rt:         newRoundTrace(s.tracer, mode != ModeSync),
		msgs:       newMsgRegistry(pl.p),
		term:       newTerminator(cte, s.tracer, tok),
		rounds:     make([]int, pl.p),
		clean:      make([]bool, pl.p),
		lastGather: make([]int64, pl.p),
		computed:   make([]atomic.Bool, pl.p),
		priority:   make([]float64, pl.p),
		hasPrio:    make([]bool, pl.p),
	}
	run.term.rTable = pl.rQL
	run.prioQuery = s.opts.PriorityQuery
	if run.prioQuery == "" {
		run.prioQuery = pl.defaultPriorityQuery()
	}

	run.ckpt = ck
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

	pool, err := newWorkerPool(ctx, s, s.opts.Threads)
	if err != nil {
		return nil, err
	}
	run.pool = pool
	defer pool.close()

	switch mode {
	case ModeSync:
		err = run.driveSync(ctx)
	default:
		err = run.driveAsync(ctx, mode == ModeAsyncPrio)
	}
	if err != nil {
		return nil, err
	}

	out, err := s.runFinal(ctx, coord, cte, tok)
	if err != nil {
		return nil, err
	}
	run.stats.Mode = mode
	run.stats.Parallelized = true
	run.stats.Elapsed = time.Since(start)
	run.stats.Rounds = run.rt.rounds
	ck.finish(&run.stats)
	out.Stats = run.stats
	return out, nil
}

// saveParallelCkpt snapshots every partition table along with the
// per-partition round counters. Callers must guarantee the message
// registry is empty (drained) so the partition tables are the complete
// iterative state.
func (r *parallelRun) saveParallelCkpt(ctx context.Context, round int) error {
	names := make([]string, r.pl.p)
	for x := range names {
		names[x] = r.pl.partName(x)
	}
	return r.ckpt.save(ctx, r.coord, round, r.pl.p, r.rounds, r.pl.cols, names)
}

// cleanup drops every working object.
func (r *parallelRun) cleanup(ctx context.Context) {
	for _, name := range r.msgs.remaining() {
		_, _ = r.coord.runStmt(ctx, dropTable(name))
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
func (r *parallelRun) computeTask(ctx context.Context, x int, c *dbConn, gatherChanged int64) (changed int64, msgs int, err error) {
	hasAbsorb := len(r.pl.valueSets) > 0
	if hasAbsorb {
		res, err := c.runStmt(ctx, r.pl.absorbStmt(x))
		if err != nil {
			return 0, 0, fmt.Errorf("compute(absorb) pt%d: %w", x, err)
		}
		changed += res.RowsAffected
	}
	// Quiet-partition fast path: once a partition has computed, its
	// delta is reset to the identity after every compute; if the gather
	// before this compute accepted nothing and the absorb changed
	// nothing, every delta is still at the identity and the activity
	// filter would yield an empty message table — skip the statements.
	if hasAbsorb && r.computed[x].Load() && gatherChanged == 0 && changed == 0 {
		return 0, 0, nil
	}
	r.computed[x].Store(true)
	msgName := msgTableName(r.pl.tok, r.cte.Name, r.nameSeq.Add(1))
	if _, err := c.runStmt(ctx, r.pl.messageStmt(x, msgName)); err != nil {
		return 0, 0, fmt.Errorf("compute(messages) pt%d: %w", x, err)
	}
	dests, n, err := r.messageDestinations(ctx, c, msgName)
	if err != nil {
		return 0, 0, err
	}
	if n > 0 {
		// Index the routed part column (as mjoinStmts indexes src_id) so
		// each destination's Gather reads its messages by lookup.
		if _, err := c.runStmt(ctx, r.pl.msgIndexStmt(msgName)); err != nil {
			return 0, 0, fmt.Errorf("compute(messages) pt%d: %w", x, err)
		}
		r.msgs.add(msgName, dests)
		msgs = 1
	} else if _, err := c.runStmt(ctx, dropTable(msgName)); err != nil {
		return 0, 0, err
	}
	if _, err := c.runStmt(ctx, r.pl.resetStmt(x)); err != nil {
		return 0, 0, fmt.Errorf("compute(reset) pt%d: %w", x, err)
	}
	return changed, msgs, nil
}

// messageDestinations reports which partitions a message table holds
// rows for, plus how many distinct ones.
func (r *parallelRun) messageDestinations(ctx context.Context, c *dbConn, msgName string) ([]bool, int, error) {
	q := fmt.Sprintf("SELECT DISTINCT %s FROM %s", msgPartCol, msgName)
	res, err := c.query(ctx, q)
	if err != nil {
		return nil, 0, err
	}
	if len(res.Rows) == 0 {
		return nil, 0, nil
	}
	dests := make([]bool, r.pl.p)
	n := 0
	for _, row := range res.Rows {
		if p, ok := row[0].(int64); ok && p >= 0 && int(p) < r.pl.p {
			dests[p] = true
			n++
		}
	}
	return dests, n, nil
}

// gatherTask accumulates unread messages into partition x's delta.
func (r *parallelRun) gatherTask(ctx context.Context, x int, c *dbConn) (int64, error) {
	names, through := r.msgs.unreadFor(x)
	if len(names) == 0 {
		// Nothing targets x, but the cursor must still advance past the
		// irrelevant tables or they would count as unread forever.
		r.msgs.doneReading(x, nil, through)
		return 0, nil
	}
	defer r.msgs.doneReading(x, names, through)
	res, err := c.runStmt(ctx, r.pl.gatherStmt(x, names))
	if err != nil {
		return 0, fmt.Errorf("gather pt%d: %w", x, err)
	}
	return res.RowsAffected, nil
}

// collectGarbage drops fully consumed message tables.
func (r *parallelRun) collectGarbage(ctx context.Context) error {
	for _, name := range r.msgs.garbage() {
		if _, err := r.coord.runStmt(ctx, dropTable(name)); err != nil {
			return err
		}
	}
	return nil
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
				ch, msgs, err := r.computeTask(ctx, x, c, r.lastGather[x])
				return taskResult{part: x, changed: ch, msgs: msgs, err: err,
					dur: time.Since(t0), phase: "compute"}
			}
		}
		if err := r.runPhase(compute, func(res taskResult) {
			roundChanged += res.changed
			r.stats.MessageTables += res.msgs
			r.rt.msgTables(res.msgs)
			r.rt.task(obs.PartitionDone{Round: iters, Part: res.part,
				Phase: res.phase, Changed: res.changed, Duration: res.dur})
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
			r.rt.task(obs.PartitionDone{Round: iters, Part: res.part,
				Phase: res.phase, Changed: res.changed, Duration: res.dur})
		}); err != nil {
			return err
		}

		if err := r.collectGarbage(ctx); err != nil {
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
		// Post-gather barrier: every message table has been consumed and
		// collected, so the partition tables are the full state.
		if r.ckpt.due(iters) {
			for x := range r.rounds {
				r.rounds[x] = iters
			}
			if err := r.saveParallelCkpt(ctx, iters); err != nil {
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
	go func() {
		for x := 0; x < r.pl.p; x++ {
			r.pool.tasks <- mk(x)
		}
	}()
	var firstErr error
	for i := 0; i < r.pl.p; i++ {
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
// is the one whose pending change matters most, recomputed after every
// task (§V-E).
func (r *parallelRun) driveAsync(ctx context.Context, prio bool) error {
	if prio {
		for x := 0; x < r.pl.p; x++ {
			if err := r.refreshPriority(ctx, x); err != nil {
				return err
			}
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
		if r.msgs.hasUnread(x) {
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
	// Checkpoints reuse the same soft-barrier machinery: when a round
	// crosses a checkpoint boundary, dispatch pauses, in-flight tasks
	// drain, pending messages are delivered into the deltas, and the
	// partition tables are snapshotted as the complete state.
	ckptPending := false

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
				if !inflight[x] && r.msgs.hasUnread(x) {
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
			if !iterBounded && r.clean[x] && !r.msgs.hasUnread(x) {
				continue
			}
			next = (x + 1) % r.pl.p
			return x, taskPair, true
		}
		return -1, 0, false
	}

	dispatch := func(x int) {
		inflight[x] = true
		inflightCount++
		r.pool.tasks <- func(c *dbConn) taskResult {
			t0 := time.Now()
			gch, err := r.gatherTask(ctx, x, c)
			if err != nil {
				return taskResult{part: x, err: err}
			}
			cch, msgs, err := r.computeTask(ctx, x, c, gch)
			res := taskResult{part: x, changed: gch + cch, msgs: msgs, err: err, phase: "pair"}
			if prio && err == nil {
				res.prio, res.hasPrio, res.err = r.partitionPriority(ctx, x, c)
			}
			res.dur = time.Since(t0)
			return res
		}
	}

	// The prioritized scheduler runs Gather and Compute as separate
	// tasks (§V-E, Fig. 3): delivering pending messages first and
	// re-evaluating the priority in between keeps the priority queue
	// honest — a fused task would absorb and reset freshly delivered
	// candidates before the scheduler ever saw their priority.
	dispatchGather := func(x int) {
		inflight[x] = true
		inflightCount++
		// Reading the cached priority in the worker is safe: partition
		// tasks serialize, and the coordinator only writes the cache
		// while no task for x is in flight.
		r.pool.tasks <- func(c *dbConn) taskResult {
			t0 := time.Now()
			gch, err := r.gatherTask(ctx, x, c)
			res := taskResult{part: x, changed: gch, err: err, gatherOnly: true, phase: "gather"}
			if err != nil {
				res.dur = time.Since(t0)
				return res
			}
			if gch == 0 {
				// Nothing accepted: the deltas, hence the priority, are
				// unchanged.
				res.prio, res.hasPrio = r.priority[x], r.hasPrio[x]
				res.dur = time.Since(t0)
				return res
			}
			res.prio, res.hasPrio, res.err = r.partitionPriority(ctx, x, c)
			res.dur = time.Since(t0)
			return res
		}
	}
	dispatchCompute := func(x int) {
		inflight[x] = true
		inflightCount++
		r.pool.tasks <- func(c *dbConn) taskResult {
			t0 := time.Now()
			gch := r.lastGather[x]
			r.lastGather[x] = 0
			cch, msgs, err := r.computeTask(ctx, x, c, gch)
			res := taskResult{part: x, changed: cch, msgs: msgs, err: err, phase: "compute"}
			if err != nil {
				res.dur = time.Since(t0)
				return res
			}
			if gch == 0 && cch == 0 && msgs == 0 {
				// Quiet fast path ran: deltas are untouched.
				res.prio, res.hasPrio = r.priority[x], r.hasPrio[x]
				res.dur = time.Since(t0)
				return res
			}
			res.prio, res.hasPrio, res.err = r.partitionPriority(ctx, x, c)
			res.dur = time.Since(t0)
			return res
		}
	}

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Fill free workers (unless a termination check or checkpoint is
		// pending).
		for inflightCount < len(r.pool.conns) && taskErr == nil && !done && !checkPending && !ckptPending {
			x, kind, ok := pick()
			if debugAsync {
				fmt.Printf("DBG pick x=%d kind=%d ok=%v inflight=%d done=%v hasPrio=%v\n",
					x, kind, ok, inflightCount, done, r.hasPrio)
			}
			if !ok {
				break
			}
			switch kind {
			case taskGather:
				dispatchGather(x)
			case taskCompute:
				dispatchCompute(x)
			case taskIdle:
				idle[x] = true
				idleCount++
				dispatchCompute(x)
			default:
				dispatch(x)
			}
		}
		if checkPending && inflightCount == 0 {
			// Soft barrier reached: deltas are stable, messages all
			// delivered below before the condition runs. A partition that
			// accepted messages here has work again: unmark it clean, or
			// the round-robin pick would skip it (it has nothing unread)
			// and quiescence would end the run with its delta unabsorbed.
			for x := 0; x < r.pl.p; x++ {
				if r.msgs.hasUnread(x) {
					ch, err := r.gatherTask(ctx, x, r.coord)
					if err != nil {
						return err
					}
					roundChanged += ch
					if ch > 0 {
						r.lastGather[x] += ch
						r.clean[x] = false
					}
				}
			}
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
			if prio {
				// The drain moved mass into deltas behind the cached
				// priorities' backs; recompute them or the scheduler
				// would wrongly conclude there is no work left.
				for x := 0; x < r.pl.p; x++ {
					if err := r.refreshPriority(ctx, x); err != nil {
						return err
					}
				}
			}
			continue
		}
		if ckptPending && !checkPending && !done && inflightCount == 0 && taskErr == nil {
			// Checkpoint soft barrier reached: deliver every pending
			// message so the partition tables alone carry the state, then
			// snapshot them.
			for x := 0; x < r.pl.p; x++ {
				if r.msgs.hasUnread(x) {
					ch, err := r.gatherTask(ctx, x, r.coord)
					if err != nil {
						return err
					}
					roundChanged += ch
					if ch > 0 {
						r.lastGather[x] += ch
						r.clean[x] = false
					}
				}
			}
			if err := r.collectGarbage(ctx); err != nil {
				return err
			}
			if err := r.saveParallelCkpt(ctx, lastRound); err != nil {
				return err
			}
			ckptPending = false
			if prio {
				// Same cache-staleness hazard as the termination drain.
				for x := 0; x < r.pl.p; x++ {
					if err := r.refreshPriority(ctx, x); err != nil {
						return err
					}
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
		r.rt.task(obs.PartitionDone{Round: evRound, Part: res.part,
			Phase: res.phase, Changed: res.changed, Duration: res.dur})
		r.rt.msgTables(res.msgs)
		roundChanged += res.changed
		r.stats.MessageTables += res.msgs

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
		if err := r.collectGarbage(ctx); err != nil {
			return err
		}

		// A "round" completes when the slowest partition advances.
		minRounds := r.rounds[0]
		for _, n := range r.rounds {
			if n < minRounds {
				minRounds = n
			}
		}
		if minRounds > lastRound {
			lastRound = minRounds
			r.stats.Iterations = minRounds
			r.rt.end(minRounds, roundChanged)
			if needsBarrier {
				checkDue = true
			} else {
				d, err := r.checkAsyncTermination(ctx, minRounds, roundChanged)
				if err != nil {
					return err
				}
				roundChanged = 0
				if d {
					done = true
				}
			}
			if !done && r.ckpt.due(minRounds) {
				ckptPending = true
			}
			// Lazy round boundary: the slowest partition just advanced,
			// which is the async mode's closest analogue of a barrier.
			// Workers keep draining their in-flight tasks while the
			// coordinator waits for its slot back.
			if !done {
				if err := yieldRound(ctx); err != nil {
					return err
				}
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
		// cadence do not depend on the schedule. A checkpoint that came
		// due is taken first, even when the round that made it due also
		// quiesced the run (a partition's first Compute can be the run's
		// last act when its messages were gathered while it was still in
		// flight); the loop then ends once nothing is schedulable.
		if !done && !ckptPending && inflightCount == 0 && !(prio && iterBounded) && r.quiescent(prio) {
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
		for x := 0; x < r.pl.p; x++ {
			if r.msgs.hasUnread(x) {
				if _, err := r.gatherTask(ctx, x, r.coord); err != nil {
					return err
				}
			}
		}
		if err := r.collectGarbage(ctx); err != nil {
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
	if prio {
		for x := range r.hasPrio {
			if r.hasPrio[x] {
				return false
			}
		}
		return !r.msgs.anyUnread()
	}
	for _, c := range r.clean {
		if !c {
			return false
		}
	}
	return !r.msgs.anyUnread()
}

// checkAsyncTermination evaluates the UNTIL condition at round
// granularity.
func (r *parallelRun) checkAsyncTermination(ctx context.Context, round int, roundChanged int64) (bool, error) {
	switch r.term.term.Kind {
	case sqlparser.TermIterations:
		n := r.term.term.N
		if n < 1 {
			n = 1
		}
		return int64(round) >= n, nil
	case sqlparser.TermUpdates:
		// N == 0 is handled by quiescence detection; N > 0 by the soft
		// barrier. Rounds alone cannot prove either: in-flight messages
		// may still cause updates.
		return false, nil
	default:
		// TermExpr goes through the soft barrier.
		return false, nil
	}
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

// refreshPriority updates the cached priority of x from the coordinator
// connection (used at startup and after coordinator-side drains).
func (r *parallelRun) refreshPriority(ctx context.Context, x int) error {
	v, ok, err := r.partitionPriority(ctx, x, r.coord)
	if err != nil {
		return err
	}
	r.priority[x] = v
	r.hasPrio[x] = ok
	return nil
}

// effectivePriority combines the priority signal with pending messages:
// partitions with unread messages always have work; otherwise the query
// must have produced a value.
func (r *parallelRun) effectivePriority(x int) (float64, bool) {
	if r.hasPrio[x] {
		return r.priority[x], true
	}
	if r.msgs.hasUnread(x) {
		return 0, true
	}
	return 0, false
}
