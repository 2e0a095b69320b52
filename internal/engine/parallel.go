package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sqloop/internal/sqlparser"
	"sqloop/internal/sqltypes"
	"sqloop/internal/vec"
)

// This file implements morsel-driven intra-query parallelism (the
// HyPer-style scheme) over the vectorized operator boundary: the base
// input of a filter, projection, grouping, or hash-join build/probe is
// split into fixed-size row ranges ("morsels"), each morsel runs the
// existing serial operator body on a worker, and the per-morsel outputs
// are reassembled in morsel order. Results, row order, error identity
// and error ordering are bit-identical to the serial path; see
// DESIGN.md, "Morsel-driven parallelism".

// morselRows is the dispatch granule. It must stay a multiple of
// vec.BatchSize so every morsel's window boundaries coincide with the
// serial cursor's — the batch/fallback behaviour of each window is then
// identical in both modes. A variable so tests can lower it to exercise
// the parallel path on small fixtures.
var morselRows = 4 * vec.BatchSize

// parThresholdMorsels is the minimum number of morsels worth fanning
// out; below it the dispatch overhead cannot pay for itself.
const parThresholdMorsels = 2

// effectiveWorkers resolves the configured worker count: 0 means one
// worker per CPU, and 1 is exactly the serial execution.
func effectiveWorkers(cfg Config) int {
	n := cfg.Workers
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// workerPool is the engine-wide pool behind every parallel operator.
// Submission never blocks: a task is handed to an idle worker or
// rejected, and the dispatching goroutine always runs its own claim
// loop, so a query makes progress even when every worker is busy (or
// the pool is closed mid-query) — the property that makes nested
// parallel regions (subqueries inside morsels) deadlock-free.
type workerPool struct {
	size  int
	tasks chan func()

	mu     sync.RWMutex // guards closed vs. submit's channel send
	closed bool
	wg     sync.WaitGroup
}

// newWorkerPool starts size-1 helper goroutines (the dispatching
// goroutine itself is the size'th worker).
func newWorkerPool(size int) *workerPool {
	p := &workerPool{size: size, tasks: make(chan func())}
	for i := 0; i < size-1; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				t()
			}
		}()
	}
	return p
}

// trySubmit hands t to an idle worker, reporting false when none is
// free or the pool is shut down. The read lock excludes close(), so the
// send can never hit a closed channel.
func (p *workerPool) trySubmit(t func()) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	select {
	case p.tasks <- t:
		return true
	default:
		return false
	}
}

// close drains the pool: no new tasks are accepted, in-flight tasks run
// to completion, and every worker goroutine has exited on return.
func (p *workerPool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.tasks)
	p.mu.Unlock()
	p.wg.Wait()
}

// parallelOK reports whether an operator over n input rows should fan
// out. Parallel regions ride on the hashed row index (partial-result
// merging needs its dense key table), so disabling expression
// compilation disables them too, exactly like vectorization.
func (x *executor) parallelOK(n int) bool {
	return x.eng.pool != nil &&
		!x.eng.cfg.DisableExprCompile &&
		n >= parThresholdMorsels*morselRows
}

// morselCount is the number of morsels covering n rows.
func morselCount(n int) int {
	return (n + morselRows - 1) / morselRows
}

// fork creates a child executor for one morsel: it shares the session,
// engine, bind args, CTE scope and compiled-program cache (all safe for
// concurrent use), but gets private work counters and a private
// IN-subquery cache, which are plain (unsynchronized) state.
func (x *executor) fork() *executor {
	return &executor{sess: x.sess, eng: x.eng, args: x.args, ctes: x.ctes, progs: x.progs}
}

// chargeMorsel sleeps the simulated latency of one morsel's work on the
// calling goroutine, immediately and without the per-statement
// constant. Charges of concurrent workers overlap in time — the same
// mechanism that lets separate connections model a multi-core server —
// so a parallel region's simulated latency shrinks with the worker
// count while the total charged work stays what the serial path
// charges. The parent never re-merges charged counters, so nothing is
// billed twice.
func (x *executor) chargeMorsel() {
	c := x.eng.cfg.Cost
	if c == nil {
		return
	}
	if d := c.charge(x.work) - c.charge(workCounters{}); d > 0 {
		sleep(d)
	}
}

// takeScanCharge moves the base scan's per-row cost into the parallel
// region: scanNamed already charged the full scan to the statement, so
// the region deducts it here and each morsel re-charges (and sleeps)
// its own share concurrently. Only full-table scans set scanCharged,
// and only the first region consuming the source takes the transfer.
func (x *executor) takeScanCharge(src *source) bool {
	if !src.scanCharged || x.eng.cfg.Cost == nil {
		return false
	}
	src.scanCharged = false
	x.work.scanned -= int64(len(src.rows))
	return true
}

// parRun partitions n input rows into morsels and executes fn(m, lo,
// hi) over them on the worker pool plus the calling goroutine. Morsels
// are claimed from an atomic cursor; the calling goroutine always runs
// a claim loop itself, so completion never depends on pool capacity.
//
// Error contract (bit-identical to serial execution): the error of the
// lowest-indexed failing morsel wins. Once some morsel fails, all
// higher-indexed unclaimed morsels are cancelled (their output would be
// discarded anyway), but lower-indexed morsels still run — if one of
// them fails, its error takes precedence, exactly as the serial scan
// would have hit it first.
func (x *executor) parRun(n int, fn func(m, lo, hi int) error) error {
	nm := morselCount(n)
	var next atomic.Int64
	var errIdx atomic.Int64 // lowest failing morsel index; nm = none
	errIdx.Store(int64(nm))
	errs := make([]error, nm)
	reg := x.eng.metrics.Load()

	claim := func() {
		for {
			m := int(next.Add(1) - 1)
			if m >= nm {
				return
			}
			if int64(m) > errIdx.Load() {
				continue // cancelled: a lower morsel already failed
			}
			lo := m * morselRows
			hi := lo + morselRows
			if hi > n {
				hi = n
			}
			start := time.Now()
			err := fn(m, lo, hi)
			if reg != nil {
				reg.Counter("sqloop_parallel_morsels_total").Inc()
				reg.Histogram("sqloop_parallel_worker_busy_seconds").Observe(time.Since(start))
			}
			if err != nil {
				errs[m] = err
				for {
					cur := errIdx.Load()
					if int64(m) >= cur || errIdx.CompareAndSwap(cur, int64(m)) {
						break
					}
				}
			}
		}
	}

	var wg sync.WaitGroup
	engaged := 1
	if pool := x.eng.pool; pool != nil {
		helpers := pool.size - 1
		if max := nm - 1; helpers > max {
			helpers = max
		}
		for i := 0; i < helpers; i++ {
			wg.Add(1)
			if !pool.trySubmit(func() { defer wg.Done(); claim() }) {
				wg.Done()
				break // every worker busy (or pool closed): run inline
			}
			engaged++
		}
	}
	if reg != nil {
		reg.Gauge("sqloop_parallel_workers").Set(int64(engaged))
	}
	claim()
	wg.Wait()

	if ei := errIdx.Load(); ei < int64(nm) {
		return errs[ei]
	}
	return nil
}

// vecFilterPar is the morsel-parallel form of vecFilter: each morsel
// runs the serial window loop over its own row range on a child
// executor, and the kept rows are concatenated in morsel order. Because
// morselRows is a multiple of vec.BatchSize, the window boundaries —
// and therefore every window's batch-vs-fallback decision — are the
// same as the serial cursor's.
func (x *executor) vecFilterPar(vp *vplan, where sqlparser.Expr, src *source, deferErrs bool) ([]sqltypes.Row, error) {
	n := len(src.rows)
	parts := make([][]sqltypes.Row, morselCount(n))
	scan := x.takeScanCharge(src)
	err := x.parRun(n, func(m, lo, hi int) error {
		child := x.fork()
		kept, err := child.vecFilter(vp, where, &source{frame: src.frame, rows: src.rows[lo:hi]}, deferErrs)
		if err != nil {
			return err
		}
		if scan {
			child.work.scanned += int64(hi - lo)
		}
		child.chargeMorsel()
		parts[m] = kept
		return nil
	})
	if err != nil {
		return nil, err
	}
	return concatRows(parts), nil
}

// vecProjectPar is the morsel-parallel form of vecProject; output rows
// are concatenated in morsel order.
func (x *executor) vecProjectPar(plan *selPlan, src *source) ([]outRow, error) {
	n := len(src.rows)
	parts := make([][]outRow, morselCount(n))
	scan := x.takeScanCharge(src)
	err := x.parRun(n, func(m, lo, hi int) error {
		child := x.fork()
		out, err := child.vecProject(plan, &source{frame: src.frame, rows: src.rows[lo:hi]})
		if err != nil {
			return err
		}
		if scan {
			child.work.scanned += int64(hi - lo)
		}
		child.chargeMorsel()
		parts[m] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]outRow, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// groupPart is one morsel's local grouping result: its groups, its
// aggregate accumulators, and the local row index whose dense-id key
// table drives the merge.
type groupPart struct {
	groups []*group
	vaggs  []*vecAgg
	ix     *rowIndex
}

// vecGroupPar is the morsel-parallel form of vecGroup: each morsel
// builds a private accumulator table with the serial vecGroup body,
// then the tables are merged in morsel order. Merging local keys in
// morsel order reproduces the serial first-seen dense-id order, so
// group output order, each group's first row and each group's member
// row order are identical to serial execution. Aggregate partials merge
// with computeAggregate's exact semantics (NULL skip, int64-overflow
// promotion to float, MIN/MAX via sqltypes.Compare); a merge-time
// Compare error degrades to ok=false, the same whole-input row-path
// fallback contract the serial vecGroup has.
func (x *executor) vecGroupPar(plan *selPlan, src *source) ([]*group, []*vecAgg, bool) {
	n := len(src.rows)
	parts := make([]groupPart, morselCount(n))
	scan := x.takeScanCharge(src)
	err := x.parRun(n, func(m, lo, hi int) error {
		child := x.fork()
		groups, vaggs, ix, ok := child.vecGroup(plan, &source{frame: src.frame, rows: src.rows[lo:hi]})
		if !ok {
			return errVecFallback
		}
		child.work.grouped += int64(hi - lo)
		if scan {
			child.work.scanned += int64(hi - lo)
		}
		child.chargeMorsel()
		parts[m] = groupPart{groups: groups, vaggs: vaggs, ix: ix}
		return nil
	})
	if err != nil {
		// Whole-input fallback, like serial vecGroup: the caller re-runs
		// the row path, which re-charges its own work — restore the scan
		// charge for the morsels that never charged theirs.
		if scan {
			for m := range parts {
				if parts[m].ix == nil && parts[m].groups == nil {
					lo := m * morselRows
					hi := lo + morselRows
					if hi > n {
						hi = n
					}
					x.work.scanned += int64(hi - lo)
				}
			}
		}
		return nil, nil, false
	}

	nKeys := len(plan.groupBy)
	needRows := !plan.vecAggsAll
	merged := x.newRowIndex(0)
	var groups []*group
	vaggs := make([]*vecAgg, len(plan.vecAggs))
	for i, spec := range plan.vecAggs {
		vaggs[i] = &vecAgg{fc: spec.fc}
	}
	for _, part := range parts {
		for li, lg := range part.groups {
			var gid int
			if nKeys == 0 {
				if len(groups) == 0 {
					groups = append(groups, &group{first: lg.first})
				}
				gid = 0
			} else {
				var isNew bool
				// The local index's key copy is handed over (the part is
				// discarded after the merge), so no re-clone is needed.
				gid, isNew = merged.bucket(part.ix.keys[li], true)
				if isNew {
					groups = append(groups, &group{first: lg.first})
				}
			}
			g := groups[gid]
			g.n += lg.n
			if needRows {
				g.rows = append(g.rows, lg.rows...)
			}
			for ai := range vaggs {
				vaggs[ai].grow(gid)
				if err := vaggs[ai].merge(part.vaggs[ai], li, gid); err != nil {
					x.eng.vecFallbacks.Add(1)
					return nil, nil, false
				}
			}
		}
	}
	return groups, vaggs, true
}

// concatRows flattens per-morsel row slices in morsel order.
func concatRows(parts [][]sqltypes.Row) []sqltypes.Row {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]sqltypes.Row, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// parBuildJoin builds the hash-join index over the right side in
// parallel: each morsel evaluates the build-key programs into a private
// index, and the partial tables are chained into the shared index in
// morsel order — which reproduces the serial build's first-seen dense
// bucket ids and each bucket's row order exactly.
func (x *executor) parBuildJoin(rightProgs []program, right *source) (*rowIndex, [][]sqltypes.Row, error) {
	n := len(right.rows)
	type buildPart struct {
		ix   *rowIndex
		rows [][]sqltypes.Row
	}
	bparts := make([]buildPart, morselCount(n))
	err := x.parRun(n, func(m, lo, hi int) error {
		child := x.fork()
		ix := child.newRowIndex(hi - lo)
		var bucketRows [][]sqltypes.Row
		renv := &evalEnv{frame: right.frame, x: child}
		kvals := make(sqltypes.Row, len(rightProgs))
		for _, rb := range right.rows[lo:hi] {
			renv.row = rb
			null := false
			for i, p := range rightProgs {
				v, err := p(renv)
				if err != nil {
					return err
				}
				if v.IsNull() {
					null = true
					break
				}
				kvals[i] = v
			}
			if null {
				continue // NULL keys never match
			}
			id, isNew := ix.bucket(kvals, false)
			if isNew {
				bucketRows = append(bucketRows, nil)
			}
			bucketRows[id] = append(bucketRows[id], rb)
		}
		child.chargeMorsel()
		bparts[m] = buildPart{ix: ix, rows: bucketRows}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	build := x.newRowIndex(n)
	var buildRows [][]sqltypes.Row
	for _, p := range bparts {
		for li, key := range p.ix.keys {
			gid, isNew := build.bucket(key, true)
			if isNew {
				buildRows = append(buildRows, nil)
			}
			buildRows[gid] = append(buildRows[gid], p.rows[li]...)
		}
	}
	return build, buildRows, nil
}

// parProbeJoin probes the shared build index with morsels of the left
// side; per-morsel outputs are concatenated in morsel order, so the
// join's output row order matches the serial probe. joined is the total
// matched-pair count for the engine stats; the per-row join cost was
// already charged (and slept) inside the region.
func (x *executor) parProbeJoin(hj *hashJoinProbe, vp *vplan, left *source) ([]sqltypes.Row, int64, error) {
	n := len(left.rows)
	parts := make([][]sqltypes.Row, morselCount(n))
	var joined atomic.Int64
	scan := x.takeScanCharge(left)
	err := x.parRun(n, func(m, lo, hi int) error {
		child := x.fork()
		out, j, err := hj.probeSlice(child, vp, left.rows[lo:hi])
		if err != nil {
			return err
		}
		child.work.joined += j
		if scan {
			child.work.scanned += int64(hi - lo)
		}
		child.chargeMorsel()
		joined.Add(j)
		parts[m] = out
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return concatRows(parts), joined.Load(), nil
}
