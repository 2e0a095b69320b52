package engine

import (
	"errors"
	"fmt"

	"sqloop/internal/sqlparser"
	"sqloop/internal/sqltypes"
	"sqloop/internal/vec"
)

// errVecFallback is the sentinel a kernel returns when it cannot
// reproduce the row path's behaviour for some element of the batch. It
// is never surfaced: the executor discards the batch's partial results
// and re-runs the window row-at-a-time, which either succeeds (the
// kernel was conservative) or raises the interpreter's own error.
var errVecFallback = errors.New("engine: vectorized kernel fallback")

// vecExec is the per-execution batch context: one window of the input
// rows plus the lazily-extracted column vectors and the result-slot
// pool the compiled batch plan writes into. Slot and column vectors
// are reused across windows, so steady-state batches allocate nothing.
type vecExec struct {
	x   *executor
	f   *frame
	env *evalEnv // shared environment for row-adapter nodes

	rows []sqltypes.Row // full input
	lo   int            // window start in rows
	n    int            // window length
	win  []sqltypes.Row // rows[lo : lo+n]

	cols   []*vec.Vec // extracted columns by frame offset
	colsOk []bool
	slots  []*vec.Vec
	sels   [][]int
	selAll []int // identity selection over the window
}

func (x *executor) newVecExec(f *frame, rows []sqltypes.Row) *vecExec {
	return &vecExec{
		x:      x,
		f:      f,
		env:    &evalEnv{frame: f, x: x},
		rows:   rows,
		cols:   make([]*vec.Vec, f.width),
		colsOk: make([]bool, f.width),
	}
}

// window positions the context over rows[lo:hi] and invalidates the
// column cache.
func (vx *vecExec) window(lo, hi int) {
	vx.lo, vx.n = lo, hi-lo
	vx.win = vx.rows[lo:hi]
	for i := range vx.colsOk {
		vx.colsOk[i] = false
	}
	vx.selAll = vec.FillSel(vx.selAll, vx.n)
	vx.x.eng.vecBatches.Add(1)
}

// col returns the extracted column vector for frame offset off,
// transposing it from the window's rows on first use.
func (vx *vecExec) col(off int) *vec.Vec {
	if !vx.colsOk[off] {
		if vx.cols[off] == nil {
			vx.cols[off] = &vec.Vec{}
		}
		vx.cols[off].FromRows(vx.win, off, vx.n)
		vx.colsOk[off] = true
	}
	return vx.cols[off]
}

// slot returns node slot id's result vector.
func (vx *vecExec) slot(id int) *vec.Vec {
	for len(vx.slots) <= id {
		vx.slots = append(vx.slots, nil)
	}
	if vx.slots[id] == nil {
		vx.slots[id] = &vec.Vec{}
	}
	return vx.slots[id]
}

// selSlot returns a reusable selection scratch buffer.
func (vx *vecExec) selSlot(id int) []int {
	for len(vx.sels) <= id {
		vx.sels = append(vx.sels, nil)
	}
	return vx.sels[id]
}

// setSelSlot stores a (possibly regrown) selection buffer back.
func (vx *vecExec) setSelSlot(id int, s []int) { vx.sels[id] = s }

// vecOK reports whether this execution may take the batch path: it
// rides on the compiled programs, so disabling expression compilation
// disables it too.
func (x *executor) vecOK() bool {
	return !x.eng.cfg.DisableExprCompile && !x.eng.cfg.DisableVectorize
}

// vecPlanFor returns the (possibly cached) single-expression batch
// plan for e under f, or nil when the batch path is off or has nothing
// to vectorize in e.
func (x *executor) vecPlanFor(e sqlparser.Expr, f *frame) *vplan {
	if !x.vecOK() {
		return nil
	}
	var k progKey
	if x.progs != nil {
		k = progKey{expr: e, sig: f.sig()}
		if vp, ok := x.progs.getVec(k); ok {
			return vp
		}
	}
	vp := compileVecPlan([]sqlparser.Expr{e}, f)
	if !vp.useVec() {
		vp = nil
	}
	if x.progs != nil {
		x.progs.putVec(k, vp)
	}
	return vp
}

// vecJoinPlan returns the batch plan for a hash join's probe-side key
// expressions, cached under the ON node (the key split from a given ON
// clause and frame is deterministic). nil when the batch path is off or
// no key has a native kernel.
func (x *executor) vecJoinPlan(on sqlparser.Expr, keys []sqlparser.Expr, f *frame) *vplan {
	if !x.vecOK() {
		return nil
	}
	var k progKey
	if x.progs != nil {
		k = progKey{expr: on, sig: f.sig()}
		if vp, ok := x.progs.getVec(k); ok {
			return vp
		}
	}
	vp := compileVecPlan(keys, f)
	if !vp.useVec() {
		vp = nil
	}
	if x.progs != nil {
		x.progs.putVec(k, vp)
	}
	return vp
}

// vecFilter applies the compiled WHERE batch plan to src.rows,
// returning the rows the predicate holds for. A batch whose kernels
// error is re-run through the compiled row program, reproducing the
// row path's results and error timing exactly; raised is filterRows'.
func (x *executor) vecFilter(vp *vplan, where sqlparser.Expr, src *source, raised *bool) ([]sqltypes.Row, error) {
	vx := x.newVecExec(src.frame, src.rows)
	kept := src.rows[:0:0]
	node := &vp.nodes[0]
	var selOut []int
	var rowProg program
	var env *evalEnv
	cur := vec.NewCursor(len(src.rows))
	for {
		lo, hi, ok := cur.Next()
		if !ok {
			break
		}
		vx.window(lo, hi)
		out, err := node.eval(vx, vx.selAll)
		if err != nil {
			x.eng.vecFallbacks.Add(1)
			if rowProg == nil {
				rowProg = x.prog(where, src.frame)
				env = &evalEnv{frame: src.frame, x: x}
			}
			if kept, err = keepRows(rowProg, env, vx.win, kept, raised); err != nil {
				return nil, err
			}
			continue
		}
		selOut = out.TrueSel(vx.selAll, selOut[:0])
		for _, i := range selOut {
			kept = append(kept, vx.win[i])
		}
	}
	return kept, nil
}

// vecProject materializes the non-grouped projection batch-at-a-time:
// each item's plan writes a column vector, and output rows are
// assembled column-by-column. Output rows carry no environment (the
// caller only takes this path when ORDER BY keys read the output row).
func (x *executor) vecProject(plan *selPlan, src *source) ([]outRow, error) {
	vx := x.newVecExec(src.frame, src.rows)
	outputs := make([]outRow, 0, len(src.rows))
	nitems := len(plan.vecItems.nodes)
	cur := vec.NewCursor(len(src.rows))
	for {
		lo, hi, ok := cur.Next()
		if !ok {
			break
		}
		vx.window(lo, hi)
		// One backing array per window: output rows are independent
		// full-capacity sub-slices, so later appends cannot alias.
		backing := make([]sqltypes.Value, vx.n*nitems)
		rows := make([]sqltypes.Row, vx.n)
		for i := range rows {
			rows[i] = backing[i*nitems : (i+1)*nitems : (i+1)*nitems]
		}
		failed := false
		for j := range plan.vecItems.nodes {
			v, err := plan.vecItems.nodes[j].eval(vx, vx.selAll)
			if err != nil {
				failed = true
				break
			}
			for i := 0; i < vx.n; i++ {
				rows[i][j] = v.Get(i)
			}
		}
		if failed {
			// Row-path fallback for this window (identical to the
			// non-vectorized projection loop, including its error).
			x.eng.vecFallbacks.Add(1)
			for _, r := range vx.win {
				rowEnv := &evalEnv{frame: src.frame, x: x, row: r}
				row, err := projectRow(plan.itemProgs, rowEnv)
				if err != nil {
					return nil, err
				}
				outputs = append(outputs, outRow{row: row, env: rowEnv})
			}
			continue
		}
		for i := 0; i < vx.n; i++ {
			outputs = append(outputs, outRow{row: rows[i]})
		}
	}
	return outputs, nil
}

// vecAgg accumulates one vectorized aggregate across batches, indexed
// by dense group id. The accumulator mirrors computeAggregate exactly:
// NULL skipping, SUM's int64-overflow promotion to float, MIN/MAX via
// sqltypes.Compare.
type vecAgg struct {
	fc    *sqlparser.FuncCall
	node  *vnode
	count []int64
	sumI  []int64
	sumF  []float64
	isF   []bool
	best  []sqltypes.Value
}

func (a *vecAgg) grow(gid int) {
	for len(a.count) <= gid {
		a.count = append(a.count, 0)
		a.sumI = append(a.sumI, 0)
		a.sumF = append(a.sumF, 0)
		a.isF = append(a.isF, false)
		a.best = append(a.best, sqltypes.Null)
	}
}

func (a *vecAgg) accumulate(gid int, v sqltypes.Value) error {
	if v.IsNull() {
		return nil
	}
	a.count[gid]++
	switch a.fc.Name {
	case "COUNT":
	case "SUM", "AVG":
		if !v.IsNumeric() {
			return fmt.Errorf("engine: %s of non-numeric value", a.fc.Name)
		}
		if v.Kind() == sqltypes.KindFloat {
			if !a.isF[gid] {
				a.isF[gid] = true
				a.sumF[gid] = float64(a.sumI[gid])
			}
			a.sumF[gid] += v.Float()
		} else if a.isF[gid] {
			a.sumF[gid] += v.Float()
		} else if s, ok := addInt64(a.sumI[gid], v.Int()); ok {
			a.sumI[gid] = s
		} else {
			a.isF[gid] = true
			a.sumF[gid] = float64(a.sumI[gid]) + float64(v.Int())
		}
	case "MIN", "MAX":
		if a.best[gid].IsNull() {
			a.best[gid] = v
			return nil
		}
		c, err := sqltypes.Compare(v, a.best[gid])
		if err != nil {
			return err
		}
		if (a.fc.Name == "MIN" && c < 0) || (a.fc.Name == "MAX" && c > 0) {
			a.best[gid] = v
		}
	default:
		return errVecFallback
	}
	return nil
}

// finalize produces the group's aggregate value, mirroring
// computeAggregate's result assembly.
func (a *vecAgg) finalize(gid int) sqltypes.Value {
	if gid >= len(a.count) {
		a.grow(gid)
	}
	switch a.fc.Name {
	case "COUNT":
		return sqltypes.NewInt(a.count[gid])
	case "SUM":
		if a.count[gid] == 0 {
			return sqltypes.Null
		}
		if a.isF[gid] {
			return sqltypes.NewFloat(a.sumF[gid])
		}
		return sqltypes.NewInt(a.sumI[gid])
	case "AVG":
		if a.count[gid] == 0 {
			return sqltypes.Null
		}
		s := a.sumF[gid]
		if !a.isF[gid] {
			s = float64(a.sumI[gid])
		}
		return sqltypes.NewFloat(s / float64(a.count[gid]))
	default: // MIN, MAX
		return a.best[gid]
	}
}

// mergeFrom folds another accumulator's partial state for group `from`
// into this accumulator's group `to`, with computeAggregate's exact
// semantics: counts add, SUM/AVG partial sums combine under the same
// float promotion and int64-overflow promotion rules, and MIN/MAX
// resolve via sqltypes.Compare with NULLs (untouched groups) skipped.
// The morsel-parallel grouped path uses it to merge per-worker
// accumulator tables; a Compare error makes the caller fall back to the
// serial row path, like any other grouped-batch error.
func (a *vecAgg) merge(src *vecAgg, from, to int) error {
	if from >= len(src.count) {
		return nil // the source accumulator never touched this group
	}
	a.count[to] += src.count[from]
	switch a.fc.Name {
	case "COUNT":
	case "SUM", "AVG":
		if src.isF[from] {
			if !a.isF[to] {
				a.isF[to] = true
				a.sumF[to] = float64(a.sumI[to])
			}
			a.sumF[to] += src.sumF[from]
		} else if a.isF[to] {
			a.sumF[to] += float64(src.sumI[from])
		} else if s, ok := addInt64(a.sumI[to], src.sumI[from]); ok {
			a.sumI[to] = s
		} else {
			a.isF[to] = true
			a.sumF[to] = float64(a.sumI[to]) + float64(src.sumI[from])
		}
	case "MIN", "MAX":
		if src.best[from].IsNull() {
			return nil
		}
		if a.best[to].IsNull() {
			a.best[to] = src.best[from]
			return nil
		}
		c, err := sqltypes.Compare(src.best[from], a.best[to])
		if err != nil {
			return err
		}
		if (a.fc.Name == "MIN" && c < 0) || (a.fc.Name == "MAX" && c > 0) {
			a.best[to] = src.best[from]
		}
	}
	return nil
}

// vecGroup buckets src.rows by the plan's GROUP BY keys batch-at-a-
// time — key vectors hashed column-wise, one probe per row against
// pre-computed hashes — and streams the vectorizable aggregates into
// dense per-group accumulators. ok is false when any batch errors, in
// which case the caller runs the entire grouped path row-at-a-time
// (groups must be complete before aggregation, so there is no
// per-window fallback here). The returned row index maps dense group
// ids back to key rows; the morsel-parallel path merges per-worker
// tables through it.
func (x *executor) vecGroup(plan *selPlan, src *source) (groups []*group, vaggs []*vecAgg, gix *rowIndex, ok bool) {
	nKeys := len(plan.groupBy)
	vaggs = make([]*vecAgg, len(plan.vecAggs))
	for i, spec := range plan.vecAggs {
		va := &vecAgg{fc: spec.fc}
		if spec.node >= 0 {
			va.node = &plan.vecGB.nodes[spec.node]
		}
		vaggs[i] = va
	}
	// Per-group row lists are only needed when some aggregate still runs
	// through computeAggregate; fully-vectorized plans track first row
	// and count only.
	needRows := !plan.vecAggsAll
	vx := x.newVecExec(src.frame, src.rows)
	ix := x.newRowIndex(0)
	keyVecs := make([]*vec.Vec, nKeys)
	kvals := make(sqltypes.Row, nKeys)
	hash := make([]uint64, vec.BatchSize)
	gids := make([]int, vec.BatchSize)
	cur := vec.NewCursor(len(src.rows))
	for {
		lo, hi, windowOK := cur.Next()
		if !windowOK {
			break
		}
		vx.window(lo, hi)
		if nKeys == 0 {
			// Global aggregate: a single group holds every row.
			if len(groups) == 0 {
				groups = append(groups, &group{first: vx.win[0]})
			}
			g := groups[0]
			g.n += int64(vx.n)
			if needRows {
				g.rows = append(g.rows, vx.win...)
			}
			for i := 0; i < vx.n; i++ {
				gids[i] = 0
			}
		} else {
			for k := range plan.vecGB.nodes[:nKeys] {
				v, err := plan.vecGB.nodes[k].eval(vx, vx.selAll)
				if err != nil {
					x.eng.vecFallbacks.Add(1)
					return nil, nil, nil, false
				}
				keyVecs[k] = v
			}
			vec.HashInit(hash[:vx.n], vx.selAll)
			for k := range keyVecs {
				keyVecs[k].HashMix(hash[:vx.n], vx.selAll)
			}
			for i := 0; i < vx.n; i++ {
				for k := range keyVecs {
					kvals[k] = keyVecs[k].Get(i)
				}
				id, isNew := ix.bucketPre(hash[i], kvals)
				if isNew {
					groups = append(groups, &group{first: vx.win[i]})
				}
				g := groups[id]
				g.n++
				if needRows {
					g.rows = append(g.rows, vx.win[i])
				}
				gids[i] = id
			}
		}
		for _, va := range vaggs {
			if va.node == nil {
				// COUNT(*): every member row counts, no argument.
				for i := 0; i < vx.n; i++ {
					va.grow(gids[i])
					va.count[gids[i]]++
				}
				continue
			}
			v, err := va.node.eval(vx, vx.selAll)
			if err != nil {
				x.eng.vecFallbacks.Add(1)
				return nil, nil, nil, false
			}
			for i := 0; i < vx.n; i++ {
				va.grow(gids[i])
				if err := va.accumulate(gids[i], v.Get(i)); err != nil {
					x.eng.vecFallbacks.Add(1)
					return nil, nil, nil, false
				}
			}
		}
	}
	if nKeys == 0 && len(groups) == 0 {
		// Zero input rows still form one (empty) group, like groupRows.
		groups = append(groups, &group{})
	}
	return groups, vaggs, ix, true
}
