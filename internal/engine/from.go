package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"sqloop/internal/sqlparser"
	"sqloop/internal/sqltypes"
	"sqloop/internal/vec"
)

// sleep is the charge primitive for the cost model. A variable so tests
// can stub it; production code always uses time.Sleep.
var sleep = time.Sleep

// evalFromList materializes the FROM clause: each item becomes a source;
// multiple items are cross-joined. where (may be nil) enables index
// pushdown for the single-base-table fast path and predicate pushdown
// into a single join tree (see pushableWhere).
func (x *executor) evalFromList(items []sqlparser.TableExpr, where sqlparser.Expr) (*source, error) {
	if len(items) == 0 {
		// SELECT without FROM: a single empty row.
		return &source{frame: &frame{}, rows: []sqltypes.Row{{}}}, nil
	}
	if len(items) == 1 {
		if j, ok := items[0].(*sqlparser.JoinExpr); ok {
			return x.evalJoin(j, pushableWhere(j, where))
		}
		return x.evalTableExpr(items[0], where)
	}
	var cur *source
	for i, te := range items {
		s, err := x.evalTableExpr(te, nil)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			cur = s
			continue
		}
		cur = crossJoin(cur, s)
		x.work.joined += int64(len(cur.rows))
	}
	return cur, nil
}

func crossJoin(a, b *source) *source {
	out := &source{frame: concatFrames(a.frame, b.frame)}
	out.rows = make([]sqltypes.Row, 0, len(a.rows)*len(b.rows))
	for _, ra := range a.rows {
		for _, rb := range b.rows {
			row := make(sqltypes.Row, 0, len(ra)+len(rb))
			row = append(row, ra...)
			row = append(row, rb...)
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// evalTableExpr materializes one FROM item. pushWhere, when non-nil, may
// be used for index lookups on a base table (it is still re-checked by
// the caller, so using it is purely an optimization).
func (x *executor) evalTableExpr(te sqlparser.TableExpr, pushWhere sqlparser.Expr) (*source, error) {
	switch t := te.(type) {
	case *sqlparser.TableName:
		return x.scanNamed(t, pushWhere, false)
	case *sqlparser.SubqueryTable:
		rel, err := x.evalBody(t.Body)
		if err != nil {
			return nil, err
		}
		f := &frame{}
		f.addRel(t.Alias, rel.cols)
		return &source{frame: f, rows: rel.rows}, nil
	case *sqlparser.JoinExpr:
		return x.evalJoin(t, nil)
	default:
		return nil, fmt.Errorf("engine: unsupported table expression %T", te)
	}
}

// scanNamed resolves a name to a CTE, view or base table and returns its
// rows under the effective alias. A base table is read through an index
// when pushWhere has an access path for it (see indexPath; sparse
// applies the lookupShare rule).
func (x *executor) scanNamed(t *sqlparser.TableName, pushWhere sqlparser.Expr, sparse bool) (*source, error) {
	alias := t.Alias
	if alias == "" {
		alias = t.Name
	}
	// Plain CTEs shadow tables and views.
	if rel, ok := x.ctes[strings.ToLower(t.Name)]; ok {
		f := &frame{}
		f.addRel(alias, rel.cols)
		return &source{frame: f, rows: rel.rows}, nil
	}
	if v, ok := x.eng.lookupView(t.Name); ok {
		rel, err := x.evalBody(v.body)
		if err != nil {
			return nil, fmt.Errorf("view %s: %w", v.name, err)
		}
		f := &frame{}
		f.addRel(alias, rel.cols)
		return &source{frame: f, rows: rel.rows}, nil
	}
	tbl, ok := x.eng.lookupTable(t.Name)
	if !ok {
		return nil, &ErrTableNotFound{Name: t.Name}
	}
	f := &frame{}
	f.addRel(alias, tbl.schema.Names())

	// Index pushdown: a conjunct `col = const` on the PK or an indexed
	// column turns the scan into a point lookup.
	if rows, ok := x.indexLookup(tbl, alias, pushWhere, sparse); ok {
		return &source{frame: f, rows: rows}, nil
	}

	rows := make([]sqltypes.Row, 0, tbl.store.Len())
	tbl.store.Scan(func(_ sqltypes.Key, r sqltypes.Row) bool {
		rows = append(rows, r)
		return true
	})
	x.work.scanned += int64(len(rows))
	x.eng.stats.RowsScanned.Add(int64(len(rows)))
	// scanCharged lets a downstream parallel region move this charge onto
	// its morsel workers (see takeScanCharge).
	return &source{frame: f, rows: rows, scanCharged: true}, nil
}

// indexLookup tries to satisfy a scan of tbl through an index access
// path for where (see indexPath), returning the rows in bucket order.
// The table's lock is already held by the statement prologue.
func (x *executor) indexLookup(tbl *Table, alias string, where sqlparser.Expr, sparse bool) ([]sqltypes.Row, bool) {
	path, ok := x.indexPath(tbl, alias, where, sparse)
	if !ok {
		return nil, false
	}
	var rows []sqltypes.Row
	x.readPath(tbl, path, func(_ sqltypes.Key, row sqltypes.Row) bool {
		rows = append(rows, row)
		return true
	})
	return rows, true
}

// lookupShare is the scan-or-lookup rule of UPDATE and of join inputs:
// a hash-index bucket holding more than 1/lookupShare of the table's
// rows is read by a scan instead, where one sequential pass beats that
// many point reads. It is a fixed rule, not a setting: a dense
// statement (a PageRank round touches every row) stays on the scan
// path, a frontier-sized one takes the lookup. A single-table SELECT
// always looks up: its rows come back in bucket order, which the
// ordering contract of secondary indexes promises.
const lookupShare = 4

// accessPath is a point read of one table: the row whose primary key
// is key (ix nil), or the rows in ix's bucket for key.
type accessPath struct {
	ix  *hashIndex
	key sqltypes.Key
}

// indexPath finds an access path for where on tbl: a top-level
// `col = constant` conjunct (a literal or a bound parameter) on the
// primary key, or else on a hash-indexed column, whose bucket must pass
// the lookupShare rule when sparse is set. Every row the path leaves out makes that conjunct,
// and so where, not TRUE, so reading only the path's rows and
// re-checking where on them gives the scan's rows. The constant must
// compare with stored keys exactly as CompareSQL does: NaN (equal to
// every number) and numbers beyond ±2^53 (where int and float keys
// compare lossily) take the scan, as does a number while the index
// holds NaN rows.
func (x *executor) indexPath(tbl *Table, alias string, where sqlparser.Expr, sparse bool) (accessPath, bool) {
	var path accessPath
	found := false
	x.eqConjuncts(where, tbl, alias, func(col int, val sqltypes.Value) bool {
		if !exactKey(val) {
			return true
		}
		if col == tbl.pkCol {
			path, found = accessPath{key: val.MapKey()}, true
			return false // a primary-key read is never beaten
		}
		if found {
			return true
		}
		for _, ix := range tbl.indexes {
			if ix.col != col || (ix.nan > 0 && val.IsNumeric()) {
				continue
			}
			if k := val.MapKey(); !sparse || ix.live(k)*lookupShare <= tbl.store.Len() {
				path, found = accessPath{ix: ix, key: k}, true
				break
			}
		}
		return true
	})
	return path, found
}

// exactKey reports whether equality with v is decided by its MapKey:
// true for NULL, strings, booleans and numbers within ±2^53 other than
// NaN.
func exactKey(v sqltypes.Value) bool {
	if !v.IsNumeric() {
		return true
	}
	f := v.Float()
	return !math.IsNaN(f) && math.Abs(f) <= 1<<53
}

// readPath visits the rows path reads, in bucket order, until fn
// returns false. Each row read counts toward engine.rows_scanned, as a
// scan's rows do; the cost model charges at least one row touch.
func (x *executor) readPath(tbl *Table, path accessPath, fn func(sqltypes.Key, sqltypes.Row) bool) {
	read := int64(0)
	visit := func(pk sqltypes.Key) bool {
		row, found := tbl.store.Get(pk)
		if !found {
			return true
		}
		read++
		return fn(pk, row)
	}
	if path.ix == nil {
		visit(path.key)
	} else {
		for _, e := range path.ix.bucket(path.key) {
			if !e.dead && !visit(e.pk) {
				break
			}
		}
	}
	x.work.scanned += max(read, 1)
	x.eng.stats.RowsScanned.Add(read)
}

// eqConjuncts calls fn with the column and value of each top-level
// `col = literal` (or parameter) conjunct of where on the given table,
// left to right, until fn returns false.
func (x *executor) eqConjuncts(where sqlparser.Expr, tbl *Table, alias string, fn func(int, sqltypes.Value) bool) bool {
	switch e := where.(type) {
	case *sqlparser.LogicalExpr:
		if e.Op != sqlparser.LogicAnd {
			return true
		}
		return x.eqConjuncts(e.Left, tbl, alias, fn) && x.eqConjuncts(e.Right, tbl, alias, fn)
	case *sqlparser.ComparisonExpr:
		if e.Op != sqltypes.CmpEQ {
			return true
		}
		if c, v, ok := x.colConstPair(e.Left, e.Right, tbl, alias); ok {
			return fn(c, v)
		}
		if c, v, ok := x.colConstPair(e.Right, e.Left, tbl, alias); ok {
			return fn(c, v)
		}
	}
	return true
}

func (x *executor) colConstPair(colSide, constSide sqlparser.Expr, tbl *Table, alias string) (int, sqltypes.Value, bool) {
	cr, ok := colSide.(*sqlparser.ColumnRef)
	if !ok {
		return 0, sqltypes.Null, false
	}
	if cr.Table != "" && !strings.EqualFold(cr.Table, alias) {
		return 0, sqltypes.Null, false
	}
	col := tbl.schema.ColumnIndex(cr.Name)
	if col < 0 {
		return 0, sqltypes.Null, false
	}
	switch c := constSide.(type) {
	case *sqlparser.Literal:
		return col, c.Val, true
	case *sqlparser.Param:
		if c.Index < len(x.args) {
			return col, x.args[c.Index], true
		}
	}
	return 0, sqltypes.Null, false
}

// evalJoin materializes a JOIN tree, using an index nested-loop join
// when the right side is an indexed base table, a hash join when the ON
// clause contains equi-conjuncts separable into left/right sides, and a
// plain nested loop otherwise. push, when non-nil, is the statement's
// WHERE, filtered into whichever input it references before the probe
// or build (see pushFilter); the caller still applies it to the output.
func (x *executor) evalJoin(j *sqlparser.JoinExpr, push sqlparser.Expr) (*source, error) {
	var pushLeft, pushRight sqlparser.Expr
	if push != nil && onKeysOnly(j) {
		// The left input is preserved by every join type; the right only
		// by inner ones (a LEFT JOIN pads unmatched rows with NULLs that
		// the predicate may accept).
		pushLeft = push
		if j.Type != sqlparser.JoinLeft {
			pushRight = push
		}
	}
	left, err := x.evalJoinInput(j.Left, pushLeft)
	if err != nil {
		return nil, err
	}
	if left.pushed {
		pushRight = nil
	}
	if out, ok, err := x.tryIndexJoin(j, left, pushRight); err != nil {
		return nil, err
	} else if ok {
		out.pushed = out.pushed || left.pushed
		out.pushRaised = out.pushRaised || left.pushRaised
		return out, nil
	}
	right, err := x.evalJoinInput(j.Right, pushRight)
	if err != nil {
		return nil, err
	}
	if err := x.validateExpr(j.On, concatFrames(left.frame, right.frame), nil); err != nil {
		return nil, err
	}
	pushed := left.pushed || right.pushed
	raised := left.pushRaised || right.pushRaised
	if j.Type == sqlparser.JoinCross {
		out := crossJoin(left, right)
		out.pushed, out.pushRaised = pushed, raised
		x.work.joined += int64(len(out.rows))
		return out, nil
	}

	leftKeys, rightKeys, residual := splitEquiConjuncts(j.On, left.frame, right.frame)
	outFrame := concatFrames(left.frame, right.frame)
	out := &source{frame: outFrame, pushed: pushed, pushRaised: raised}
	nullsRight := make(sqltypes.Row, right.frame.width)
	joined := int64(0)

	if len(leftKeys) > 0 {
		// Hash join: build on right, probe from left. Distinct key rows
		// get dense bucket ids; buildRows holds each bucket's rows.
		rightProgs := make([]program, len(rightKeys))
		for i, ke := range rightKeys {
			rightProgs[i] = x.prog(ke, right.frame)
		}
		var build *rowIndex
		var buildRows [][]sqltypes.Row
		if x.parallelOK(len(right.rows)) {
			var err error
			build, buildRows, err = x.parBuildJoin(rightProgs, right)
			if err != nil {
				return nil, err
			}
		} else {
			build = x.newRowIndex(len(right.rows))
			renv := &evalEnv{frame: right.frame, x: x}
			kvals := make(sqltypes.Row, len(rightKeys))
			for _, rb := range right.rows {
				renv.row = rb
				null := false
				for i, p := range rightProgs {
					v, err := p(renv)
					if err != nil {
						return nil, err
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
				id, isNew := build.bucket(kvals, false)
				if isNew {
					buildRows = append(buildRows, nil)
				}
				buildRows[id] = append(buildRows[id], rb)
			}
		}
		leftProgs := make([]program, len(leftKeys))
		for i, ke := range leftKeys {
			leftProgs[i] = x.prog(ke, left.frame)
		}
		hj := &hashJoinProbe{
			joinType:   j.Type,
			leftFrame:  left.frame,
			outFrame:   outFrame,
			leftKeys:   leftKeys,
			leftProgs:  leftProgs,
			resProg:    x.residualProg(residual, outFrame),
			build:      build,
			buildRows:  buildRows,
			nullsRight: nullsRight,
		}
		vp := x.vecJoinPlan(j.On, leftKeys, left.frame)
		if x.parallelOK(len(left.rows)) {
			rows, jn, err := x.parProbeJoin(hj, vp, left)
			if err != nil {
				return nil, err
			}
			out.rows = rows
			// The per-row join cost was charged (and slept) inside the
			// parallel region; only the engine-wide stat remains.
			x.eng.stats.RowsJoined.Add(jn)
			return out, nil
		}
		rows, jn, err := hj.probeSlice(x, vp, left.rows)
		if err != nil {
			return nil, err
		}
		out.rows = rows
		joined = jn
	} else {
		// Nested loop.
		onProg := x.prog(j.On, outFrame)
		cenv := &evalEnv{frame: outFrame, x: x}
		combined := make(sqltypes.Row, outFrame.width)
		for _, ra := range left.rows {
			matched := false
			for _, rb := range right.rows {
				joined++
				copy(combined, ra)
				copy(combined[len(ra):], rb)
				cenv.row = combined
				v, err := onProg(cenv)
				if err != nil {
					return nil, err
				}
				if v.IsTrue() {
					matched = true
					row := make(sqltypes.Row, 0, len(ra)+len(rb))
					row = append(row, ra...)
					row = append(row, rb...)
					out.rows = append(out.rows, row)
				}
			}
			if !matched && j.Type == sqlparser.JoinLeft {
				row := make(sqltypes.Row, 0, len(ra)+len(nullsRight))
				row = append(row, ra...)
				row = append(row, nullsRight...)
				out.rows = append(out.rows, row)
			}
		}
	}
	x.work.joined += joined
	x.eng.stats.RowsJoined.Add(joined)
	return out, nil
}

// evalJoinInput materializes one input of a join and filters it by the
// pushed WHERE w (nil for none) when w references that input alone.
func (x *executor) evalJoinInput(te sqlparser.TableExpr, w sqlparser.Expr) (*source, error) {
	var s *source
	var err error
	switch t := te.(type) {
	case *sqlparser.JoinExpr:
		s, err = x.evalJoin(t, w)
	case *sqlparser.TableName:
		// A base table may serve w's `col = constant` conjunct by an
		// index lookup under the lookupShare rule.
		s, err = x.scanNamed(t, w, true)
	default:
		s, err = x.evalTableExpr(te, nil)
	}
	if err != nil || w == nil {
		return s, err
	}
	return s, x.pushFilter(s, w)
}

// pushFilter applies a pushed WHERE to a join input whose frame
// resolves every column it references, unambiguously, keeping the rows
// it holds for and those it raises on (filterRows' deferErrs). The full
// WHERE still runs over the joined rows, so the result, and whether the
// statement raises, match the unpushed plan: a dropped row evaluates
// the WHERE cleanly to FALSE or NULL, reads only this input's columns,
// and so cannot pass the outer WHERE either; a row the WHERE raises on
// raises there exactly when it survives the join. Every ON clause above
// the input only compares columns (onKeysOnly), so dropping rows early
// cannot hide an ON error either.
func (x *executor) pushFilter(s *source, w sqlparser.Expr) error {
	if s.pushed || x.validateExpr(w, s.frame, nil) != nil {
		return nil
	}
	rows, err := x.filterRows(w, s, &s.pushRaised)
	if err != nil {
		return err
	}
	s.rows, s.pushed = rows, true
	return nil
}

// pushableWhere returns where when it may be pushed into join tree j:
// it runs no subquery (each would run once per input row, twice over),
// and every relation in j has its own name, so a qualified column means
// the same relation in an input as in the joined frame.
func pushableWhere(j *sqlparser.JoinExpr, where sqlparser.Expr) sqlparser.Expr {
	if where == nil {
		return nil
	}
	ok := true
	sqlparser.WalkExpr(where, func(x sqlparser.Expr) bool {
		switch t := x.(type) {
		case *sqlparser.Subquery, *sqlparser.ExistsExpr:
			ok = false
		case *sqlparser.InExpr:
			ok = ok && t.Sub == nil
		}
		return ok
	})
	seen := make(map[string]bool)
	for _, n := range relNames(j, nil) {
		ok = ok && !seen[n]
		seen[n] = true
	}
	if !ok {
		return nil
	}
	return where
}

// relNames appends the lowercased relation names a FROM item binds.
func relNames(te sqlparser.TableExpr, out []string) []string {
	switch t := te.(type) {
	case *sqlparser.TableName:
		if t.Alias != "" {
			return append(out, strings.ToLower(t.Alias))
		}
		return append(out, strings.ToLower(t.Name))
	case *sqlparser.SubqueryTable:
		return append(out, strings.ToLower(t.Alias))
	case *sqlparser.JoinExpr:
		return relNames(t.Right, relNames(t.Left, out))
	}
	return out
}

// onKeysOnly reports whether evaluating j's join condition can raise
// on no row: a cross join, or an ON clause made only of equalities
// between a qualified column of each input. Once validateExpr has
// resolved those columns, every conjunct becomes a hash or index key,
// and key lookups compare without raising. Only then may a pushed
// filter drop an input row the unpushed plan would have fed to the ON.
func onKeysOnly(j *sqlparser.JoinExpr) bool {
	if j.Type == sqlparser.JoinCross {
		return true
	}
	if j.On == nil {
		return false
	}
	left, right := relNames(j.Left, nil), relNames(j.Right, nil)
	ok := true
	var walk func(e sqlparser.Expr)
	walk = func(e sqlparser.Expr) {
		if le, isAnd := e.(*sqlparser.LogicalExpr); isAnd && le.Op == sqlparser.LogicAnd {
			walk(le.Left)
			walk(le.Right)
			return
		}
		cmp, isCmp := e.(*sqlparser.ComparisonExpr)
		if !isCmp || cmp.Op != sqltypes.CmpEQ {
			ok = false
			return
		}
		l, lok := cmp.Left.(*sqlparser.ColumnRef)
		r, rok := cmp.Right.(*sqlparser.ColumnRef)
		if !lok || !rok {
			ok = false
			return
		}
		lt, rt := strings.ToLower(l.Table), strings.ToLower(r.Table)
		if !(slices.Contains(left, lt) && slices.Contains(right, rt)) &&
			!(slices.Contains(left, rt) && slices.Contains(right, lt)) {
			ok = false
		}
	}
	walk(j.On)
	return ok
}

// hashJoinProbe carries the probe phase's shared, effectively-immutable
// state: the build index and its buckets, the compiled key and residual
// programs, and the join shape. probeSlice runs the probe over a slice
// of left rows with per-call environments and buffers, so the serial
// probe and every parallel morsel share one code path (and, per morsel,
// identical window boundaries — morselRows is a multiple of
// vec.BatchSize).
type hashJoinProbe struct {
	joinType   sqlparser.JoinType
	leftFrame  *frame
	outFrame   *frame
	leftKeys   []sqlparser.Expr
	leftProgs  []program
	resProg    program
	build      *rowIndex
	buildRows  [][]sqltypes.Row
	nullsRight sqltypes.Row
}

// probeSlice probes the build index with rows, returning the joined
// output in probe-row order and the matched-pair count. x is the
// executor the probe's environments evaluate under (a morsel's child
// executor on the parallel path). vp, when non-nil, enables the batch
// key-evaluation probe; errors fall back to the row probe per window,
// reproducing the interpreter's error ordering.
func (hj *hashJoinProbe) probeSlice(x *executor, vp *vplan, rows []sqltypes.Row) ([]sqltypes.Row, int64, error) {
	var out []sqltypes.Row
	joined := int64(0)
	cenv := &evalEnv{frame: hj.outFrame, x: x}
	combined := make(sqltypes.Row, hj.outFrame.width)
	appendJoined := func(ra, rb sqltypes.Row) {
		row := make(sqltypes.Row, 0, len(ra)+len(rb))
		row = append(row, ra...)
		row = append(row, rb...)
		out = append(out, row)
	}
	// probeRow emits the join output of one probe row against its
	// matching bucket (nil for NULL keys or no match): the residual
	// filter, the inner emission, and the left-join NULL padding. Both
	// the row and the batch probe paths funnel through it.
	probeRow := func(ra sqltypes.Row, bucket []sqltypes.Row) error {
		matched := false
		for _, rb := range bucket {
			joined++
			if hj.resProg != nil {
				copy(combined, ra)
				copy(combined[len(ra):], rb)
				cenv.row = combined
				v, err := hj.resProg(cenv)
				if err != nil {
					return err
				}
				if !v.IsTrue() {
					continue
				}
			}
			matched = true
			appendJoined(ra, rb)
		}
		if !matched && hj.joinType == sqlparser.JoinLeft {
			appendJoined(ra, hj.nullsRight)
		}
		return nil
	}
	// rowProbe is the row-at-a-time probe over a slice of left rows:
	// the whole input when vectorization is off, one batch window when
	// a batch kernel errored and the window re-runs to reproduce the
	// interpreter's error ordering.
	rowProbe := func(rows []sqltypes.Row) error {
		lenv := &evalEnv{frame: hj.leftFrame, x: x}
		lvals := make(sqltypes.Row, len(hj.leftKeys))
		for _, ra := range rows {
			lenv.row = ra
			null := false
			for i, p := range hj.leftProgs {
				v, err := p(lenv)
				if err != nil {
					return err
				}
				if v.IsNull() {
					null = true
					break
				}
				lvals[i] = v
			}
			var bucket []sqltypes.Row
			if !null {
				if id := hj.build.lookup(lvals); id >= 0 {
					bucket = hj.buildRows[id]
				}
			}
			if err := probeRow(ra, bucket); err != nil {
				return err
			}
		}
		return nil
	}
	if vp != nil {
		// Batch probe: evaluate the key columns per window, drop
		// NULL-keyed rows from the selection key-by-key (NULL keys
		// never match, and later key expressions must not run on them,
		// matching the row path's early break), hash the surviving
		// rows column-wise, then probe the build index with the
		// precomputed hashes in row order.
		vx := x.newVecExec(hj.leftFrame, rows)
		keyVecs := make([]*vec.Vec, len(hj.leftKeys))
		lvals := make(sqltypes.Row, len(hj.leftKeys))
		hash := make([]uint64, vec.BatchSize)
		isKeyed := make([]bool, vec.BatchSize)
		var selBuf [2][]int
		cur := vec.NewCursor(len(rows))
		for {
			lo, hi, ok := cur.Next()
			if !ok {
				break
			}
			vx.window(lo, hi)
			cursel := vx.selAll
			failed := false
			for k := range keyVecs {
				v, err := vp.nodes[k].eval(vx, cursel)
				if err != nil {
					failed = true
					break
				}
				keyVecs[k] = v
				nb := selBuf[k&1][:0]
				for _, i := range cursel {
					if !v.IsNullAt(i) {
						nb = append(nb, i)
					}
				}
				selBuf[k&1] = nb
				cursel = nb
			}
			if failed {
				x.eng.vecFallbacks.Add(1)
				if err := rowProbe(vx.win); err != nil {
					return nil, 0, err
				}
				continue
			}
			for i := 0; i < vx.n; i++ {
				isKeyed[i] = false
			}
			for _, i := range cursel {
				isKeyed[i] = true
			}
			vec.HashInit(hash[:vx.n], cursel)
			for _, v := range keyVecs {
				v.HashMix(hash[:vx.n], cursel)
			}
			for i := 0; i < vx.n; i++ {
				var bucket []sqltypes.Row
				if isKeyed[i] {
					for k, v := range keyVecs {
						lvals[k] = v.Get(i)
					}
					if id := hj.build.lookupPre(hash[i], lvals); id >= 0 {
						bucket = hj.buildRows[id]
					}
				}
				if err := probeRow(vx.win[i], bucket); err != nil {
					return nil, 0, err
				}
			}
		}
	} else if err := rowProbe(rows); err != nil {
		return nil, 0, err
	}
	return out, joined, nil
}

// splitEquiConjuncts decomposes an ON clause into hash-joinable key
// pairs (left expr, right expr) and the residual conjuncts to evaluate
// on the combined row (as a left-associative AND chain; see
// residualProg). Returning the original conjunct nodes instead of a
// synthesized AND tree keeps them compilable through the per-node
// program cache.
func splitEquiConjuncts(on sqlparser.Expr, lf, rf *frame) (leftKeys, rightKeys, residual []sqlparser.Expr) {
	var conjuncts []sqlparser.Expr
	var flatten func(e sqlparser.Expr)
	flatten = func(e sqlparser.Expr) {
		if le, ok := e.(*sqlparser.LogicalExpr); ok && le.Op == sqlparser.LogicAnd {
			flatten(le.Left)
			flatten(le.Right)
			return
		}
		conjuncts = append(conjuncts, e)
	}
	flatten(on)

	for _, c := range conjuncts {
		cmp, ok := c.(*sqlparser.ComparisonExpr)
		if ok && cmp.Op == sqltypes.CmpEQ {
			ls, rs := exprSide(cmp.Left, lf, rf), exprSide(cmp.Right, lf, rf)
			switch {
			case ls == sideLeft && rs == sideRight:
				leftKeys = append(leftKeys, cmp.Left)
				rightKeys = append(rightKeys, cmp.Right)
				continue
			case ls == sideRight && rs == sideLeft:
				leftKeys = append(leftKeys, cmp.Right)
				rightKeys = append(rightKeys, cmp.Left)
				continue
			}
		}
		residual = append(residual, c)
	}
	return leftKeys, rightKeys, residual
}

type side int

const (
	sideNone  side = iota // no column references (constant)
	sideLeft              // references only the left frame
	sideRight             // references only the right frame
	sideBoth              // mixed or unresolvable
)

// exprSide classifies which side(s) of a join an expression references.
func exprSide(e sqlparser.Expr, lf, rf *frame) side {
	result := sideNone
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		cr, ok := x.(*sqlparser.ColumnRef)
		if !ok {
			return true
		}
		inL := lf.hasColumn(cr)
		inR := rf.hasColumn(cr)
		var s side
		switch {
		case inL && inR:
			s = sideBoth // ambiguous
		case inL:
			s = sideLeft
		case inR:
			s = sideRight
		default:
			s = sideBoth // unresolvable here; be conservative
		}
		switch {
		case result == sideNone:
			result = s
		case result != s:
			result = sideBoth
		}
		return true
	})
	return result
}

// collectTables gathers every base table a statement will read,
// expanding views and skipping plain-CTE names.
func (x *executor) collectTables(st sqlparser.Statement) ([]*Table, error) {
	seen := make(map[string]*Table)
	local := make(map[string]bool)
	var fromBody func(b sqlparser.SelectBody) error
	var fromExpr func(e sqlparser.Expr) error

	addName := func(name string) error {
		lc := strings.ToLower(name)
		if local[lc] {
			return nil
		}
		if _, ok := seen[lc]; ok {
			return nil
		}
		if v, ok := x.eng.lookupView(name); ok {
			// Guard against self-referential views.
			local[lc] = true
			err := fromBody(v.body)
			local[lc] = false
			return err
		}
		if t, ok := x.eng.lookupTable(name); ok {
			seen[lc] = t
		}
		// Unknown names error later, during evaluation, with better
		// context.
		return nil
	}

	fromExpr = func(e sqlparser.Expr) error {
		var innerErr error
		sqlparser.WalkExpr(e, func(sub sqlparser.Expr) bool {
			switch t := sub.(type) {
			case *sqlparser.Subquery:
				if err := fromBody(t.Body); err != nil {
					innerErr = err
				}
				return false
			case *sqlparser.ExistsExpr:
				if err := fromBody(t.Body); err != nil {
					innerErr = err
				}
				return false
			case *sqlparser.InExpr:
				if t.Sub != nil {
					if err := fromBody(t.Sub); err != nil {
						innerErr = err
					}
				}
				return true
			}
			return true
		})
		return innerErr
	}

	fromBody = func(b sqlparser.SelectBody) error {
		switch s := b.(type) {
		case *sqlparser.Select:
			var err error
			sqlparser.WalkTableExprs(s, func(te sqlparser.TableExpr) bool {
				if tn, ok := te.(*sqlparser.TableName); ok {
					if e := addName(tn.Name); e != nil {
						err = e
						return false
					}
				}
				if je, ok := te.(*sqlparser.JoinExpr); ok && je.On != nil {
					if e := fromExpr(je.On); e != nil {
						err = e
						return false
					}
				}
				return true
			})
			if err != nil {
				return err
			}
			for _, it := range s.Items {
				if it.Expr != nil {
					if err := fromExpr(it.Expr); err != nil {
						return err
					}
				}
			}
			for _, e := range []sqlparser.Expr{s.Where, s.Having} {
				if e != nil {
					if err := fromExpr(e); err != nil {
						return err
					}
				}
			}
			return nil
		case *sqlparser.SetOp:
			if err := fromBody(s.Left); err != nil {
				return err
			}
			return fromBody(s.Right)
		case *sqlparser.Values:
			return nil
		case nil:
			return nil
		default:
			return nil
		}
	}

	switch s := st.(type) {
	case *sqlparser.SelectStmt:
		for _, cte := range s.With {
			if err := fromBody(cte.Body); err != nil {
				return nil, err
			}
			local[strings.ToLower(cte.Name)] = true
		}
		if err := fromBody(s.Body); err != nil {
			return nil, err
		}
	case *sqlparser.InsertStmt:
		if err := fromBody(s.Source); err != nil {
			return nil, err
		}
	case *sqlparser.UpdateStmt:
		for _, te := range s.From {
			if tn, ok := te.(*sqlparser.TableName); ok {
				if err := addName(tn.Name); err != nil {
					return nil, err
				}
			}
			if sq, ok := te.(*sqlparser.SubqueryTable); ok {
				if err := fromBody(sq.Body); err != nil {
					return nil, err
				}
			}
			if je, ok := te.(*sqlparser.JoinExpr); ok {
				var err error
				walkJoin(je, func(tn *sqlparser.TableName) {
					if e := addName(tn.Name); e != nil {
						err = e
					}
				})
				if err != nil {
					return nil, err
				}
			}
		}
		for _, a := range s.Sets {
			if err := fromExpr(a.Value); err != nil {
				return nil, err
			}
		}
		if s.Where != nil {
			if err := fromExpr(s.Where); err != nil {
				return nil, err
			}
		}
	case *sqlparser.DeleteStmt:
		if s.Where != nil {
			if err := fromExpr(s.Where); err != nil {
				return nil, err
			}
		}
	}

	out := make([]*Table, 0, len(seen))
	for _, t := range seen {
		out = append(out, t)
	}
	return out, nil
}

func walkJoin(je *sqlparser.JoinExpr, fn func(*sqlparser.TableName)) {
	for _, side := range []sqlparser.TableExpr{je.Left, je.Right} {
		switch t := side.(type) {
		case *sqlparser.TableName:
			fn(t)
		case *sqlparser.JoinExpr:
			walkJoin(t, fn)
		}
	}
}

// tryIndexJoin runs an index nested-loop join when the right side is a
// base table whose single equi-join column is its primary key or carries
// a hash index: each left row becomes a point lookup instead of a scan.
// This is the access path SQLoop's materialized-join index exists for
// (§V-C: "indexes on all tables ensure that unnecessary scans will be
// avoided").
//
// pushRight, when non-nil, is a pushed WHERE (see evalJoin); when it
// resolves against the right table alone it filters each looked-up row
// before the residual.
func (x *executor) tryIndexJoin(j *sqlparser.JoinExpr, left *source, pushRight sqlparser.Expr) (*source, bool, error) {
	if j.Type == sqlparser.JoinCross {
		return nil, false, nil
	}
	tn, ok := j.Right.(*sqlparser.TableName)
	if !ok {
		return nil, false, nil
	}
	// CTEs and views shadow tables; only real base tables have indexes.
	if _, isCTE := x.ctes[strings.ToLower(tn.Name)]; isCTE {
		return nil, false, nil
	}
	if _, isView := x.eng.lookupView(tn.Name); isView {
		return nil, false, nil
	}
	tbl, ok := x.eng.lookupTable(tn.Name)
	if !ok {
		return nil, false, nil
	}
	alias := tn.Alias
	if alias == "" {
		alias = tn.Name
	}
	rightFrame := &frame{}
	rightFrame.addRel(alias, tbl.schema.Names())

	leftKeys, rightKeys, residual := splitEquiConjuncts(j.On, left.frame, rightFrame)
	if len(leftKeys) != 1 {
		return nil, false, nil
	}
	rc, ok := rightKeys[0].(*sqlparser.ColumnRef)
	if !ok {
		return nil, false, nil
	}
	col := tbl.schema.ColumnIndex(rc.Name)
	if col < 0 {
		return nil, false, nil
	}
	// Locate the access path: primary key or a hash index on the column.
	var ix *hashIndex
	if !(tbl.pkCol >= 0 && col == tbl.pkCol) {
		for _, cand := range tbl.indexes {
			if cand.col == col {
				ix = cand
				break
			}
		}
		if ix == nil {
			return nil, false, nil
		}
	}

	outFrame := concatFrames(left.frame, rightFrame)
	if err := x.validateExpr(j.On, outFrame, nil); err != nil {
		return nil, false, err
	}
	out := &source{frame: outFrame}
	var rightProg program
	if pushRight != nil && x.validateExpr(pushRight, rightFrame, nil) == nil {
		rightProg = x.prog(pushRight, rightFrame)
		out.pushed = true
	}
	nullsRight := make(sqltypes.Row, rightFrame.width)
	keyProg := x.prog(leftKeys[0], left.frame)
	resProg := x.residualProg(residual, outFrame)
	lenv := &evalEnv{frame: left.frame, x: x}
	renv := &evalEnv{frame: rightFrame, x: x}
	cenv := &evalEnv{frame: outFrame, x: x}
	combined := make(sqltypes.Row, outFrame.width)
	joined, read := int64(0), int64(0)
	var pkEnt [1]ixEntry

	for _, ra := range left.rows {
		lenv.row = ra
		kv, err := keyProg(lenv)
		if err != nil {
			return nil, false, err
		}
		matched := false
		if !kv.IsNull() {
			// The primary key is a one-entry bucket; an index bucket is
			// walked in insertion order.
			ents := pkEnt[:]
			if ix == nil {
				pkEnt[0].pk = kv.MapKey()
			} else {
				ents = ix.bucket(kv.MapKey())
			}
			for _, e := range ents {
				if e.dead {
					continue
				}
				rb, found := tbl.store.Get(e.pk)
				if !found {
					continue
				}
				read++
				if rightProg != nil {
					// A raising predicate keeps the row, as in pushFilter.
					renv.row = rb
					v, err := rightProg(renv)
					if err != nil {
						out.pushRaised = true
					} else if !v.IsTrue() {
						continue
					}
				}
				joined++
				if resProg != nil {
					copy(combined, ra)
					copy(combined[len(ra):], rb)
					cenv.row = combined
					v, err := resProg(cenv)
					if err != nil {
						return nil, false, err
					}
					if !v.IsTrue() {
						continue
					}
				}
				matched = true
				row := make(sqltypes.Row, 0, len(ra)+len(rb))
				row = append(row, ra...)
				row = append(row, rb...)
				out.rows = append(out.rows, row)
			}
		}
		if !matched && j.Type == sqlparser.JoinLeft {
			row := make(sqltypes.Row, 0, len(ra)+len(nullsRight))
			row = append(row, ra...)
			row = append(row, nullsRight...)
			out.rows = append(out.rows, row)
		}
	}
	x.work.joined += joined
	x.work.scanned += int64(len(left.rows)) // one lookup per probe
	x.eng.stats.RowsScanned.Add(read)
	x.eng.stats.RowsJoined.Add(joined)
	return out, true, nil
}
