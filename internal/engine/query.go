package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sqloop/internal/sqlparser"
	"sqloop/internal/sqltypes"
)

// relation is a fully materialized intermediate result.
type relation struct {
	name string
	cols []string
	rows []sqltypes.Row
}

// executor runs one statement. It carries bind args, the plain-CTE
// scope, and per-statement work counters for the cost model.
type executor struct {
	sess *Session
	eng  *Engine
	args []sqltypes.Value
	ctes map[string]*relation
	work workCounters
	// inCache memoizes uncorrelated IN-subquery results per statement.
	inCache map[*sqlparser.InExpr][]sqltypes.Value
	// progs, when non-nil, is the compiled-program cache shared by every
	// execution of this (cached or prepared) statement.
	progs *progCache
}

// chargeCost accrues the simulated latency of the statement's work to
// the session and sleeps whenever a full quantum is owed.
func (x *executor) chargeCost() {
	if x.eng.cfg.Cost == nil {
		return
	}
	x.sess.costDebt += x.eng.cfg.Cost.charge(x.work)
	if x.sess.costDebt >= costQuantum {
		d := x.sess.costDebt
		x.sess.costDebt = 0
		sleep(d)
	}
}

// run dispatches a statement. DML/DDL live in exec.go.
func (x *executor) run(st sqlparser.Statement) (*Result, error) {
	switch s := st.(type) {
	case *sqlparser.SelectStmt:
		return x.runSelect(s)
	case *sqlparser.LoopCTEStmt:
		return nil, fmt.Errorf("engine: %s CTEs must be executed through SQLoop, not sent to an engine",
			map[sqlparser.CTEKind]string{
				sqlparser.CTERecursive: "RECURSIVE",
				sqlparser.CTEIterative: "ITERATIVE",
			}[s.Kind])
	case *sqlparser.CreateTableStmt:
		return x.runCreateTable(s)
	case *sqlparser.CreateIndexStmt:
		return x.runCreateIndex(s)
	case *sqlparser.CreateViewStmt:
		return x.runCreateView(s)
	case *sqlparser.DropStmt:
		return x.runDrop(s)
	case *sqlparser.InsertStmt:
		return x.runInsert(s)
	case *sqlparser.UpdateStmt:
		return x.runUpdate(s)
	case *sqlparser.DeleteStmt:
		return x.runDelete(s)
	case *sqlparser.TruncateStmt:
		return x.runTruncate(s)
	case *sqlparser.TxStmt:
		switch s.Kind {
		case sqlparser.TxBegin:
			x.sess.begin()
		case sqlparser.TxCommit:
			x.sess.commit()
		case sqlparser.TxRollback:
			x.sess.rollback()
		}
		return &Result{}, nil
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", st)
	}
}

func (x *executor) runSelect(s *sqlparser.SelectStmt) (*Result, error) {
	// Lock every referenced base table for reading for the duration.
	reads, err := x.collectTables(s)
	if err != nil {
		return nil, err
	}
	unlock := x.eng.lockTables(reads, nil)
	defer unlock()

	if err := x.bindCTEs(s.With); err != nil {
		return nil, err
	}
	rel, err := x.evalBody(s.Body)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: rel.cols, Rows: rel.rows}, nil
}

// bindCTEs evaluates plain WITH entries into the executor's scope.
func (x *executor) bindCTEs(ctes []sqlparser.PlainCTE) error {
	for _, cte := range ctes {
		rel, err := x.evalBody(cte.Body)
		if err != nil {
			return fmt.Errorf("CTE %s: %w", cte.Name, err)
		}
		if len(cte.Columns) > 0 {
			if len(cte.Columns) != len(rel.cols) {
				return fmt.Errorf("engine: CTE %s declares %d columns, query returns %d",
					cte.Name, len(cte.Columns), len(rel.cols))
			}
			rel.cols = append([]string(nil), cte.Columns...)
		}
		rel.name = cte.Name
		if x.ctes == nil {
			x.ctes = make(map[string]*relation)
		}
		x.ctes[strings.ToLower(cte.Name)] = rel
	}
	return nil
}

// evalBody evaluates any select body to a relation.
func (x *executor) evalBody(b sqlparser.SelectBody) (*relation, error) {
	switch s := b.(type) {
	case *sqlparser.Select:
		return x.evalSelect(s)
	case *sqlparser.Values:
		return x.evalValues(s)
	case *sqlparser.SetOp:
		return x.evalSetOp(s)
	default:
		return nil, fmt.Errorf("engine: unsupported select body %T", b)
	}
}

func (x *executor) evalValues(v *sqlparser.Values) (*relation, error) {
	rel := &relation{}
	env := &evalEnv{x: x}
	for i, rowExprs := range v.Rows {
		if i == 0 {
			for j := range rowExprs {
				rel.cols = append(rel.cols, "column"+strconv.Itoa(j+1))
			}
		} else if len(rowExprs) != len(rel.cols) {
			return nil, fmt.Errorf("engine: VALUES rows have differing arity")
		}
		row := make(sqltypes.Row, len(rowExprs))
		for j, e := range rowExprs {
			val, err := env.evalExpr(e)
			if err != nil {
				return nil, err
			}
			row[j] = val
		}
		rel.rows = append(rel.rows, row)
	}
	return rel, nil
}

func (x *executor) evalSetOp(s *sqlparser.SetOp) (*relation, error) {
	left, err := x.evalBody(s.Left)
	if err != nil {
		return nil, err
	}
	right, err := x.evalBody(s.Right)
	if err != nil {
		return nil, err
	}
	if len(left.cols) != len(right.cols) {
		return nil, fmt.Errorf("engine: UNION arms have %d and %d columns",
			len(left.cols), len(right.cols))
	}
	out := &relation{cols: left.cols}
	switch s.Kind {
	case sqlparser.SetIntersect:
		inRight := x.newRowIndex(len(right.rows))
		for _, r := range right.rows {
			inRight.bucket(r, true)
		}
		seen := x.newRowIndex(len(left.rows))
		for _, r := range left.rows {
			if inRight.lookup(r) < 0 {
				continue
			}
			if _, isNew := seen.bucket(r, true); !isNew {
				continue
			}
			out.rows = append(out.rows, r)
		}
	case sqlparser.SetExcept:
		inRight := x.newRowIndex(len(right.rows))
		for _, r := range right.rows {
			inRight.bucket(r, true)
		}
		seen := x.newRowIndex(len(left.rows))
		for _, r := range left.rows {
			if inRight.lookup(r) >= 0 {
				continue
			}
			if _, isNew := seen.bucket(r, true); !isNew {
				continue
			}
			out.rows = append(out.rows, r)
		}
	default:
		if s.All {
			out.rows = append(append([]sqltypes.Row(nil), left.rows...), right.rows...)
		} else {
			seen := x.newRowIndex(len(left.rows) + len(right.rows))
			for _, src := range [][]sqltypes.Row{left.rows, right.rows} {
				for _, r := range src {
					if _, isNew := seen.bucket(r, true); !isNew {
						continue
					}
					out.rows = append(out.rows, r)
				}
			}
		}
	}
	if len(s.OrderBy) > 0 {
		if err := sortRelationByOrdinals(out, s.OrderBy); err != nil {
			return nil, err
		}
	}
	if s.Limit != nil {
		if *s.Limit < 0 {
			return nil, &ErrInvalidLimit{Clause: "LIMIT", N: *s.Limit}
		}
		if int64(len(out.rows)) > *s.Limit {
			out.rows = out.rows[:*s.Limit]
		}
	}
	return out, nil
}

// sortRelationByOrdinals sorts a set-operation result; order keys must
// be ordinals or output column names (there is no underlying row scope).
func sortRelationByOrdinals(rel *relation, items []sqlparser.OrderItem) error {
	idx := make([]int, len(items))
	for i, it := range items {
		switch e := it.Expr.(type) {
		case *sqlparser.Literal:
			if e.Val.Kind() != sqltypes.KindInt {
				return fmt.Errorf("engine: ORDER BY ordinal must be an integer")
			}
			n := int(e.Val.Int())
			if n < 1 || n > len(rel.cols) {
				return fmt.Errorf("engine: ORDER BY position %d out of range", n)
			}
			idx[i] = n - 1
		case *sqlparser.ColumnRef:
			found := -1
			for j, c := range rel.cols {
				if strings.EqualFold(c, e.Name) {
					found = j
					break
				}
			}
			if found < 0 {
				return &ErrColumnNotFound{Name: e.Name}
			}
			idx[i] = found
		default:
			return fmt.Errorf("engine: ORDER BY on set operations supports ordinals and column names only")
		}
	}
	// Decorate-sort-undecorate: extract the key columns once, sort a
	// permutation, then reorder the rows.
	keys := make([][]sqltypes.Value, len(rel.rows))
	desc := make([]bool, len(items))
	for i, it := range items {
		desc[i] = it.Desc
	}
	for i, r := range rel.rows {
		k := make([]sqltypes.Value, len(idx))
		for j, col := range idx {
			k[j] = r[col]
		}
		keys[i] = k
	}
	perm := sortIndexByKeys(len(rel.rows), keys, desc)
	sorted := make([]sqltypes.Row, len(rel.rows))
	for i, k := range perm {
		sorted[i] = rel.rows[k]
	}
	rel.rows = sorted
	return nil
}

// encodeRowKey builds a collision-free string key for a row (used by
// DISTINCT, UNION and GROUP BY).
func encodeRowKey(r sqltypes.Row) string {
	var sb strings.Builder
	for _, v := range r {
		k := v.MapKey()
		val := k.Value()
		sb.WriteByte(byte(val.Kind()) + '0')
		s := val.String()
		sb.WriteString(strconv.Itoa(len(s)))
		sb.WriteByte(':')
		sb.WriteString(s)
	}
	return sb.String()
}

// source is a materialized FROM item: a frame plus its rows.
// scanCharged marks a source whose rows were already billed to
// work.scanned by a full table scan; the morsel dispatcher uses it to
// move that charge onto the workers so the cost model's sleeps overlap
// (see takeScanCharge).
type source struct {
	frame       *frame
	rows        []sqltypes.Row
	scanCharged bool
	// pushed marks rows already filtered by a WHERE pushed below a
	// join (see pushFilter), so no enclosing join filters them again.
	// pushRaised records that the pushed WHERE raised on some row (and
	// kept it), so the full WHERE must run again over the joined rows.
	pushed, pushRaised bool
}

// outRow pairs a projected output row with the environment it was
// produced in. env is nil when no later stage needs it: the batch
// projection and the grouped path drop it once ORDER BY is known to read
// only the output row.
type outRow struct {
	row sqltypes.Row
	env *evalEnv
}

// ErrInvalidLimit is returned for a negative LIMIT or OFFSET. The
// parser rejects negative literals, but ExecStmt accepts arbitrary
// programmatically-built ASTs, which used to panic slicing the output.
type ErrInvalidLimit struct {
	Clause string // "LIMIT" or "OFFSET"
	N      int64
}

func (e *ErrInvalidLimit) Error() string {
	return fmt.Sprintf("engine: %s must not be negative, got %d", e.Clause, e.N)
}

// evalSelect evaluates a SELECT core. Per-row expressions run as
// compiled programs from the statement's (cached) select plan; with
// Config.DisableExprCompile the same plan structure carries
// interpreter thunks, so both modes share one code path.
func (x *executor) evalSelect(s *sqlparser.Select) (*relation, error) {
	src, err := x.evalFromList(s.From, s.Where)
	if err != nil {
		return nil, err
	}

	// WHERE (before star expansion, matching interpreter error order).
	// A WHERE pushed whole into one join input that raised on none of
	// its rows already holds for every joined row (see pushFilter).
	if s.Where != nil && !(src.pushed && !src.pushRaised && x.validateExpr(s.Where, src.frame, nil) == nil) {
		if src.rows, err = x.filterRows(s.Where, src, nil); err != nil {
			return nil, err
		}
	}

	plan, err := x.selectPlan(s, src.frame)
	if err != nil {
		return nil, err
	}
	items, cols := plan.items, plan.cols

	// Static validation so reference errors surface on empty inputs too.
	for _, it := range items {
		if err := x.validateExpr(it.Expr, src.frame, nil); err != nil {
			return nil, err
		}
	}
	for _, e := range []sqlparser.Expr{s.Where, s.Having} {
		if e != nil {
			if err := x.validateExpr(e, src.frame, nil); err != nil {
				return nil, err
			}
		}
	}
	for _, g := range s.GroupBy {
		if err := x.validateExpr(g, src.frame, nil); err != nil {
			return nil, err
		}
	}
	for _, o := range s.OrderBy {
		if err := x.validateExpr(o.Expr, src.frame, cols); err != nil {
			return nil, err
		}
	}

	var outputs []outRow

	if len(s.GroupBy) > 0 || len(plan.aggs) > 0 {
		// Batch grouping: hash whole key columns at once and stream the
		// vectorizable aggregates into dense accumulators. Any batch
		// error falls back to the full row path (groups must be complete
		// before aggregation), which reproduces the interpreter's error.
		var groups []*group
		var vaggs []*vecAgg
		vecDone := false
		parCharged := false // morsel workers already billed work.grouped
		if x.vecOK() && plan.vecGB != nil {
			if x.parallelOK(len(src.rows)) {
				groups, vaggs, vecDone = x.vecGroupPar(plan, src)
				parCharged = vecDone
			}
			if !vecDone {
				groups, vaggs, _, vecDone = x.vecGroup(plan, src)
			}
		}
		if !vecDone {
			groups, err = x.groupRows(src, plan.groupBy)
			if err != nil {
				return nil, err
			}
		}
		// Counted once, by whichever grouping path finished (a failed
		// batch attempt falls through to groupRows over the same rows).
		x.eng.stats.RowsGrouped.Add(int64(len(src.rows)))
		// One environment serves every group unless an ORDER BY key
		// reads the environment after projection; then each group keeps
		// its own, with the aggregate values carved from one slab.
		nAggs := len(plan.aggs)
		envs := make([]evalEnv, 1)
		if !plan.orderRowOnly {
			envs = make([]evalEnv, len(groups))
		}
		slab := make([]sqltypes.Value, len(envs)*nAggs)
		for i := range envs {
			envs[i] = evalEnv{frame: src.frame, x: x, aggIdx: plan.aggIdx, aggs: slab[i*nAggs : (i+1)*nAggs : (i+1)*nAggs]}
		}
		for gi, g := range groups {
			env := &envs[0]
			var keep *evalEnv // the environment ORDER BY reads, if any
			if !plan.orderRowOnly {
				env = &envs[gi]
				keep = env
			}
			switch {
			case g.first != nil:
				env.row = g.first
			case len(g.rows) > 0:
				env.row = g.rows[0]
			default:
				env.row = make(sqltypes.Row, src.frame.width)
			}
			for i, fc := range plan.aggs {
				if vecDone && plan.aggVec[i] >= 0 {
					env.aggs[i] = vaggs[plan.aggVec[i]].finalize(gi)
					continue
				}
				v, err := x.computeAggregate(fc, plan.aggArgs[i], src.frame, g.rows)
				if err != nil {
					return nil, err
				}
				env.aggs[i] = v
			}
			if plan.having != nil {
				hv, err := plan.having(env)
				if err != nil {
					return nil, err
				}
				if !hv.IsTrue() {
					continue
				}
			}
			row, err := projectRow(plan.itemProgs, env)
			if err != nil {
				return nil, err
			}
			outputs = append(outputs, outRow{row: row, env: keep})
			if !parCharged {
				x.work.grouped += g.size()
			}
		}
	} else if x.vecOK() && plan.vecItems.useVec() && (len(plan.orderFns) == 0 || plan.orderRowOnly) {
		if x.parallelOK(len(src.rows)) {
			outputs, err = x.vecProjectPar(plan, src)
		} else {
			outputs, err = x.vecProject(plan, src)
		}
		if err != nil {
			return nil, err
		}
	} else {
		for _, r := range src.rows {
			rowEnv := &evalEnv{frame: src.frame, x: x, row: r}
			row, err := projectRow(plan.itemProgs, rowEnv)
			if err != nil {
				return nil, err
			}
			outputs = append(outputs, outRow{row: row, env: rowEnv})
		}
	}

	// DISTINCT.
	if s.Distinct {
		ix := x.newRowIndex(len(outputs))
		kept := outputs[:0]
		for _, o := range outputs {
			if _, isNew := ix.bucket(o.row, true); isNew {
				kept = append(kept, o)
			}
		}
		outputs = kept
	}

	// ORDER BY: decorate-sort-undecorate — each key is computed exactly
	// once per output row, then rows are reordered by a precomputed
	// permutation.
	if len(plan.orderFns) > 0 {
		keys := make([][]sqltypes.Value, len(outputs))
		for i, o := range outputs {
			keys[i] = make([]sqltypes.Value, len(plan.orderFns))
			for j, fn := range plan.orderFns {
				v, err := fn(o.row, o.env)
				if err != nil {
					return nil, err
				}
				keys[i][j] = v
			}
		}
		idx := sortIndexByKeys(len(outputs), keys, plan.desc)
		sorted := make([]outRow, len(outputs))
		for i, k := range idx {
			sorted[i] = outputs[k]
		}
		outputs = sorted
	}

	if s.Offset != nil {
		if *s.Offset < 0 {
			return nil, &ErrInvalidLimit{Clause: "OFFSET", N: *s.Offset}
		}
		if off := int(*s.Offset); off >= len(outputs) {
			outputs = nil
		} else {
			outputs = outputs[off:]
		}
	}
	if s.Limit != nil {
		if *s.Limit < 0 {
			return nil, &ErrInvalidLimit{Clause: "LIMIT", N: *s.Limit}
		}
		if int64(len(outputs)) > *s.Limit {
			outputs = outputs[:*s.Limit]
		}
	}

	rel := &relation{cols: cols, rows: make([]sqltypes.Row, len(outputs))}
	for i, o := range outputs {
		rel.rows[i] = o.row
	}
	return rel, nil
}

// filterRows returns the rows of src for which where holds, batch-at-a-
// time when the predicate has a batch plan (morsel-parallel on large
// inputs) and through the compiled row program otherwise. It serves
// both the WHERE over a FROM clause and the filters pushed below a
// join. With a non-nil raised (deferred errors) a row whose predicate
// raises is kept rather than failing the statement, and *raised is set:
// a pushed filter leaves that verdict to the full WHERE over the joined
// rows, which raises exactly when the row survives the join.
func (x *executor) filterRows(where sqlparser.Expr, src *source, raised *bool) ([]sqltypes.Row, error) {
	if vp := x.vecPlanFor(where, src.frame); vp != nil {
		if x.parallelOK(len(src.rows)) {
			return x.vecFilterPar(vp, where, src, raised)
		}
		return x.vecFilter(vp, where, src, raised)
	}
	env := &evalEnv{frame: src.frame, x: x}
	return keepRows(x.prog(where, src.frame), env, src.rows, src.rows[:0:0], raised)
}

// keepRows appends to kept the rows for which the row program p yields
// TRUE (and, with deferred errors, those for which it raises; see
// filterRows).
func keepRows(p program, env *evalEnv, rows, kept []sqltypes.Row, raised *bool) ([]sqltypes.Row, error) {
	for _, r := range rows {
		env.row = r
		v, err := p(env)
		if err != nil {
			if raised == nil {
				return nil, err
			}
			*raised = true
			kept = append(kept, r)
			continue
		}
		if v.IsTrue() {
			kept = append(kept, r)
		}
	}
	return kept, nil
}

// sortIndexByKeys returns the stable ordering of n rows under the
// decorated sort keys (one slice per row, with per-key direction).
func sortIndexByKeys(n int, keys [][]sqltypes.Value, desc []bool) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		for j := range desc {
			c := sqltypes.CompareTotal(ka[j], kb[j])
			if desc[j] {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return idx
}

// expandStars replaces * and t.* items with explicit column references.
func expandStars(items []sqlparser.SelectItem, f *frame) ([]sqlparser.SelectItem, error) {
	out := make([]sqlparser.SelectItem, 0, len(items))
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		matched := false
		for _, r := range f.rels {
			if it.Table != "" && !strings.EqualFold(r.name, it.Table) {
				continue
			}
			matched = true
			for i, c := range r.cols {
				ref := &sqlparser.ColumnRef{Table: r.name, Name: c}
				if repeatsName(r.cols, c) {
					ref.Ord = i + 1
				}
				out = append(out, sqlparser.SelectItem{Expr: ref})
			}
		}
		if !matched && it.Table != "" {
			return nil, fmt.Errorf("engine: unknown table %q in %s.*", it.Table, it.Table)
		}
	}
	return out, nil
}

// repeatsName reports whether name occurs more than once in cols.
func repeatsName(cols []string, name string) bool {
	n := 0
	for _, c := range cols {
		if strings.EqualFold(c, name) {
			n++
		}
	}
	return n > 1
}

// outputColumns names the result columns.
func outputColumns(items []sqlparser.SelectItem) []string {
	cols := make([]string, len(items))
	for i, it := range items {
		switch {
		case it.Alias != "":
			cols[i] = it.Alias
		default:
			if cr, ok := it.Expr.(*sqlparser.ColumnRef); ok {
				cols[i] = cr.Name
			} else {
				cols[i] = "column" + strconv.Itoa(i+1)
			}
		}
	}
	return cols
}

// projectRow materializes one output row from the compiled item
// programs.
func projectRow(itemProgs []program, env *evalEnv) (sqltypes.Row, error) {
	row := make(sqltypes.Row, len(itemProgs))
	for i, p := range itemProgs {
		v, err := p(env)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// group is one GROUP BY bucket. Batch grouping with fully-vectorized
// aggregates leaves rows nil and tracks only the first member row and
// the member count; the row path and partially-vectorized plans
// materialize rows (computeAggregate needs them).
type group struct {
	rows  []sqltypes.Row
	first sqltypes.Row
	n     int64
}

// size is the number of member rows, whether or not they were kept.
func (g *group) size() int64 {
	if g.rows == nil {
		return g.n
	}
	return int64(len(g.rows))
}

// groupRows buckets the source rows by the compiled GROUP BY key
// programs, preserving first-seen order (the row index hands out dense
// ids in insertion order). With no keys it forms a single (possibly
// empty) group.
func (x *executor) groupRows(src *source, keyProgs []program) ([]*group, error) {
	if len(keyProgs) == 0 {
		return []*group{{rows: src.rows}}, nil
	}
	ix := x.newRowIndex(0)
	var groups []*group
	env := &evalEnv{frame: src.frame, x: x}
	kvals := make(sqltypes.Row, len(keyProgs))
	for _, r := range src.rows {
		env.row = r
		for i, p := range keyProgs {
			v, err := p(env)
			if err != nil {
				return nil, err
			}
			kvals[i] = v
		}
		id, isNew := ix.bucket(kvals, false)
		if isNew {
			groups = append(groups, &group{})
		}
		groups[id].rows = append(groups[id].rows, r)
	}
	return groups, nil
}

// computeAggregate evaluates one aggregate call over a group; argProg
// is the call's compiled argument (nil for COUNT(*) and malformed
// calls, which error out before it is used).
func (x *executor) computeAggregate(fc *sqlparser.FuncCall, argProg program, f *frame, rows []sqltypes.Row) (sqltypes.Value, error) {
	if fc.Star {
		if fc.Name != "COUNT" {
			return sqltypes.Null, fmt.Errorf("engine: %s(*) is not valid", fc.Name)
		}
		return sqltypes.NewInt(int64(len(rows))), nil
	}
	if len(fc.Args) != 1 {
		return sqltypes.Null, fmt.Errorf("engine: %s takes exactly one argument", fc.Name)
	}
	env := &evalEnv{frame: f, x: x}
	var (
		count    int64
		sumInt   int64
		sumFloat float64
		isFloat  bool
		best     = sqltypes.Null
		seen     *rowIndex
		scratch  sqltypes.Row
	)
	if fc.Distinct {
		seen = x.newRowIndex(0)
		scratch = make(sqltypes.Row, 1)
	}
	for _, r := range rows {
		env.row = r
		v, err := argProg(env)
		if err != nil {
			return sqltypes.Null, err
		}
		if v.IsNull() {
			continue
		}
		if fc.Distinct {
			scratch[0] = v
			if _, isNew := seen.bucket(scratch, false); !isNew {
				continue
			}
		}
		count++
		switch fc.Name {
		case "COUNT":
		case "SUM", "AVG":
			if !v.IsNumeric() {
				return sqltypes.Null, fmt.Errorf("engine: %s of non-numeric value", fc.Name)
			}
			if v.Kind() == sqltypes.KindFloat {
				if !isFloat {
					isFloat = true
					sumFloat = float64(sumInt)
				}
				sumFloat += v.Float()
			} else if isFloat {
				sumFloat += v.Float()
			} else if s, ok := addInt64(sumInt, v.Int()); ok {
				sumInt = s
			} else {
				// Int64 overflow: promote the accumulator to float rather
				// than wrapping silently (see DESIGN.md, aggregates). The
				// result loses integer precision but keeps its magnitude
				// and sign.
				isFloat = true
				sumFloat = float64(sumInt) + float64(v.Int())
			}
		case "MIN", "MAX":
			if best.IsNull() {
				best = v
				continue
			}
			c, err := sqltypes.Compare(v, best)
			if err != nil {
				return sqltypes.Null, err
			}
			if (fc.Name == "MIN" && c < 0) || (fc.Name == "MAX" && c > 0) {
				best = v
			}
		}
	}
	switch fc.Name {
	case "COUNT":
		return sqltypes.NewInt(count), nil
	case "SUM":
		if count == 0 {
			return sqltypes.Null, nil
		}
		if isFloat {
			return sqltypes.NewFloat(sumFloat), nil
		}
		return sqltypes.NewInt(sumInt), nil
	case "AVG":
		if count == 0 {
			return sqltypes.Null, nil
		}
		if !isFloat {
			sumFloat = float64(sumInt)
		}
		return sqltypes.NewFloat(sumFloat / float64(count)), nil
	case "MIN", "MAX":
		return best, nil
	default:
		return sqltypes.Null, fmt.Errorf("engine: unknown aggregate %s", fc.Name)
	}
}

// addInt64 adds two int64s, reporting false on overflow.
func addInt64(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}
