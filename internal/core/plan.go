package core

import (
	"strings"

	"sqloop/internal/sqlparser"
	"sqloop/internal/sqltypes"
)

// plan holds everything the parallel executor needs to generate the
// per-partition Compute and Gather statements (§V-B..D).
type plan struct {
	cte  *sqlparser.LoopCTEStmt
	an   Analysis
	cols []string // CTE column names, cols[0] = Rid
	p    int      // partition count
	tok  string   // per-execution namespace token
	rQL  string   // name R resolves to (tokenized view over the partitions)

	valueSets []sqlparser.Assignment // absorb-phase SET list (non-delta items)
	deltaCol  string
	idCol     string

	materialized bool // mjoin in use
	avg          bool // AVG needs (sum, count) message columns
}

// Hidden companion columns for AVG accumulation (§V-D).
const (
	avgSumCol = "sqloop_avg_sum"
	avgCntCol = "sqloop_avg_cnt"
)

// newPlan derives the plan from a successful analysis.
func newPlan(cte *sqlparser.LoopCTEStmt, an Analysis, cols []string, parts int, tok string, materialize bool) *plan {
	pl := &plan{
		cte:          cte,
		an:           an,
		cols:         cols,
		p:            parts,
		tok:          tok,
		rQL:          rTableName(tok, cte.Name),
		deltaCol:     cols[an.DeltaItem],
		idCol:        cols[0],
		materialized: materialize,
		avg:          an.AggName == "AVG",
	}
	step := cte.Step.(*sqlparser.Select)
	for i, it := range step.Items {
		if i == 0 || i == an.DeltaItem {
			continue
		}
		pl.valueSets = append(pl.valueSets, sqlparser.Assignment{
			Column: cols[i],
			Value:  sqlparser.CloneExpr(it.Expr),
		})
	}
	return pl
}

// partName is the partition table for index x.
func (pl *plan) partName(x int) string { return partTableName(pl.tok, pl.cte.Name, x) }

// partitionStmts splits table R into p hash partitions and replaces R
// with a view over their union (§V-B). AVG plans add the hidden
// accumulator columns.
func (pl *plan) partitionStmts() []sqlparser.Statement {
	var stmts []sqlparser.Statement
	partCols := append([]string(nil), pl.cols...)
	if pl.avg {
		partCols = append(partCols, avgSumCol, avgCntCol)
	}
	for x := 0; x < pl.p; x++ {
		stmts = append(stmts, dropTable(pl.partName(x)))
		stmts = append(stmts, createAnyTable(pl.partName(x), partCols, true))
		sel := &sqlparser.Select{
			From:  []sqlparser.TableExpr{tbl(pl.rQL)},
			Where: eq(pl.partOf(col("", pl.idCol)), intLit(int64(x))),
		}
		for _, c := range pl.cols {
			sel.Items = append(sel.Items, item(col("", c), ""))
		}
		if pl.avg {
			sel.Items = append(sel.Items,
				item(litVal(sqltypes.NewFloat(0)), avgSumCol),
				item(litVal(sqltypes.NewFloat(0)), avgCntCol))
		}
		stmts = append(stmts, insertBody(pl.partName(x), sel))
	}
	stmts = append(stmts, dropTable(pl.rQL))
	stmts = append(stmts, &sqlparser.CreateViewStmt{Name: pl.rQL, Body: pl.unionBody()})
	return stmts
}

// unionBody selects the public CTE columns from every partition.
func (pl *plan) unionBody() sqlparser.SelectBody {
	bodies := make([]sqlparser.SelectBody, pl.p)
	for x := 0; x < pl.p; x++ {
		sel := &sqlparser.Select{From: []sqlparser.TableExpr{tbl(pl.partName(x))}}
		for _, c := range pl.cols {
			sel.Items = append(sel.Items, item(col("", c), c))
		}
		bodies[x] = sel
	}
	return unionAll(bodies)
}

// mjoinStmts materialize the constant part of the join (§V-B): the
// relation table projected to (src_id, dst_id, used attributes), indexed
// on src_id so Compute's outgoing-message join is a lookup.
func (pl *plan) mjoinStmts() []sqlparser.Statement {
	name := mjoinTableName(pl.tok, pl.cte.Name)
	sel := &sqlparser.Select{
		From: []sqlparser.TableExpr{tblAs(pl.an.EdgeTable, pl.an.EdgeAlias)},
		Items: []sqlparser.SelectItem{
			item(col(pl.an.EdgeAlias, pl.an.EdgeSrcCol), "src_id"),
			item(col(pl.an.EdgeAlias, pl.an.EdgeDstCol), "dst_id"),
		},
	}
	for _, c := range pl.edgeAttrsUsed() {
		sel.Items = append(sel.Items, item(col(pl.an.EdgeAlias, c), c))
	}
	return []sqlparser.Statement{
		dropTable(name),
		&sqlparser.CreateTableStmt{Name: name, AsSelect: sel, Unlogged: true},
		&sqlparser.CreateIndexStmt{Name: name + "_src", Table: name, Columns: []string{"src_id"}},
	}
}

// edgeAttrsUsed lists edge columns (other than the join keys) referenced
// by the aggregate input or the predicate.
func (pl *plan) edgeAttrsUsed() []string {
	seen := map[string]bool{}
	var out []string
	visit := func(e sqlparser.Expr) {
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			cr, ok := x.(*sqlparser.ColumnRef)
			if !ok || !strings.EqualFold(cr.Table, pl.an.EdgeAlias) {
				return true
			}
			lc := strings.ToLower(cr.Name)
			if lc == strings.ToLower(pl.an.EdgeSrcCol) || lc == strings.ToLower(pl.an.EdgeDstCol) {
				return true
			}
			if !seen[lc] {
				seen[lc] = true
				out = append(out, cr.Name)
			}
			return true
		})
	}
	visit(pl.an.MsgExpr)
	if pl.an.Pred != nil {
		visit(pl.an.Pred)
	}
	return out
}

// rewriteEdgeRefs retargets references to the edge alias at the
// materialized join alias "mj".
func (pl *plan) rewriteEdgeRefs(e sqlparser.Expr) sqlparser.Expr {
	return sqlparser.RewriteExpr(e, func(x sqlparser.Expr) sqlparser.Expr {
		if cr, ok := x.(*sqlparser.ColumnRef); ok && strings.EqualFold(cr.Table, pl.an.EdgeAlias) {
			return &sqlparser.ColumnRef{Table: "mj", Name: cr.Name}
		}
		return nil
	})
}

// absorbStmt is phase one of a Compute task: fold the delta into the
// value columns using the user's own update expressions, evaluated on
// the partition table under the user's alias for R.
func (pl *plan) absorbStmt(x int) sqlparser.Statement {
	return &sqlparser.UpdateStmt{
		Table: pl.partName(x),
		Alias: pl.an.TargetAlias,
		Sets:  pl.valueSets,
	}
}

// activityFilter restricts message emission to rows whose delta is not
// the identity (rows with nothing new contribute nothing; skipping them
// is what makes sparse workloads like SSSP cheap, §V-D/E). It reads only
// the partition's columns, so the engine applies it to the partition
// before the join with the edges (predicate pushdown in
// internal/engine/from.go): the skip happens before the probe. For MIN/MAX
// plans it additionally requires the delta to have won the absorb — the
// DAIC improvement rule: a delta that did not improve the value carries
// no information the value has not already propagated, and without this
// filter selective algorithms would re-broadcast settled values forever.
func (pl *plan) activityFilter() sqlparser.Expr {
	n := pl.an.NeighborAlias
	filter := sqlparser.Expr(&sqlparser.ComparisonExpr{
		Op:    sqltypes.CmpNE,
		Left:  col(n, pl.deltaCol),
		Right: litVal(pl.an.DeltaDefault),
	})
	if vc := pl.absorbedValueCol(); vc != "" {
		filter = and(filter, eq(col(n, vc), col(n, pl.deltaCol)))
	}
	return filter
}

// absorbedValueCol returns, for selective aggregates (MIN/MAX), the
// value column whose update expression folds the delta in (e.g.
// Distance = LEAST(Distance, Delta)); empty when not applicable.
func (pl *plan) absorbedValueCol() string {
	if pl.an.AggName != "MIN" && pl.an.AggName != "MAX" {
		return ""
	}
	for _, set := range pl.valueSets {
		refsDelta := false
		sqlparser.WalkExpr(set.Value, func(x sqlparser.Expr) bool {
			if cr, ok := x.(*sqlparser.ColumnRef); ok && strings.EqualFold(cr.Name, pl.deltaCol) {
				refsDelta = true
			}
			return true
		})
		if refsDelta {
			return set.Column
		}
	}
	return ""
}

// messageStmt builds the CREATE TABLE for partition x's outgoing
// messages: per destination id, the partial aggregate of h over x's
// active rows (§V-C step one).
func (pl *plan) messageStmt(x int, msgName string) sqlparser.Statement {
	n := pl.an.NeighborAlias
	var from sqlparser.TableExpr
	var dstExpr sqlparser.Expr
	var valExpr sqlparser.Expr
	var hExpr sqlparser.Expr // aggregate input, for AVG's count column
	pred := pl.an.Pred

	if pl.materialized {
		from = &sqlparser.JoinExpr{
			Type:  sqlparser.JoinInner,
			Left:  tblAs(pl.partName(x), n),
			Right: tblAs(mjoinTableName(pl.tok, pl.cte.Name), "mj"),
			On:    eq(col(n, pl.idCol), col("mj", "src_id")),
		}
		dstExpr = col("mj", "dst_id")
		valExpr = pl.rewriteEdgeRefs(pl.an.MsgExpr)
		hExpr = pl.rewriteEdgeRefs(pl.an.Agg.Args[0])
		if pred != nil {
			pred = pl.rewriteEdgeRefs(pred)
		}
	} else {
		from = &sqlparser.JoinExpr{
			Type:  sqlparser.JoinInner,
			Left:  tblAs(pl.partName(x), n),
			Right: tblAs(pl.an.EdgeTable, pl.an.EdgeAlias),
			On:    eq(col(n, pl.idCol), col(pl.an.EdgeAlias, pl.an.EdgeSrcCol)),
		}
		dstExpr = col(pl.an.EdgeAlias, pl.an.EdgeDstCol)
		valExpr = sqlparser.CloneExpr(pl.an.MsgExpr)
		hExpr = sqlparser.CloneExpr(pl.an.Agg.Args[0])
		if pred != nil {
			pred = sqlparser.CloneExpr(pred)
		}
	}

	sel := &sqlparser.Select{
		From:    []sqlparser.TableExpr{from},
		Where:   and(pl.activityFilter(), pred),
		GroupBy: []sqlparser.Expr{dstExpr},
		Items:   []sqlparser.SelectItem{item(dstExpr, "id")},
	}
	if pl.avg {
		// AVG cannot ship partial averages; ship (sum, count) per §V-D.
		sel.Items = append(sel.Items,
			item(fn("SUM", hExpr), "val"),
			item(fn("COUNT", sqlparser.CloneExpr(hExpr)), "cnt"))
	} else {
		sel.Items = append(sel.Items, item(valExpr, "val"))
	}
	// Route each message to its destination partition as it is emitted,
	// so a Gather reads only its own rows (by index lookup in-process).
	sel.Items = append(sel.Items, item(pl.partOf(sqlparser.CloneExpr(dstExpr)), msgPartCol))
	return &sqlparser.CreateTableStmt{Name: msgName, AsSelect: sel, Unlogged: true}
}

// msgPartCol is the message-table column holding each message's
// destination partition, PARTHASH(id, p).
const msgPartCol = "part"

// partOf is the partition expression for an id.
func (pl *plan) partOf(id sqlparser.Expr) sqlparser.Expr {
	return fn("PARTHASH", id, intLit(int64(pl.p)))
}

// msgCols lists a message table's columns in order: destination id,
// partial aggregate (plus AVG's count) and destination partition.
func (pl *plan) msgCols() []string {
	if pl.avg {
		return []string{"id", "val", "cnt", msgPartCol}
	}
	return []string{"id", "val", msgPartCol}
}

// msgIndexStmt indexes a message table on its destination partition,
// turning each Gather's read into a point lookup.
func (pl *plan) msgIndexStmt(msgName string) sqlparser.Statement {
	return &sqlparser.CreateIndexStmt{Name: msgName + "_part", Table: msgName, Columns: []string{msgPartCol}}
}

// resetStmt is phase three of a Compute task: reset the delta column to
// the aggregate identity (and the AVG accumulators to zero).
func (pl *plan) resetStmt(x int) sqlparser.Statement {
	upd := &sqlparser.UpdateStmt{
		Table: pl.partName(x),
		Sets:  []sqlparser.Assignment{{Column: pl.deltaCol, Value: litVal(pl.an.DeltaDefault)}},
		Where: &sqlparser.ComparisonExpr{
			Op:    sqltypes.CmpNE,
			Left:  col("", pl.deltaCol),
			Right: litVal(pl.an.DeltaDefault),
		},
	}
	if pl.avg {
		upd.Sets = append(upd.Sets,
			sqlparser.Assignment{Column: avgSumCol, Value: litVal(sqltypes.NewFloat(0))},
			sqlparser.Assignment{Column: avgCntCol, Value: litVal(sqltypes.NewFloat(0))})
		upd.Where = nil // accumulators may be dirty even when delta is clean
	}
	return upd
}

// gatherStmt updates partition x's delta column from the listed message
// tables (§V-C step two): one statement unioning x's messages from every
// unread message table (each branch a lookup on the routed part
// column), grouped, then accumulated into the delta.
func (pl *plan) gatherStmt(x int, msgTables []string) sqlparser.Statement {
	union := make([]sqlparser.SelectBody, len(msgTables))
	for i, m := range msgTables {
		sel := &sqlparser.Select{
			From:  []sqlparser.TableExpr{tbl(m)},
			Where: eq(col("", msgPartCol), intLit(int64(x))),
		}
		cols := pl.msgCols()
		for _, c := range cols[:len(cols)-1] { // all but part
			sel.Items = append(sel.Items, item(col("", c), c))
		}
		union[i] = sel
	}
	inner := &sqlparser.SubqueryTable{Body: unionAll(union), Alias: "allmsg"}
	agg := &sqlparser.Select{
		From:    []sqlparser.TableExpr{inner},
		GroupBy: []sqlparser.Expr{col("allmsg", "id")},
		Items:   []sqlparser.SelectItem{item(col("allmsg", "id"), "id")},
	}
	// Combine partials across message tables per the aggregate (§V-D):
	// SUM for SUM/COUNT/AVG components, MIN/MAX for MIN/MAX.
	switch pl.an.AggName {
	case "MIN":
		agg.Items = append(agg.Items, item(fn("MIN", col("allmsg", "val")), "val"))
	case "MAX":
		agg.Items = append(agg.Items, item(fn("MAX", col("allmsg", "val")), "val"))
	default:
		agg.Items = append(agg.Items, item(fn("SUM", col("allmsg", "val")), "val"))
	}
	if pl.avg {
		agg.Items = append(agg.Items, item(fn("SUM", col("allmsg", "cnt")), "cnt"))
	}

	t := pl.an.TargetAlias
	upd := &sqlparser.UpdateStmt{
		Table: pl.partName(x),
		Alias: t,
		From:  []sqlparser.TableExpr{&sqlparser.SubqueryTable{Body: agg, Alias: "m"}},
		Where: eq(col(t, pl.idCol), col("m", "id")),
	}
	delta := col(t, pl.deltaCol)
	mval := col("m", "val")
	switch pl.an.AggName {
	case "SUM", "COUNT":
		upd.Sets = []sqlparser.Assignment{{
			Column: pl.deltaCol,
			Value:  &sqlparser.BinaryExpr{Op: sqltypes.OpAdd, Left: delta, Right: mval},
		}}
	case "MIN", "MAX":
		// Label-correcting prune: a candidate that does not beat the
		// absorbed value can never affect the fix point; accepting it
		// would only revive the partition and re-broadcast settled
		// values (ties ping-pong forever on unit-weight graphs).
		incoming := sqlparser.Expr(mval)
		if vc := pl.absorbedValueCol(); vc != "" {
			op := sqltypes.CmpLT
			if pl.an.AggName == "MAX" {
				op = sqltypes.CmpGT
			}
			incoming = &sqlparser.CaseExpr{
				Whens: []sqlparser.CaseWhen{{
					Cond:   &sqlparser.ComparisonExpr{Op: op, Left: mval, Right: col(t, vc)},
					Result: mval,
				}},
				Else: litVal(pl.an.DeltaDefault),
			}
		}
		comb := "LEAST"
		if pl.an.AggName == "MAX" {
			comb = "GREATEST"
		}
		upd.Sets = []sqlparser.Assignment{{Column: pl.deltaCol, Value: fn(comb, delta, incoming)}}
	case "AVG":
		newSum := &sqlparser.BinaryExpr{Op: sqltypes.OpAdd, Left: col(t, avgSumCol), Right: mval}
		newCnt := &sqlparser.BinaryExpr{Op: sqltypes.OpAdd, Left: col(t, avgCntCol), Right: col("m", "cnt")}
		upd.Sets = []sqlparser.Assignment{
			{Column: avgSumCol, Value: newSum},
			{Column: avgCntCol, Value: newCnt},
			{Column: pl.deltaCol, Value: &sqlparser.CaseExpr{
				Whens: []sqlparser.CaseWhen{{
					Cond: &sqlparser.ComparisonExpr{Op: sqltypes.CmpGT,
						Left:  sqlparser.CloneExpr(newCnt),
						Right: litVal(sqltypes.NewFloat(0))},
					Result: &sqlparser.BinaryExpr{Op: sqltypes.OpDiv,
						Left:  sqlparser.CloneExpr(newSum),
						Right: sqlparser.CloneExpr(newCnt)},
				}},
				Else: litVal(pl.an.DeltaDefault),
			}},
		}
	}
	return upd
}

// keepStmts re-materialize the CTE's final contents as a real, logged
// table under the user-visible name (for Options.KeepTable) before the
// partitions are dropped.
func (pl *plan) keepStmts() []sqlparser.Statement {
	user := strings.ToLower(pl.cte.Name)
	return []sqlparser.Statement{dropView(pl.rQL), dropView(user), dropTable(user),
		&sqlparser.CreateTableStmt{Name: user, AsSelect: pl.unionBody()}}
}

// cleanupStmts drop every working object (message tables are handled by
// the registry).
func (pl *plan) cleanupStmts(keep bool) []sqlparser.Statement {
	var stmts []sqlparser.Statement
	if keep {
		stmts = append(stmts, pl.keepStmts()...)
	} else {
		stmts = append(stmts, dropView(pl.rQL))
	}
	for x := 0; x < pl.p; x++ {
		stmts = append(stmts, dropTable(pl.partName(x)))
	}
	stmts = append(stmts, dropTable(mjoinTableName(pl.tok, pl.cte.Name)))
	return stmts
}

// defaultPriorityQuery derives the AsyncP priority function from the
// aggregate when the user supplies none (§V-E): total pending change for
// accumulative aggregates, closest frontier for MIN, largest for MAX.
func (pl *plan) defaultPriorityQuery() string {
	part := "$PART"
	delta := pl.deltaCol
	identity := sqlparser.FormatExpr(litVal(pl.an.DeltaDefault))
	switch pl.an.AggName {
	case "MIN":
		return "SELECT 0 - MIN(" + delta + ") FROM " + part + " WHERE " + delta + " != " + identity
	case "MAX":
		return "SELECT MAX(" + delta + ") FROM " + part + " WHERE " + delta + " != " + identity
	default:
		return "SELECT SUM(ABS(" + delta + ")) FROM " + part + " WHERE " + delta + " != " + identity
	}
}
