package core

import (
	"context"
	"fmt"
	"strings"

	"sqloop/internal/obs"
	"sqloop/internal/sqlparser"
	"sqloop/internal/sqltypes"
)

// terminator evaluates the UNTIL condition of an iterative CTE after
// each iteration (Table I of the paper). One terminator instance is
// shared by the single-threaded and parallel executors; both report the
// per-iteration update count and the terminator issues whatever extra
// queries the condition needs on the coordinator connection.
type terminator struct {
	cte  *sqlparser.LoopCTEStmt
	term *sqlparser.Termination
	// rTable is what the CTE name resolves to right now (a table in
	// single mode, a view over partitions in parallel mode).
	rTable string
	// token is the execution's working-table namespace token; the
	// Rdelta snapshot lives under it.
	token string
	// deltaReady reports whether the Rdelta snapshot exists yet.
	deltaReady bool
	// tracer receives a TerminationCheck event per evaluation.
	tracer obs.Tracer
	// merged, when set, evaluates an expression condition instead of
	// the query on c: a shard group merges per-shard partial aggregates
	// (§V-D) because no one connection sees all of R.
	merged func(context.Context) (bool, error)
}

func newTerminator(cte *sqlparser.LoopCTEStmt, tracer obs.Tracer, token string) *terminator {
	if tracer == nil {
		tracer = obs.NopTracer{}
	}
	return &terminator{cte: cte, term: cte.Until, rTable: cte.Name, token: token, tracer: tracer}
}

// kindString names the condition for events and EXPLAIN output.
func (t *terminator) kindString() string {
	switch t.term.Kind {
	case sqlparser.TermIterations:
		return "iterations"
	case sqlparser.TermUpdates:
		return "updates"
	default:
		return "expr"
	}
}

// needsDeltaSnapshot reports whether the condition references Rdelta.
func (t *terminator) needsDeltaSnapshot() bool {
	return t.term.Kind == sqlparser.TermExpr && t.term.Delta
}

// prepare creates the initial Rdelta snapshot (a copy of R after the
// seed) when the condition needs one.
func (t *terminator) prepare(ctx context.Context, c *dbConn) error {
	if !t.needsDeltaSnapshot() {
		return nil
	}
	return t.refreshDelta(ctx, c)
}

// refreshDelta re-snapshots R into Rdelta ("at the end of each
// iteration, it simply copies the data from R to a new Rdelta table",
// §III-B). The table is created once with R's column layout (ANY-typed,
// so value kinds may drift between rounds) and refilled by TRUNCATE +
// INSERT: the per-round snapshot involves no DDL, so it neither
// invalidates cached statements over Rdelta nor re-pins column types.
func (t *terminator) refreshDelta(ctx context.Context, c *dbConn) error {
	name := deltaTableName(t.token, t.cte.Name)
	if !t.deltaReady {
		cols, err := columnNamesOf(ctx, c, t.rTable)
		if err != nil {
			return err
		}
		if _, err := c.runStmt(ctx, dropTable(name)); err != nil {
			return err
		}
		if _, err := c.runStmt(ctx, createAnyTable(name, cols, false)); err != nil {
			return err
		}
		t.deltaReady = true
	} else if _, err := c.runStmt(ctx, &sqlparser.TruncateStmt{Table: name}); err != nil {
		return err
	}
	if _, err := c.runStmt(ctx, insertBody(name, selectStar(t.rTable))); err != nil {
		return fmt.Errorf("snapshot %s: %w", name, err)
	}
	return nil
}

// satisfied evaluates the condition after iteration `iter` (1-based)
// whose update step changed `updated` rows. It refreshes the Rdelta
// snapshot after checking, per the paper's ordering.
func (t *terminator) satisfied(ctx context.Context, c *dbConn, iter int, updated int64) (bool, error) {
	done, err := t.check(ctx, c, iter, updated)
	if err != nil {
		return false, err
	}
	t.tracer.Emit(obs.TerminationCheck{Round: iter, Kind: t.kindString(), Updated: updated, Satisfied: done})
	if !done && t.needsDeltaSnapshot() {
		if err := t.refreshDelta(ctx, c); err != nil {
			return false, err
		}
	}
	return done, nil
}

func (t *terminator) check(ctx context.Context, c *dbConn, iter int, updated int64) (bool, error) {
	switch t.term.Kind {
	case sqlparser.TermIterations:
		return int64(iter) >= t.term.N, nil
	case sqlparser.TermUpdates:
		// "Terminate if Ri updated less than n rows" — with the
		// convention that UNTIL 0 UPDATES stops on a no-change iteration.
		return updated <= t.term.N, nil
	case sqlparser.TermExpr:
		if t.merged != nil {
			return t.merged(ctx)
		}
		return t.checkExpr(ctx, c)
	default:
		return false, fmt.Errorf("core: unknown termination kind %d", t.term.Kind)
	}
}

// checkExpr runs the user's expr query, retargeting references to the
// CTE name (and Rdelta) at the current physical tables.
func (t *terminator) checkExpr(ctx context.Context, c *dbConn) (bool, error) {
	body := renameTableRefs(t.term.Expr, t.cte.Name, t.rTable)
	if t.token != "" {
		// References to Rdelta in the user's condition are written
		// against the un-namespaced name; retarget them too.
		body = renameTableRefs(body, strings.ToLower(t.cte.Name)+"delta", deltaTableName(t.token, t.cte.Name))
	}
	stmt := &sqlparser.SelectStmt{Body: body}

	// With a comparison the query must return one value: expr <,=,> e.
	if t.term.CmpOp != 0 {
		got, ok, err := c.scalar(ctx, sqlparser.FormatDialect(stmt, c.dialect))
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil // NULL/no rows: condition not satisfied
		}
		lit, isLit := t.term.CmpTo.(*sqlparser.Literal)
		if !isLit || !lit.Val.IsNumeric() {
			return false, fmt.Errorf("core: UNTIL comparison requires a numeric literal")
		}
		cmp, err := sqltypes.CompareSQL(t.term.CmpOp, sqltypes.NewFloat(got), lit.Val)
		if err != nil {
			return false, err
		}
		return cmp.IsTrue(), nil
	}

	res, err := c.runStmt(ctx, stmt)
	if err != nil {
		return false, err
	}
	if t.term.Any {
		// ANY expr: satisfied when at least one row comes back.
		return len(res.Rows) >= 1, nil
	}
	// expr: satisfied when it returns |R| rows.
	total, _, err := c.scalar(ctx, sqlparser.FormatDialect(countStmt(t.rTable), c.dialect))
	if err != nil {
		return false, err
	}
	return int64(len(res.Rows)) >= int64(total), nil
}

// cleanup drops the Rdelta snapshot.
func (t *terminator) cleanup(ctx context.Context, c *dbConn) error {
	if !t.deltaReady {
		return nil
	}
	_, err := c.runStmt(ctx, dropTable(deltaTableName(t.token, t.cte.Name)))
	return err
}

// countStmt builds SELECT COUNT(*) FROM table.
func countStmt(table string) sqlparser.Statement {
	return &sqlparser.SelectStmt{Body: &sqlparser.Select{
		Items: []sqlparser.SelectItem{{Expr: &sqlparser.FuncCall{Name: "COUNT", Star: true}}},
		From:  []sqlparser.TableExpr{tbl(table)},
	}}
}
