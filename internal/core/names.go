package core

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync/atomic"

	"sqloop/internal/sqlparser"
	"sqloop/internal/sqltypes"
)

// Working-table naming. All internal tables carry the sqloop_ prefix so
// they never collide with user tables. Each execution additionally
// namespaces its working tables with a per-execution token so two
// concurrent executions of same-named CTEs cannot clobber each other's
// state; an empty token collapses every name to the historical layout
// (R and Rdelta under user-visible names, §III-B), which is what
// GenerateScript emits.

// newExecToken mints the per-execution namespace token. It is a
// variable so tests can pin a deterministic token.
var newExecToken = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("c%d", tokenFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}

var tokenFallback atomic.Int64

// namePrefix is the shared sqloop_<cte>_[<tok>_] prefix of every
// internal working table.
func namePrefix(tok, cte string) string {
	if tok == "" {
		return "sqloop_" + strings.ToLower(cte) + "_"
	}
	return "sqloop_" + strings.ToLower(cte) + "_" + tok + "_"
}

// rTableName is the physical table (or view, in parallel mode) the CTE
// name resolves to during execution. With no token it is the
// user-visible lower-cased CTE name itself.
func rTableName(tok, cte string) string {
	if tok == "" {
		return strings.ToLower(cte)
	}
	return namePrefix(tok, cte) + "r"
}

func tmpTableName(tok, cte string) string { return namePrefix(tok, cte) + "tmp" }

func deltaTableName(tok, cte string) string {
	if tok == "" {
		return strings.ToLower(cte) + "delta"
	}
	return namePrefix(tok, cte) + "delta"
}

func mjoinTableName(tok, cte string) string  { return namePrefix(tok, cte) + "mjoin" }
func workTableName(tok, cte string) string   { return namePrefix(tok, cte) + "work" }
func nextTableName(tok, cte string) string   { return namePrefix(tok, cte) + "next" }
func seedScratchName(tok, cte string) string { return namePrefix(tok, cte) + "seed" }

func partTableName(tok, cte string, i int) string {
	return fmt.Sprintf("%spt%d", namePrefix(tok, cte), i)
}
func msgTableName(tok, cte string, seq int64) string {
	return fmt.Sprintf("%smsg%d", namePrefix(tok, cte), seq)
}

// retargetCTE deep-copies body with references to the CTE's
// user-visible names (R and Rdelta) redirected at this execution's
// tokenized working tables. With an empty token both renames are
// no-ops by construction.
func retargetCTE(body sqlparser.SelectBody, cte *sqlparser.LoopCTEStmt, tok string) sqlparser.SelectBody {
	out := renameTableRefs(body, cte.Name, rTableName(tok, cte.Name))
	if tok != "" {
		out = renameTableRefs(out, strings.ToLower(cte.Name)+"delta", deltaTableName(tok, cte.Name))
	}
	return out
}

// --- tiny AST builders used by the plan generator ---

func tbl(name string) *sqlparser.TableName { return &sqlparser.TableName{Name: name} }

func tblAs(name, alias string) *sqlparser.TableName {
	return &sqlparser.TableName{Name: name, Alias: alias}
}

func col(table, name string) *sqlparser.ColumnRef {
	return &sqlparser.ColumnRef{Table: table, Name: name}
}

func intLit(v int64) *sqlparser.Literal {
	return &sqlparser.Literal{Val: sqltypes.NewInt(v)}
}

func litVal(v sqltypes.Value) *sqlparser.Literal { return &sqlparser.Literal{Val: v} }

func eq(l, r sqlparser.Expr) *sqlparser.ComparisonExpr {
	return &sqlparser.ComparisonExpr{Op: sqltypes.CmpEQ, Left: l, Right: r}
}

func and(l, r sqlparser.Expr) sqlparser.Expr {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	return &sqlparser.LogicalExpr{Op: sqlparser.LogicAnd, Left: l, Right: r}
}

func fn(name string, args ...sqlparser.Expr) *sqlparser.FuncCall {
	return &sqlparser.FuncCall{Name: name, Args: args}
}

func item(e sqlparser.Expr, alias string) sqlparser.SelectItem {
	return sqlparser.SelectItem{Expr: e, Alias: alias}
}

func starItem() sqlparser.SelectItem { return sqlparser.SelectItem{Star: true} }

// selectStar builds SELECT * FROM <table>.
func selectStar(table string) *sqlparser.Select {
	return &sqlparser.Select{
		Items: []sqlparser.SelectItem{starItem()},
		From:  []sqlparser.TableExpr{tbl(table)},
	}
}

// selectCols builds SELECT c1, c2, ... FROM table, or SELECT * when
// cols is nil.
func selectCols(table string, cols []string) *sqlparser.Select {
	if cols == nil {
		return selectStar(table)
	}
	sel := &sqlparser.Select{From: []sqlparser.TableExpr{tbl(table)}}
	for _, c := range cols {
		sel.Items = append(sel.Items, item(col("", c), c))
	}
	return sel
}

// unionAll folds bodies into a left-deep UNION ALL tree.
func unionAll(bodies []sqlparser.SelectBody) sqlparser.SelectBody {
	out := bodies[0]
	for _, b := range bodies[1:] {
		out = &sqlparser.SetOp{Left: out, Right: b, All: true}
	}
	return out
}

// dropTable / dropView build DROP statements with IF EXISTS.
func dropTable(name string) sqlparser.Statement {
	return &sqlparser.DropStmt{Kind: sqlparser.DropTable, Name: name, IfExists: true}
}

func dropView(name string) sqlparser.Statement {
	return &sqlparser.DropStmt{Kind: sqlparser.DropView, Name: name, IfExists: true}
}

// createAnyTable builds CREATE TABLE name (c0 ANY [PRIMARY KEY], ...)
// with the first column as primary key when pk is true. SQLoop declares
// CTE working tables with ANY columns because the engine infers value
// kinds at runtime (§IV-B: the middleware cannot know seed types before
// running R0).
func createAnyTable(name string, cols []string, pk bool) sqlparser.Statement {
	defs := make([]sqlparser.ColumnDef, len(cols))
	for i, c := range cols {
		defs[i] = sqlparser.ColumnDef{Name: c, Type: sqltypes.TypeAny, PrimaryKey: pk && i == 0}
	}
	return &sqlparser.CreateTableStmt{Name: name, Columns: defs, Unlogged: true}
}

// insertBody builds INSERT INTO table <body>.
func insertBody(table string, body sqlparser.SelectBody) sqlparser.Statement {
	return &sqlparser.InsertStmt{Table: table, Source: body}
}

// renameTableRefs returns a deep copy of body with every reference to
// fromName (as a FROM table) retargeted to toName, keeping the original
// alias so column qualifiers keep resolving; a reference without an
// alias gets the old name as its alias.
func renameTableRefs(body sqlparser.SelectBody, fromName, toName string) sqlparser.SelectBody {
	return sqlparser.RewriteBodyTables(body, func(tn *sqlparser.TableName) sqlparser.TableExpr {
		if !strings.EqualFold(tn.Name, fromName) {
			return nil
		}
		alias := tn.Alias
		if alias == "" {
			alias = tn.Name
		}
		return &sqlparser.TableName{Name: toName, Alias: alias}
	})
}

// columnNamesOf asks the engine for a table's column names via a
// zero-row probe (SQLoop has no engine-specific catalog access).
func columnNamesOf(ctx context.Context, c *dbConn, table string) ([]string, error) {
	sel := selectStar(table)
	lim := int64(0)
	sel.Limit = &lim
	res, err := c.runStmt(ctx, &sqlparser.SelectStmt{Body: sel})
	if err != nil {
		return nil, err
	}
	return res.Columns, nil
}
