package sqlparser

import (
	"sqloop/internal/sqltypes"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any scalar expression.
type Expr interface{ expr() }

// TableExpr is any FROM-clause item.
type TableExpr interface{ tableExpr() }

// SelectBody is a SELECT core, a VALUES list, or a set operation over
// them.
type SelectBody interface{ selectBody() }

// --- select bodies ---

// Select is a single SELECT core.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableExpr // cross-joined list; JOIN trees live inside items
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    *int64
	Offset   *int64
}

// Values is a VALUES (...), (...) literal relation.
type Values struct {
	Rows [][]Expr
}

// SetOpKind distinguishes UNION, INTERSECT and EXCEPT.
type SetOpKind int

// Set operation kinds.
const (
	SetUnion SetOpKind = iota // zero value: UNION (the common case)
	SetIntersect
	SetExcept
)

// SetOp is a set operation over two bodies. All applies to UNION only
// (INTERSECT/EXCEPT use set semantics, as in the SQL standard's core).
type SetOp struct {
	Kind        SetOpKind
	Left, Right SelectBody
	All         bool
	OrderBy     []OrderItem
	Limit       *int64
}

func (*Select) selectBody() {}
func (*Values) selectBody() {}
func (*SetOp) selectBody()  {}

// SelectItem is one projection: an expression with an optional alias, or
// a star.
type SelectItem struct {
	Expr  Expr   // nil for star
	Alias string // optional
	Star  bool   // SELECT * or t.*
	Table string // qualifier for t.*
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// --- table expressions ---

// TableName references a named table or view.
type TableName struct {
	Name  string
	Alias string
}

// SubqueryTable is a derived table: (SELECT ...) AS alias.
type SubqueryTable struct {
	Body  SelectBody
	Alias string
}

// JoinType distinguishes join flavours.
type JoinType int

// Join flavours.
const (
	JoinInner JoinType = iota + 1
	JoinLeft
	JoinCross
)

// JoinExpr is an explicit JOIN between two table expressions.
type JoinExpr struct {
	Type        JoinType
	Left, Right TableExpr
	On          Expr
}

func (*TableName) tableExpr()     {}
func (*SubqueryTable) tableExpr() {}
func (*JoinExpr) tableExpr()      {}

// --- expressions ---

// ColumnRef names a column, optionally table-qualified.
type ColumnRef struct {
	Table string // optional qualifier
	Name  string
	// Ord, when > 0, is the column's 1-based position within relation
	// Table. The parser never sets it; star expansion does, for a
	// relation that repeats a column name, so that each expanded column
	// reads its own values.
	Ord int
}

// Literal is a constant value.
type Literal struct {
	Val sqltypes.Value
}

// Param is a ? bind placeholder; Index is its 0-based ordinal.
type Param struct {
	Index int
}

// BinaryExpr is arithmetic: + - * / %.
type BinaryExpr struct {
	Op          sqltypes.ArithOp
	Left, Right Expr
}

// ComparisonExpr is = != < <= > >=.
type ComparisonExpr struct {
	Op          sqltypes.CompareOp
	Left, Right Expr
}

// LogicalOp is AND/OR.
type LogicalOp int

// Logical connectives.
const (
	LogicAnd LogicalOp = iota + 1
	LogicOr
)

// LogicalExpr combines predicates with AND/OR.
type LogicalExpr struct {
	Op          LogicalOp
	Left, Right Expr
}

// NotExpr negates a predicate.
type NotExpr struct {
	Inner Expr
}

// IsNullExpr is `x IS [NOT] NULL`.
type IsNullExpr struct {
	Inner Expr
	Not   bool
}

// InExpr is `x [NOT] IN (e1, e2, ...)` or `x [NOT] IN (SELECT ...)`.
type InExpr struct {
	Left Expr
	List []Expr     // nil when Sub is set
	Sub  SelectBody // subquery form
	Not  bool
}

// FuncCall is a scalar or aggregate function call. Star marks COUNT(*).
type FuncCall struct {
	Name     string // upper-cased
	Args     []Expr
	Distinct bool
	Star     bool
}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr
}

// CaseWhen is one WHEN cond THEN result arm.
type CaseWhen struct {
	Cond   Expr
	Result Expr
}

// Subquery is a scalar subquery: (SELECT ...).
type Subquery struct {
	Body SelectBody
}

// ExistsExpr is EXISTS (SELECT ...).
type ExistsExpr struct {
	Body SelectBody
}

// CastExpr is CAST(x AS type).
type CastExpr struct {
	Inner Expr
	Type  sqltypes.ColumnType
}

// LikeExpr is `x [NOT] LIKE pattern` with % and _ wildcards.
type LikeExpr struct {
	Left, Pattern Expr
	Not           bool
}

func (*ColumnRef) expr()      {}
func (*Literal) expr()        {}
func (*Param) expr()          {}
func (*BinaryExpr) expr()     {}
func (*ComparisonExpr) expr() {}
func (*LogicalExpr) expr()    {}
func (*NotExpr) expr()        {}
func (*IsNullExpr) expr()     {}
func (*InExpr) expr()         {}
func (*FuncCall) expr()       {}
func (*CaseExpr) expr()       {}
func (*Subquery) expr()       {}
func (*ExistsExpr) expr()     {}
func (*CastExpr) expr()       {}
func (*LikeExpr) expr()       {}

// --- statements ---

// SelectStmt wraps a select body (with optional plain WITH CTEs) as a
// statement.
type SelectStmt struct {
	With []PlainCTE
	Body SelectBody
}

// PlainCTE is a non-recursive WITH entry.
type PlainCTE struct {
	Name    string
	Columns []string
	Body    SelectBody
}

// CTEKind distinguishes the three WITH forms SQLoop accepts.
type CTEKind int

// CTE kinds.
const (
	CTERecursive CTEKind = iota + 1
	CTEIterative
)

// LoopCTEStmt is the paper's construct:
//
//	WITH RECURSIVE R AS (R0 UNION ALL Ri) Qf
//	WITH ITERATIVE R AS (R0 ITERATE Ri UNTIL Tc) Qf
//
// It is handled by SQLoop, never sent to an engine directly.
type LoopCTEStmt struct {
	Kind    CTEKind
	Name    string
	Columns []string
	Seed    SelectBody   // R0
	Step    SelectBody   // Ri
	Until   *Termination // nil for recursive CTEs (fix-point implied)
	Final   SelectBody   // Qf
	// UnionAll distinguishes RECURSIVE ... UNION ALL (bag semantics,
	// the paper's form) from ... UNION (set semantics with
	// deduplication, needed for transitive closure on cyclic data).
	UnionAll bool
}

// TermKind classifies Table I termination conditions.
type TermKind int

// Termination kinds per Table I of the paper.
const (
	TermIterations TermKind = iota + 1 // UNTIL n ITERATIONS
	TermUpdates                        // UNTIL n UPDATES
	TermExpr                           // UNTIL [ANY] [DELTA] expr [cmp e]
)

// Termination is the parsed Tc.
type Termination struct {
	Kind  TermKind
	N     int64 // iterations or updates threshold
	Any   bool  // ANY: at least one row satisfies
	Delta bool  // DELTA: expr may reference Rdelta
	Expr  SelectBody
	CmpOp sqltypes.CompareOp // 0 when no comparison
	CmpTo Expr               // literal e
}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       sqltypes.ColumnType
	PrimaryKey bool
}

// CreateTableStmt is CREATE [UNLOGGED|TEMP] TABLE [IF NOT EXISTS] t (...)
// or CREATE TABLE t AS select.
type CreateTableStmt struct {
	Name        string
	IfNotExists bool
	Unlogged    bool
	Columns     []ColumnDef
	AsSelect    SelectBody // nil unless CREATE TABLE ... AS
}

// CreateIndexStmt is CREATE INDEX [IF NOT EXISTS] name ON t (cols).
type CreateIndexStmt struct {
	Name        string
	Table       string
	Columns     []string
	IfNotExists bool
}

// CreateViewStmt is CREATE [OR REPLACE] VIEW v AS select.
type CreateViewStmt struct {
	Name      string
	OrReplace bool
	Body      SelectBody
}

// DropKind says what a DROP statement removes.
type DropKind int

// Droppable object kinds.
const (
	DropTable DropKind = iota + 1
	DropView
	DropIndex
)

// DropStmt is DROP TABLE/VIEW/INDEX [IF EXISTS] name.
type DropStmt struct {
	Kind     DropKind
	Name     string
	IfExists bool
}

// InsertStmt is INSERT INTO t [(cols)] select-or-values.
type InsertStmt struct {
	Table   string
	Columns []string
	Source  SelectBody
}

// Assignment is one SET col = expr.
type Assignment struct {
	Column string
	Value  Expr
}

// UpdateStmt is UPDATE t [AS a] SET ... [FROM ...] WHERE ...
// The FROM list supports the PostgreSQL-style correlated update that
// SQLoop's translator emits; the MySQL-style UPDATE t JOIN u ON ... SET
// is normalized into the same shape by the parser.
type UpdateStmt struct {
	Table string
	Alias string
	Sets  []Assignment
	From  []TableExpr
	Where Expr
}

// DeleteStmt is DELETE FROM t [WHERE ...].
type DeleteStmt struct {
	Table string
	Where Expr
}

// TruncateStmt empties a table.
type TruncateStmt struct {
	Table string
}

// TxStmt is BEGIN/COMMIT/ROLLBACK.
type TxStmt struct {
	Kind TxKind
}

// TxKind enumerates transaction-control statements.
type TxKind int

// Transaction statement kinds.
const (
	TxBegin TxKind = iota + 1
	TxCommit
	TxRollback
)

func (*SelectStmt) stmt()      {}
func (*LoopCTEStmt) stmt()     {}
func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*CreateViewStmt) stmt()  {}
func (*DropStmt) stmt()        {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*TruncateStmt) stmt()    {}
func (*TxStmt) stmt()          {}
