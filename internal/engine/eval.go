package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"sqloop/internal/sqlparser"
	"sqloop/internal/sqltypes"
)

// frame describes the shape of the row tuples flowing through a query:
// an ordered set of relations, each occupying a contiguous slice of the
// concatenated row.
type frame struct {
	rels  []relMeta
	width int
	sigv  string // memoized layout signature (see sig)
}

// relMeta is one relation inside a frame.
type relMeta struct {
	name string // alias (or table name); may be empty for derived rows
	cols []string
	off  int
}

// addRel appends a relation to the frame and returns its metadata.
func (f *frame) addRel(name string, cols []string) relMeta {
	rm := relMeta{name: name, cols: cols, off: f.width}
	f.rels = append(f.rels, rm)
	f.width += len(cols)
	f.sigv = ""
	return rm
}

// sig returns a canonical layout signature for the frame: two frames
// with equal signatures resolve every column reference to the same
// offset (resolve is case-insensitive, so names are lowercased). It
// keys compiled-program cache entries across executions.
func (f *frame) sig() string {
	if f.sigv == "" {
		var sb strings.Builder
		sb.WriteByte('#')
		for _, r := range f.rels {
			sb.WriteString(strings.ToLower(r.name))
			sb.WriteByte('[')
			for i, c := range r.cols {
				if i > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(strings.ToLower(c))
			}
			sb.WriteByte(']')
		}
		f.sigv = sb.String()
	}
	return f.sigv
}

// concat combines two frames (as a join does), left columns first.
func concatFrames(a, b *frame) *frame {
	out := &frame{}
	for _, r := range a.rels {
		out.addRel(r.name, r.cols)
	}
	for _, r := range b.rels {
		out.addRel(r.name, r.cols)
	}
	return out
}

// resolveRef locates a column reference within the frame, returning its
// absolute offset. A positional reference (Ord, from star expansion)
// picks its column directly.
func (f *frame) resolveRef(cr *sqlparser.ColumnRef) (int, error) {
	if cr.Ord > 0 {
		for _, r := range f.rels {
			if strings.EqualFold(r.name, cr.Table) && cr.Ord <= len(r.cols) &&
				strings.EqualFold(r.cols[cr.Ord-1], cr.Name) {
				return r.off + cr.Ord - 1, nil
			}
		}
	}
	return f.resolve(cr.Table, cr.Name)
}

// resolve locates a column by name within the frame, returning its
// absolute offset. A name that matches more than one column (of the
// named relation, when qualified) is ambiguous.
func (f *frame) resolve(table, col string) (int, error) {
	if table != "" {
		for _, r := range f.rels {
			if !strings.EqualFold(r.name, table) {
				continue
			}
			found := -1
			for i, c := range r.cols {
				if strings.EqualFold(c, col) {
					if found >= 0 {
						return -1, fmt.Errorf("engine: column reference %q is ambiguous", table+"."+col)
					}
					found = r.off + i
				}
			}
			if found < 0 {
				return -1, &ErrColumnNotFound{Name: table + "." + col}
			}
			return found, nil
		}
		return -1, &ErrColumnNotFound{Name: table + "." + col}
	}
	found := -1
	for _, r := range f.rels {
		for i, c := range r.cols {
			if strings.EqualFold(c, col) {
				if found >= 0 {
					return -1, fmt.Errorf("engine: column reference %q is ambiguous", col)
				}
				found = r.off + i
			}
		}
	}
	if found < 0 {
		return -1, &ErrColumnNotFound{Name: col}
	}
	return found, nil
}

// hasColumn reports whether the frame can resolve the reference.
func (f *frame) hasColumn(cr *sqlparser.ColumnRef) bool {
	_, err := f.resolveRef(cr)
	return err == nil
}

// evalEnv is the evaluation context for one row.
type evalEnv struct {
	frame *frame
	row   sqltypes.Row
	// aggs holds the current group's aggregate values, one per call of
	// the select plan (selPlan.aggs) in plan order. Compiled programs
	// read them by an ordinal fixed at compile time; the interpreter
	// finds the ordinal in aggIdx (the plan's selPlan.aggIdx).
	aggs   []sqltypes.Value
	aggIdx map[*sqlparser.FuncCall]int
	// x gives access to bind args, CTE scope and scalar subquery
	// execution.
	x *executor
}

// evalExpr evaluates e in env with SQL NULL semantics.
func (env *evalEnv) evalExpr(e sqlparser.Expr) (sqltypes.Value, error) {
	switch t := e.(type) {
	case *sqlparser.Literal:
		return t.Val, nil
	case *sqlparser.Param:
		if env.x == nil || t.Index >= len(env.x.args) {
			return sqltypes.Null, fmt.Errorf("engine: missing bind parameter %d", t.Index+1)
		}
		return env.x.args[t.Index], nil
	case *sqlparser.ColumnRef:
		if env.frame == nil {
			return sqltypes.Null, &ErrColumnNotFound{Name: t.Name}
		}
		off, err := env.frame.resolveRef(t)
		if err != nil {
			return sqltypes.Null, err
		}
		if off >= len(env.row) {
			return sqltypes.Null, nil
		}
		return env.row[off], nil
	case *sqlparser.BinaryExpr:
		l, err := env.evalExpr(t.Left)
		if err != nil {
			return sqltypes.Null, err
		}
		r, err := env.evalExpr(t.Right)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.Arith(t.Op, l, r)
	case *sqlparser.ComparisonExpr:
		l, err := env.evalExpr(t.Left)
		if err != nil {
			return sqltypes.Null, err
		}
		r, err := env.evalExpr(t.Right)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.CompareSQL(t.Op, l, r)
	case *sqlparser.LogicalExpr:
		return env.evalLogical(t)
	case *sqlparser.NotExpr:
		v, err := env.evalExpr(t.Inner)
		if err != nil {
			return sqltypes.Null, err
		}
		if v.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(!v.IsTrue()), nil
	case *sqlparser.IsNullExpr:
		v, err := env.evalExpr(t.Inner)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewBool(v.IsNull() != t.Not), nil
	case *sqlparser.InExpr:
		return env.evalIn(t)
	case *sqlparser.CaseExpr:
		for _, w := range t.Whens {
			c, err := env.evalExpr(w.Cond)
			if err != nil {
				return sqltypes.Null, err
			}
			if c.IsTrue() {
				return env.evalExpr(w.Result)
			}
		}
		if t.Else != nil {
			return env.evalExpr(t.Else)
		}
		return sqltypes.Null, nil
	case *sqlparser.FuncCall:
		return env.evalFunc(t)
	case *sqlparser.Subquery:
		return env.evalScalarSubquery(t)
	case *sqlparser.ExistsExpr:
		rel, err := env.evalBodyInScope(t.Body)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewBool(len(rel.rows) > 0), nil
	case *sqlparser.CastExpr:
		v, err := env.evalExpr(t.Inner)
		if err != nil {
			return sqltypes.Null, err
		}
		return castValue(v, t.Type)
	case *sqlparser.LikeExpr:
		l, err := env.evalExpr(t.Left)
		if err != nil {
			return sqltypes.Null, err
		}
		pat, err := env.evalExpr(t.Pattern)
		if err != nil {
			return sqltypes.Null, err
		}
		if l.IsNull() || pat.IsNull() {
			return sqltypes.Null, nil
		}
		if l.Kind() != sqltypes.KindString || pat.Kind() != sqltypes.KindString {
			return sqltypes.Null, fmt.Errorf("engine: LIKE requires strings")
		}
		return sqltypes.NewBool(likeMatch(l.Str(), pat.Str()) != t.Not), nil
	default:
		return sqltypes.Null, fmt.Errorf("engine: unsupported expression %T", e)
	}
}

// evalLogical implements three-valued AND/OR.
func (env *evalEnv) evalLogical(t *sqlparser.LogicalExpr) (sqltypes.Value, error) {
	l, err := env.evalExpr(t.Left)
	if err != nil {
		return sqltypes.Null, err
	}
	// Short circuit where three-valued logic allows.
	if t.Op == sqlparser.LogicAnd && !l.IsNull() && !l.IsTrue() {
		return sqltypes.NewBool(false), nil
	}
	if t.Op == sqlparser.LogicOr && l.IsTrue() {
		return sqltypes.NewBool(true), nil
	}
	r, err := env.evalExpr(t.Right)
	if err != nil {
		return sqltypes.Null, err
	}
	if t.Op == sqlparser.LogicAnd {
		switch {
		case !r.IsNull() && !r.IsTrue():
			return sqltypes.NewBool(false), nil
		case l.IsNull() || r.IsNull():
			return sqltypes.Null, nil
		default:
			return sqltypes.NewBool(true), nil
		}
	}
	switch {
	case r.IsTrue():
		return sqltypes.NewBool(true), nil
	case l.IsNull() || r.IsNull():
		return sqltypes.Null, nil
	default:
		return sqltypes.NewBool(false), nil
	}
}

func (env *evalEnv) evalIn(t *sqlparser.InExpr) (sqltypes.Value, error) {
	l, err := env.evalExpr(t.Left)
	if err != nil {
		return sqltypes.Null, err
	}
	if l.IsNull() {
		return sqltypes.Null, nil
	}
	// Subquery form: evaluate the (uncorrelated) body once per statement
	// and compare against its single column.
	if t.Sub != nil {
		vals, err := env.inSubqueryValues(t)
		if err != nil {
			return sqltypes.Null, err
		}
		sawNull := false
		for _, v := range vals {
			if v.IsNull() {
				sawNull = true
				continue
			}
			eq, err := sqltypes.CompareSQL(sqltypes.CmpEQ, l, v)
			if err != nil {
				continue
			}
			if eq.IsTrue() {
				return sqltypes.NewBool(!t.Not), nil
			}
		}
		if sawNull {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(t.Not), nil
	}
	sawNull := false
	for _, item := range t.List {
		v, err := env.evalExpr(item)
		if err != nil {
			return sqltypes.Null, err
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		eq, err := sqltypes.CompareSQL(sqltypes.CmpEQ, l, v)
		if err != nil {
			// Incomparable kinds never match.
			continue
		}
		if eq.IsTrue() {
			return sqltypes.NewBool(!t.Not), nil
		}
	}
	if sawNull {
		return sqltypes.Null, nil
	}
	return sqltypes.NewBool(t.Not), nil
}

// aggregateFuncs are the five functions SQLoop parallelizes (§V-A).
func isAggregate(name string) bool {
	switch name {
	case "SUM", "MIN", "MAX", "COUNT", "AVG":
		return true
	default:
		return false
	}
}

func (env *evalEnv) evalFunc(t *sqlparser.FuncCall) (sqltypes.Value, error) {
	if isAggregate(t.Name) {
		if i, ok := env.aggIdx[t]; ok && i < len(env.aggs) {
			return env.aggs[i], nil
		}
		return sqltypes.Null, fmt.Errorf("engine: aggregate %s used outside grouped query", t.Name)
	}
	args := make([]sqltypes.Value, len(t.Args))
	for i, a := range t.Args {
		v, err := env.evalExpr(a)
		if err != nil {
			return sqltypes.Null, err
		}
		args[i] = v
	}
	return callScalarFunc(t.Name, args)
}

// callScalarFunc dispatches the built-in scalar functions.
func callScalarFunc(name string, args []sqltypes.Value) (sqltypes.Value, error) {
	switch name {
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return sqltypes.Null, nil
	case "LEAST", "GREATEST":
		// NULLs are ignored (PostgreSQL semantics).
		best := sqltypes.Null
		for _, a := range args {
			if a.IsNull() {
				continue
			}
			if best.IsNull() {
				best = a
				continue
			}
			c, err := sqltypes.Compare(a, best)
			if err != nil {
				return sqltypes.Null, err
			}
			if (name == "LEAST" && c < 0) || (name == "GREATEST" && c > 0) {
				best = a
			}
		}
		return best, nil
	case "ABS":
		if err := wantArgs(name, args, 1); err != nil {
			return sqltypes.Null, err
		}
		a := args[0]
		switch {
		case a.IsNull():
			return sqltypes.Null, nil
		case a.Kind() == sqltypes.KindInt:
			if a.Int() < 0 {
				return sqltypes.NewInt(-a.Int()), nil
			}
			return a, nil
		case a.Kind() == sqltypes.KindFloat:
			return sqltypes.NewFloat(math.Abs(a.Float())), nil
		default:
			return sqltypes.Null, fmt.Errorf("engine: ABS of %s", a.Kind())
		}
	case "MOD":
		if err := wantArgs(name, args, 2); err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.Arith(sqltypes.OpMod, args[0], args[1])
	case "FLOOR", "CEIL", "CEILING", "ROUND":
		if err := wantArgs(name, args, 1); err != nil {
			return sqltypes.Null, err
		}
		a := args[0]
		if a.IsNull() {
			return sqltypes.Null, nil
		}
		if !a.IsNumeric() {
			return sqltypes.Null, fmt.Errorf("engine: %s of %s", name, a.Kind())
		}
		f := a.Float()
		switch name {
		case "FLOOR":
			return sqltypes.NewFloat(math.Floor(f)), nil
		case "ROUND":
			return sqltypes.NewFloat(math.Round(f)), nil
		default:
			return sqltypes.NewFloat(math.Ceil(f)), nil
		}
	case "SQRT":
		if err := wantArgs(name, args, 1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewFloat(math.Sqrt(args[0].Float())), nil
	case "POWER", "POW":
		if err := wantArgs(name, args, 2); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewFloat(math.Pow(args[0].Float(), args[1].Float())), nil
	case "UPPER", "LOWER":
		if err := wantArgs(name, args, 1); err != nil {
			return sqltypes.Null, err
		}
		a := args[0]
		if a.IsNull() {
			return sqltypes.Null, nil
		}
		if a.Kind() != sqltypes.KindString {
			return sqltypes.Null, fmt.Errorf("engine: %s of %s", name, a.Kind())
		}
		if name == "UPPER" {
			return sqltypes.NewString(strings.ToUpper(a.Str())), nil
		}
		return sqltypes.NewString(strings.ToLower(a.Str())), nil
	case "LENGTH":
		if err := wantArgs(name, args, 1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		if args[0].Kind() != sqltypes.KindString {
			return sqltypes.Null, fmt.Errorf("engine: LENGTH of %s", args[0].Kind())
		}
		return sqltypes.NewInt(int64(len(args[0].Str()))), nil
	case "CONCAT":
		var sb strings.Builder
		for _, a := range args {
			if a.IsNull() {
				continue // MySQL-ish: skip NULLs rather than poisoning
			}
			sb.WriteString(a.String())
		}
		return sqltypes.NewString(sb.String()), nil
	case "SUBSTR", "SUBSTRING":
		// SUBSTR(s, start [, length]) with 1-based start.
		if len(args) != 2 && len(args) != 3 {
			return sqltypes.Null, fmt.Errorf("engine: SUBSTR takes 2 or 3 arguments")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return sqltypes.Null, nil
		}
		if args[0].Kind() != sqltypes.KindString || args[1].Kind() != sqltypes.KindInt {
			return sqltypes.Null, fmt.Errorf("engine: SUBSTR argument types")
		}
		str := args[0].Str()
		start := int(args[1].Int()) - 1
		if start < 0 {
			start = 0
		}
		if start > len(str) {
			start = len(str)
		}
		end := len(str)
		if len(args) == 3 {
			if args[2].IsNull() || args[2].Kind() != sqltypes.KindInt {
				return sqltypes.Null, fmt.Errorf("engine: SUBSTR length must be an integer")
			}
			if n := int(args[2].Int()); n >= 0 && start+n < end {
				end = start + n
			}
		}
		return sqltypes.NewString(str[start:end]), nil
	case "TRIM":
		if err := wantArgs(name, args, 1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(strings.TrimSpace(args[0].Str())), nil
	case "REPLACE":
		if err := wantArgs(name, args, 3); err != nil {
			return sqltypes.Null, err
		}
		for _, a := range args {
			if a.IsNull() {
				return sqltypes.Null, nil
			}
		}
		return sqltypes.NewString(strings.ReplaceAll(args[0].Str(), args[1].Str(), args[2].Str())), nil
	case "PARTHASH":
		// PARTHASH(v) -> non-negative int64 hash; PARTHASH(v, n) -> hash
		// mod n. SQLoop's partitioner (§V-B) uses this as its hash
		// function so partition assignment is identical on every engine.
		if len(args) != 1 && len(args) != 2 {
			return sqltypes.Null, fmt.Errorf("engine: PARTHASH takes 1 or 2 arguments")
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		h := int64(args[0].Hash() & math.MaxInt64)
		if len(args) == 2 {
			if args[1].IsNull() || args[1].Kind() != sqltypes.KindInt || args[1].Int() <= 0 {
				return sqltypes.Null, fmt.Errorf("engine: PARTHASH modulus must be a positive integer")
			}
			h %= args[1].Int()
		}
		return sqltypes.NewInt(h), nil
	default:
		return sqltypes.Null, fmt.Errorf("engine: unknown function %s", name)
	}
}

func wantArgs(name string, args []sqltypes.Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("engine: %s takes %d argument(s), got %d", name, n, len(args))
	}
	return nil
}

// evalScalarSubquery runs a subquery and demands at most one row of one
// column; zero rows yield NULL.
func (env *evalEnv) evalScalarSubquery(t *sqlparser.Subquery) (sqltypes.Value, error) {
	if env.x == nil {
		return sqltypes.Null, fmt.Errorf("engine: subquery in invalid context")
	}
	rel, err := env.x.evalBody(t.Body)
	if err != nil {
		return sqltypes.Null, err
	}
	if len(rel.rows) == 0 {
		return sqltypes.Null, nil
	}
	if len(rel.rows) > 1 || len(rel.cols) != 1 {
		return sqltypes.Null, fmt.Errorf("engine: scalar subquery returned %d row(s), %d column(s)",
			len(rel.rows), len(rel.cols))
	}
	return rel.rows[0][0], nil
}

// collectAggregates gathers aggregate calls (by node identity) from the
// expression tree, skipping scalar-subquery bodies (they evaluate in
// their own scope).
func collectAggregates(e sqlparser.Expr, into *[]*sqlparser.FuncCall) {
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		if _, ok := x.(*sqlparser.Subquery); ok {
			return false
		}
		if fc, ok := x.(*sqlparser.FuncCall); ok && isAggregate(fc.Name) {
			*into = append(*into, fc)
			return false // no nested aggregates
		}
		return true
	})
}

// knownScalarFunc reports whether the engine implements the scalar
// function.
func knownScalarFunc(name string) bool {
	switch name {
	case "COALESCE", "LEAST", "GREATEST", "ABS", "MOD", "FLOOR", "CEIL",
		"CEILING", "ROUND", "SQRT", "POWER", "POW", "PARTHASH",
		"UPPER", "LOWER", "LENGTH", "CONCAT", "SUBSTR", "SUBSTRING",
		"TRIM", "REPLACE":
		return true
	default:
		return false
	}
}

// validateExpr statically checks an expression against a frame so that
// reference errors surface even when no rows flow (real engines reject
// these at plan time). outCols, when non-nil, offers an extra resolution
// scope (ORDER BY aliases).
func (x *executor) validateExpr(e sqlparser.Expr, f *frame, outCols []string) error {
	var innerErr error
	sqlparser.WalkExpr(e, func(sub sqlparser.Expr) bool {
		if innerErr != nil {
			return false
		}
		switch t := sub.(type) {
		case *sqlparser.ColumnRef:
			if f.hasColumn(t) {
				return true
			}
			if t.Table == "" {
				for _, c := range outCols {
					if strings.EqualFold(c, t.Name) {
						return true
					}
				}
			}
			// Report ambiguity as its own error.
			if _, err := f.resolveRef(t); err != nil {
				innerErr = err
			}
			return true
		case *sqlparser.FuncCall:
			if !isAggregate(t.Name) && !knownScalarFunc(t.Name) {
				innerErr = fmt.Errorf("engine: unknown function %s", t.Name)
			}
			return true
		case *sqlparser.Param:
			if t.Index >= len(x.args) {
				innerErr = fmt.Errorf("engine: missing bind parameter %d", t.Index+1)
			}
			return true
		case *sqlparser.Subquery:
			// Subqueries evaluate in their own scope; only the static
			// column-arity of a scalar subquery is checkable here.
			if sel, ok := t.Body.(*sqlparser.Select); ok {
				explicit := 0
				star := false
				for _, it := range sel.Items {
					if it.Star {
						star = true
					} else {
						explicit++
					}
				}
				if !star && explicit > 1 {
					innerErr = fmt.Errorf("engine: scalar subquery returns %d columns", explicit)
				}
			}
			return false
		default:
			return true
		}
	})
	return innerErr
}

// evalBodyInScope runs a nested select body through the executor.
func (env *evalEnv) evalBodyInScope(b sqlparser.SelectBody) (*relation, error) {
	if env.x == nil {
		return nil, fmt.Errorf("engine: subquery in invalid context")
	}
	return env.x.evalBody(b)
}

// inSubqueryValues memoizes an IN-subquery's result set per statement
// (correlated subqueries are not supported, so one evaluation suffices).
func (env *evalEnv) inSubqueryValues(t *sqlparser.InExpr) ([]sqltypes.Value, error) {
	if env.x.inCache == nil {
		env.x.inCache = make(map[*sqlparser.InExpr][]sqltypes.Value)
	}
	if vals, ok := env.x.inCache[t]; ok {
		return vals, nil
	}
	rel, err := env.evalBodyInScope(t.Sub)
	if err != nil {
		return nil, err
	}
	if len(rel.cols) != 1 {
		return nil, fmt.Errorf("engine: IN subquery returns %d columns", len(rel.cols))
	}
	vals := make([]sqltypes.Value, len(rel.rows))
	for i, r := range rel.rows {
		vals[i] = r[0]
	}
	env.x.inCache[t] = vals
	return vals, nil
}

// castValue converts v to the named type with SQL CAST semantics.
func castValue(v sqltypes.Value, t sqltypes.ColumnType) (sqltypes.Value, error) {
	if v.IsNull() {
		return sqltypes.Null, nil
	}
	switch t {
	case sqltypes.TypeInt:
		switch v.Kind() {
		case sqltypes.KindInt:
			return v, nil
		case sqltypes.KindFloat:
			f := v.Float()
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return sqltypes.Null, fmt.Errorf("engine: cannot cast %v to BIGINT", v)
			}
			return sqltypes.NewInt(int64(f)), nil
		case sqltypes.KindString:
			n, err := strconv.ParseInt(strings.TrimSpace(v.Str()), 10, 64)
			if err != nil {
				return sqltypes.Null, fmt.Errorf("engine: cannot cast %q to BIGINT", v.Str())
			}
			return sqltypes.NewInt(n), nil
		case sqltypes.KindBool:
			if v.Bool() {
				return sqltypes.NewInt(1), nil
			}
			return sqltypes.NewInt(0), nil
		}
	case sqltypes.TypeFloat:
		switch v.Kind() {
		case sqltypes.KindInt:
			return sqltypes.NewFloat(float64(v.Int())), nil
		case sqltypes.KindFloat:
			return v, nil
		case sqltypes.KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.Str()), 64)
			if err != nil {
				return sqltypes.Null, fmt.Errorf("engine: cannot cast %q to DOUBLE", v.Str())
			}
			return sqltypes.NewFloat(f), nil
		}
	case sqltypes.TypeString:
		return sqltypes.NewString(v.String()), nil
	case sqltypes.TypeBool:
		switch v.Kind() {
		case sqltypes.KindBool:
			return v, nil
		case sqltypes.KindInt:
			return sqltypes.NewBool(v.Int() != 0), nil
		}
	case sqltypes.TypeAny:
		return v, nil
	}
	return sqltypes.Null, fmt.Errorf("engine: cannot cast %s to %s", v.Kind(), t)
}

// likeMatch implements SQL LIKE: % matches any run, _ one character.
func likeMatch(s, pattern string) bool {
	// Iterative two-pointer matching with backtracking on the last %.
	si, pi := 0, 0
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star, starSi = pi, si
			pi++
		case star >= 0:
			starSi++
			si, pi = starSi, star+1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}
