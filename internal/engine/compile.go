package engine

import (
	"fmt"
	"strings"
	"sync"

	"sqloop/internal/sqlparser"
	"sqloop/internal/sqltypes"
)

// This file lowers expression trees into closure chains so the per-row
// cost of the iterative hot path is a handful of direct calls instead
// of a type-switch walk over the AST. Compilation happens once per
// (expression node, frame layout) and the resulting programs are
// cached on the statement-cache entry, so the statements SQLoop
// re-executes every round never re-lower after round one.
//
// The contract is strict behavioural equivalence with evalExpr: any
// input (including zero-row inputs, bad references and runtime type
// errors) must produce the same rows and the same errors with
// compilation on or off. Two rules keep that true:
//
//   - static resolution failures (unknown/ambiguous columns) do not
//     fail compilation; the node falls back to a program that defers
//     to the interpreter, which re-raises the error per evaluation —
//     or never, if no row is ever evaluated;
//   - constant folding only replaces a subtree whose compile-time
//     evaluation succeeded. A constant subtree that errors keeps its
//     runtime program, so the error still surfaces once per
//     evaluation, not at compile time.

// program is a compiled expression: running it is equivalent to
// env.evalExpr on the source tree. Programs capture only immutable
// data (offsets, constants, child programs) and are safe for
// concurrent use by different sessions.
type program func(env *evalEnv) (sqltypes.Value, error)

// compiled pairs a program with whether its value is independent of
// row, bind args and executor state (the constant-folding property).
type compiled struct {
	run      program
	constant bool
}

// interpProg defers a node to the tree-walking interpreter. Used for
// subqueries (which need executor state) and for nodes whose static
// resolution failed, so errors keep their uncompiled timing.
func interpProg(e sqlparser.Expr) program {
	return func(env *evalEnv) (sqltypes.Value, error) { return env.evalExpr(e) }
}

// foldConst collapses a constant subtree to its value. Evaluation
// errors are deferred to run time so that inputs with zero rows behave
// exactly like the interpreter, which would never have evaluated the
// expression.
func foldConst(c compiled) compiled {
	if !c.constant {
		return c
	}
	v, err := c.run(&evalEnv{})
	if err != nil {
		return c
	}
	c.run = func(*evalEnv) (sqltypes.Value, error) { return v, nil }
	return c
}

// compileExpr lowers e against frame f. It never fails; see the file
// comment for how static errors are handled.
func compileExpr(e sqlparser.Expr, f *frame) program {
	return compileNode(e, f).run
}

func compileNode(e sqlparser.Expr, f *frame) compiled {
	switch t := e.(type) {
	case *sqlparser.Literal:
		v := t.Val
		return compiled{constant: true, run: func(*evalEnv) (sqltypes.Value, error) { return v, nil }}

	case *sqlparser.Param:
		idx := t.Index
		return compiled{run: func(env *evalEnv) (sqltypes.Value, error) {
			if env.x == nil || idx >= len(env.x.args) {
				return sqltypes.Null, fmt.Errorf("engine: missing bind parameter %d", idx+1)
			}
			return env.x.args[idx], nil
		}}

	case *sqlparser.ColumnRef:
		if f == nil {
			return compiled{run: interpProg(e)}
		}
		off, err := f.resolveRef(t)
		if err != nil {
			return compiled{run: interpProg(e)}
		}
		return compiled{run: func(env *evalEnv) (sqltypes.Value, error) {
			if off >= len(env.row) {
				return sqltypes.Null, nil
			}
			return env.row[off], nil
		}}

	case *sqlparser.BinaryExpr:
		l, r := compileNode(t.Left, f), compileNode(t.Right, f)
		op := t.Op
		lp, rp := l.run, r.run
		return foldConst(compiled{
			constant: l.constant && r.constant,
			run: func(env *evalEnv) (sqltypes.Value, error) {
				lv, err := lp(env)
				if err != nil {
					return sqltypes.Null, err
				}
				rv, err := rp(env)
				if err != nil {
					return sqltypes.Null, err
				}
				return sqltypes.Arith(op, lv, rv)
			},
		})

	case *sqlparser.ComparisonExpr:
		l, r := compileNode(t.Left, f), compileNode(t.Right, f)
		op := t.Op
		lp, rp := l.run, r.run
		return foldConst(compiled{
			constant: l.constant && r.constant,
			run: func(env *evalEnv) (sqltypes.Value, error) {
				lv, err := lp(env)
				if err != nil {
					return sqltypes.Null, err
				}
				rv, err := rp(env)
				if err != nil {
					return sqltypes.Null, err
				}
				return sqltypes.CompareSQL(op, lv, rv)
			},
		})

	case *sqlparser.LogicalExpr:
		return compileLogical(t, f)

	case *sqlparser.NotExpr:
		in := compileNode(t.Inner, f)
		ip := in.run
		return foldConst(compiled{
			constant: in.constant,
			run: func(env *evalEnv) (sqltypes.Value, error) {
				v, err := ip(env)
				if err != nil {
					return sqltypes.Null, err
				}
				if v.IsNull() {
					return sqltypes.Null, nil
				}
				return sqltypes.NewBool(!v.IsTrue()), nil
			},
		})

	case *sqlparser.IsNullExpr:
		in := compileNode(t.Inner, f)
		ip, not := in.run, t.Not
		return foldConst(compiled{
			constant: in.constant,
			run: func(env *evalEnv) (sqltypes.Value, error) {
				v, err := ip(env)
				if err != nil {
					return sqltypes.Null, err
				}
				return sqltypes.NewBool(v.IsNull() != not), nil
			},
		})

	case *sqlparser.InExpr:
		return compileIn(t, f)

	case *sqlparser.CaseExpr:
		return compileCase(t, f)

	case *sqlparser.FuncCall:
		return compileFunc(t, f)

	case *sqlparser.Subquery, *sqlparser.ExistsExpr:
		// Subqueries run whole select bodies through the executor; the
		// per-row win of compiling the wrapper is nil.
		return compiled{run: interpProg(e)}

	case *sqlparser.CastExpr:
		in := compileNode(t.Inner, f)
		ip, typ := in.run, t.Type
		return foldConst(compiled{
			constant: in.constant,
			run: func(env *evalEnv) (sqltypes.Value, error) {
				v, err := ip(env)
				if err != nil {
					return sqltypes.Null, err
				}
				return castValue(v, typ)
			},
		})

	case *sqlparser.LikeExpr:
		return compileLike(t, f)

	default:
		// Unknown node kinds keep the interpreter's per-evaluation
		// "unsupported expression" error.
		return compiled{run: interpProg(e)}
	}
}

// compileLogical mirrors evalLogical's three-valued short-circuit.
func compileLogical(t *sqlparser.LogicalExpr, f *frame) compiled {
	l, r := compileNode(t.Left, f), compileNode(t.Right, f)
	lp, rp := l.run, r.run
	and := t.Op == sqlparser.LogicAnd
	return foldConst(compiled{
		constant: l.constant && r.constant,
		run: func(env *evalEnv) (sqltypes.Value, error) {
			lv, err := lp(env)
			if err != nil {
				return sqltypes.Null, err
			}
			if and && !lv.IsNull() && !lv.IsTrue() {
				return sqltypes.NewBool(false), nil
			}
			if !and && lv.IsTrue() {
				return sqltypes.NewBool(true), nil
			}
			rv, err := rp(env)
			if err != nil {
				return sqltypes.Null, err
			}
			if and {
				switch {
				case !rv.IsNull() && !rv.IsTrue():
					return sqltypes.NewBool(false), nil
				case lv.IsNull() || rv.IsNull():
					return sqltypes.Null, nil
				default:
					return sqltypes.NewBool(true), nil
				}
			}
			switch {
			case rv.IsTrue():
				return sqltypes.NewBool(true), nil
			case lv.IsNull() || rv.IsNull():
				return sqltypes.Null, nil
			default:
				return sqltypes.NewBool(false), nil
			}
		},
	})
}

// compileIn compiles the list form of IN; the subquery form keeps the
// interpreter (it memoizes through executor state).
func compileIn(t *sqlparser.InExpr, f *frame) compiled {
	if t.Sub != nil {
		return compiled{run: interpProg(t)}
	}
	left := compileNode(t.Left, f)
	items := make([]program, len(t.List))
	constant := left.constant
	for i, it := range t.List {
		c := compileNode(it, f)
		items[i] = c.run
		constant = constant && c.constant
	}
	lp, not := left.run, t.Not
	return foldConst(compiled{
		constant: constant,
		run: func(env *evalEnv) (sqltypes.Value, error) {
			l, err := lp(env)
			if err != nil {
				return sqltypes.Null, err
			}
			if l.IsNull() {
				return sqltypes.Null, nil
			}
			sawNull := false
			for _, ip := range items {
				v, err := ip(env)
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
					return sqltypes.NewBool(!not), nil
				}
			}
			if sawNull {
				return sqltypes.Null, nil
			}
			return sqltypes.NewBool(not), nil
		},
	})
}

func compileCase(t *sqlparser.CaseExpr, f *frame) compiled {
	conds := make([]program, len(t.Whens))
	results := make([]program, len(t.Whens))
	constant := true
	for i, w := range t.Whens {
		c, r := compileNode(w.Cond, f), compileNode(w.Result, f)
		conds[i], results[i] = c.run, r.run
		constant = constant && c.constant && r.constant
	}
	var elseP program
	if t.Else != nil {
		c := compileNode(t.Else, f)
		elseP = c.run
		constant = constant && c.constant
	}
	return foldConst(compiled{
		constant: constant,
		run: func(env *evalEnv) (sqltypes.Value, error) {
			for i, cp := range conds {
				c, err := cp(env)
				if err != nil {
					return sqltypes.Null, err
				}
				if c.IsTrue() {
					return results[i](env)
				}
			}
			if elseP != nil {
				return elseP(env)
			}
			return sqltypes.Null, nil
		},
	})
}

func compileFunc(t *sqlparser.FuncCall, f *frame) compiled {
	if isAggregate(t.Name) {
		fc := t
		return compiled{run: func(env *evalEnv) (sqltypes.Value, error) {
			if env.aggs != nil {
				if v, ok := env.aggs[fc]; ok {
					return v, nil
				}
			}
			return sqltypes.Null, fmt.Errorf("engine: aggregate %s used outside grouped query", fc.Name)
		}}
	}
	cargs := make([]compiled, len(t.Args))
	constant := true
	for i, a := range t.Args {
		cargs[i] = compileNode(a, f)
		constant = constant && cargs[i].constant
	}
	name := t.Name
	var run program
	// Fixed-arity fast paths keep the argument vector on the stack
	// (callScalarFunc does not retain it), removing the interpreter's
	// per-call slice allocation.
	switch len(cargs) {
	case 1:
		a0 := cargs[0].run
		run = func(env *evalEnv) (sqltypes.Value, error) {
			v, err := a0(env)
			if err != nil {
				return sqltypes.Null, err
			}
			buf := [1]sqltypes.Value{v}
			return callScalarFunc(name, buf[:])
		}
	case 2:
		a0, a1 := cargs[0].run, cargs[1].run
		run = func(env *evalEnv) (sqltypes.Value, error) {
			v0, err := a0(env)
			if err != nil {
				return sqltypes.Null, err
			}
			v1, err := a1(env)
			if err != nil {
				return sqltypes.Null, err
			}
			buf := [2]sqltypes.Value{v0, v1}
			return callScalarFunc(name, buf[:])
		}
	default:
		runs := make([]program, len(cargs))
		for i, c := range cargs {
			runs[i] = c.run
		}
		run = func(env *evalEnv) (sqltypes.Value, error) {
			args := make([]sqltypes.Value, len(runs))
			for i, p := range runs {
				v, err := p(env)
				if err != nil {
					return sqltypes.Null, err
				}
				args[i] = v
			}
			return callScalarFunc(name, args)
		}
	}
	return foldConst(compiled{run: run, constant: constant && knownScalarFunc(name)})
}

// compileLike precompiles constant LIKE patterns into a segment
// matcher; variable patterns keep per-row likeMatch over compiled
// children.
func compileLike(t *sqlparser.LikeExpr, f *frame) compiled {
	left := compileNode(t.Left, f)
	pat := compileNode(t.Pattern, f)
	lp, pp, not := left.run, pat.run, t.Not

	if pat.constant {
		pv, err := pat.run(&evalEnv{})
		switch {
		case err == nil && pv.IsNull():
			// NULL pattern: the result is NULL whenever the left side
			// evaluates (the interpreter checks nullness before kinds).
			return foldConst(compiled{
				constant: left.constant,
				run: func(env *evalEnv) (sqltypes.Value, error) {
					if _, err := lp(env); err != nil {
						return sqltypes.Null, err
					}
					return sqltypes.Null, nil
				},
			})
		case err == nil && pv.Kind() == sqltypes.KindString:
			m := compileLikePattern(pv.Str())
			return foldConst(compiled{
				constant: left.constant,
				run: func(env *evalEnv) (sqltypes.Value, error) {
					l, err := lp(env)
					if err != nil {
						return sqltypes.Null, err
					}
					if l.IsNull() {
						return sqltypes.Null, nil
					}
					if l.Kind() != sqltypes.KindString {
						return sqltypes.Null, fmt.Errorf("engine: LIKE requires strings")
					}
					return sqltypes.NewBool(m.match(l.Str()) != not), nil
				},
			})
		}
		// Constant evaluation failed or yielded a non-string: fall
		// through to the generic path, which reproduces the
		// interpreter's error timing exactly.
	}
	return foldConst(compiled{
		constant: left.constant && pat.constant,
		run: func(env *evalEnv) (sqltypes.Value, error) {
			l, err := lp(env)
			if err != nil {
				return sqltypes.Null, err
			}
			p, err := pp(env)
			if err != nil {
				return sqltypes.Null, err
			}
			if l.IsNull() || p.IsNull() {
				return sqltypes.Null, nil
			}
			if l.Kind() != sqltypes.KindString || p.Kind() != sqltypes.KindString {
				return sqltypes.Null, fmt.Errorf("engine: LIKE requires strings")
			}
			return sqltypes.NewBool(likeMatch(l.Str(), p.Str()) != not), nil
		},
	})
}

// likeMatcher is a LIKE pattern split on '%' into byte chunks ('_'
// wildcards stay inside chunks): the head chunk is anchored at the
// start, the tail chunk at the end, and interior chunks are matched
// greedily left to right — linear in the input instead of the
// interpreter's backtracking walk over the raw pattern.
type likeMatcher struct {
	exact bool // pattern has no '%': head is the whole pattern
	head  string
	mids  []string
	tail  string
}

// compileLikePattern builds the matcher. Matching is byte-level, like
// likeMatch, so behaviour on non-UTF-8 input is identical.
func compileLikePattern(p string) *likeMatcher {
	if !strings.Contains(p, "%") {
		return &likeMatcher{exact: true, head: p}
	}
	segs := strings.Split(p, "%")
	m := &likeMatcher{head: segs[0], tail: segs[len(segs)-1]}
	for _, s := range segs[1 : len(segs)-1] {
		if s != "" {
			m.mids = append(m.mids, s)
		}
	}
	return m
}

func (m *likeMatcher) match(s string) bool {
	if m.exact {
		return len(s) == len(m.head) && likeChunkEq(s, m.head)
	}
	if len(s) < len(m.head)+len(m.tail) {
		return false
	}
	if !likeChunkEq(s[:len(m.head)], m.head) {
		return false
	}
	if !likeChunkEq(s[len(s)-len(m.tail):], m.tail) {
		return false
	}
	i := len(m.head)
	limit := len(s) - len(m.tail)
	for _, c := range m.mids {
		j := likeChunkIndex(s[i:limit], c)
		if j < 0 {
			return false
		}
		i += j + len(c)
	}
	return true
}

// likeChunkEq matches a '%'-free pattern chunk against a string slice
// of equal length ('_' matches any byte).
func likeChunkEq(s, c string) bool {
	for k := 0; k < len(c); k++ {
		if c[k] != '_' && c[k] != s[k] {
			return false
		}
	}
	return true
}

// likeChunkIndex finds the leftmost match of chunk c inside s, -1 when
// absent. Leftmost placement of interior chunks is optimal for
// '%'-separated patterns.
func likeChunkIndex(s, c string) int {
	for i := 0; i+len(c) <= len(s); i++ {
		if likeChunkEq(s[i:i+len(c)], c) {
			return i
		}
	}
	return -1
}

// andProg chains two programs with three-valued AND, matching the
// interpreter's evaluation of the equivalent LogicalExpr node.
func andProg(lp, rp program) program {
	return func(env *evalEnv) (sqltypes.Value, error) {
		lv, err := lp(env)
		if err != nil {
			return sqltypes.Null, err
		}
		if !lv.IsNull() && !lv.IsTrue() {
			return sqltypes.NewBool(false), nil
		}
		rv, err := rp(env)
		if err != nil {
			return sqltypes.Null, err
		}
		switch {
		case !rv.IsNull() && !rv.IsTrue():
			return sqltypes.NewBool(false), nil
		case lv.IsNull() || rv.IsNull():
			return sqltypes.Null, nil
		default:
			return sqltypes.NewBool(true), nil
		}
	}
}

// residualProg compiles a residual conjunct list into one program,
// evaluating exactly like the left-associative AND chain the join
// used to synthesize. The conjuncts are original AST nodes, so their
// programs cache normally; only the cheap per-statement AND wrappers
// are rebuilt. Returns nil for an empty list.
func (x *executor) residualProg(conjuncts []sqlparser.Expr, f *frame) program {
	var p program
	for _, c := range conjuncts {
		q := x.prog(c, f)
		if p == nil {
			p = q
		} else {
			p = andProg(p, q)
		}
	}
	return p
}

// selPlan is the compiled form of one SELECT core under one input
// frame: star-expanded items, output names, and the programs for every
// per-row expression. Cached on the statement's progCache keyed by the
// Select node, so star expansion and lowering happen once per cached
// statement instead of once per execution (star expansion synthesizes
// fresh ColumnRef nodes, which must not leak into the per-node program
// cache). All fields are immutable after construction.
type selPlan struct {
	items     []sqlparser.SelectItem
	cols      []string
	itemProgs []program
	having    program
	groupBy   []program
	aggs      []*sqlparser.FuncCall
	// aggArgs holds the compiled argument of each well-formed non-star
	// aggregate; malformed calls are absent and fail in computeAggregate.
	aggArgs  map[*sqlparser.FuncCall]program
	orderFns []orderKeyFn
	desc     []bool

	// Batch-execution lowerings (nil / empty when vectorization is off).
	// vecItems holds one batch node per select item for the non-grouped
	// projection. vecGB holds the GROUP BY key nodes followed by the
	// argument nodes of the vectorizable aggregates listed in vecAggs.
	// vecAggsAll reports that every aggregate of the plan is in vecAggs,
	// so batch grouping need not materialize per-group row lists.
	// orderRowOnly reports that every ORDER BY key reads only the
	// projected output row (ordinals and output aliases), so batch
	// projection may drop the per-row environments.
	vecItems     *vplan
	vecGB        *vplan
	vecAggs      []vecAggSpec
	vecAggsAll   bool
	orderRowOnly bool
}

// vecAggSpec is one vectorizable aggregate: the call and the index of
// its argument node in vecGB.nodes (-1 for COUNT(*), which has none).
type vecAggSpec struct {
	fc   *sqlparser.FuncCall
	node int
}

// orderKeyFn produces one ORDER BY key for an output row: ordinals and
// output aliases read the projected row, anything else evaluates in the
// row's originating environment.
type orderKeyFn func(out sqltypes.Row, env *evalEnv) (sqltypes.Value, error)

// selKey identifies a cached select plan.
type selKey struct {
	sel *sqlparser.Select
	sig string
}

// compileHere lowers e without consulting the per-node program cache;
// the caller is responsible for retaining the result (select plans
// cache whole compiled item lists, including synthesized star nodes).
func (x *executor) compileHere(e sqlparser.Expr, f *frame) program {
	if x.eng.cfg.DisableExprCompile {
		return interpProg(e)
	}
	x.eng.exprCompiles.Add(1)
	return compileExpr(e, f)
}

// selectPlan returns the (possibly cached) compiled plan for s under f.
func (x *executor) selectPlan(s *sqlparser.Select, f *frame) (*selPlan, error) {
	cacheable := x.progs != nil && !x.eng.cfg.DisableExprCompile
	var key selKey
	if cacheable {
		key = selKey{sel: s, sig: f.sig()}
		if p := x.progs.getSel(key); p != nil {
			x.eng.exprCacheHits.Add(1)
			return p, nil
		}
	}
	p, err := x.buildSelectPlan(s, f)
	if err != nil {
		return nil, err
	}
	if cacheable {
		x.progs.putSel(key, p)
	}
	return p, nil
}

func (x *executor) buildSelectPlan(s *sqlparser.Select, f *frame) (*selPlan, error) {
	items, err := expandStars(s.Items, f)
	if err != nil {
		return nil, err
	}
	p := &selPlan{items: items, cols: outputColumns(items)}
	p.itemProgs = make([]program, len(items))
	for i, it := range items {
		p.itemProgs[i] = x.compileHere(it.Expr, f)
	}
	if s.Having != nil {
		p.having = x.compileHere(s.Having, f)
	}
	for _, g := range s.GroupBy {
		p.groupBy = append(p.groupBy, x.compileHere(g, f))
	}
	for _, it := range items {
		collectAggregates(it.Expr, &p.aggs)
	}
	collectAggregates(s.Having, &p.aggs)
	for _, o := range s.OrderBy {
		collectAggregates(o.Expr, &p.aggs)
	}
	p.aggArgs = make(map[*sqlparser.FuncCall]program, len(p.aggs))
	for _, fc := range p.aggs {
		if !fc.Star && len(fc.Args) == 1 {
			p.aggArgs[fc] = x.compileHere(fc.Args[0], f)
		}
	}
	p.orderRowOnly = true
	for _, o := range s.OrderBy {
		fn, rowOnly := x.orderKeyFn(o.Expr, p.cols, f)
		p.orderFns = append(p.orderFns, fn)
		p.desc = append(p.desc, o.Desc)
		if !rowOnly {
			p.orderRowOnly = false
		}
	}
	if x.vecOK() {
		itemExprs := make([]sqlparser.Expr, len(items))
		for i, it := range items {
			itemExprs[i] = it.Expr
		}
		p.vecItems = compileVecPlan(itemExprs, f)
		if len(s.GroupBy) > 0 || len(p.aggs) > 0 {
			gbExprs := append([]sqlparser.Expr(nil), s.GroupBy...)
			p.vecAggsAll = true
			for _, fc := range p.aggs {
				switch {
				case fc.Star && fc.Name == "COUNT":
					p.vecAggs = append(p.vecAggs, vecAggSpec{fc: fc, node: -1})
				case !fc.Star && !fc.Distinct && len(fc.Args) == 1 && isVecAggName(fc.Name):
					p.vecAggs = append(p.vecAggs, vecAggSpec{fc: fc, node: len(gbExprs)})
					gbExprs = append(gbExprs, fc.Args[0])
				default:
					p.vecAggsAll = false
				}
			}
			p.vecGB = compileVecPlan(gbExprs, f)
		}
	}
	return p, nil
}

// isVecAggName reports whether the aggregate has a streaming batch
// accumulator (vecAgg); others run through computeAggregate per group.
func isVecAggName(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// orderKeyFn resolves one ORDER BY expression once, mirroring the
// per-row resolution the interpreter used to do inside the sort.
// rowOnly reports that the key reads only the projected output row, not
// the row's originating environment.
func (x *executor) orderKeyFn(e sqlparser.Expr, cols []string, f *frame) (orderKeyFn, bool) {
	switch t := e.(type) {
	case *sqlparser.Literal:
		if t.Val.Kind() == sqltypes.KindInt {
			n := int(t.Val.Int())
			return func(out sqltypes.Row, env *evalEnv) (sqltypes.Value, error) {
				if n >= 1 && n <= len(out) {
					return out[n-1], nil
				}
				return sqltypes.Null, fmt.Errorf("engine: ORDER BY position %d out of range", n)
			}, true
		}
	case *sqlparser.ColumnRef:
		if t.Table == "" {
			for j, c := range cols {
				if strings.EqualFold(c, t.Name) {
					j := j
					return func(out sqltypes.Row, env *evalEnv) (sqltypes.Value, error) {
						return out[j], nil
					}, true
				}
			}
		}
	}
	p := x.compileHere(e, f)
	return func(out sqltypes.Row, env *evalEnv) (sqltypes.Value, error) {
		return p(env)
	}, false
}

// progKey identifies a cached program: the expression node (by
// identity — cached statements share immutable ASTs) plus the frame
// layout it was resolved against. The same node can legitimately
// compile under several layouts (a view body referenced from different
// outer queries), so the signature is part of the key, not just a
// validity check.
type progKey struct {
	expr sqlparser.Expr
	sig  string
}

// progCache holds the compiled programs of one cached statement. It is
// shared by every session executing that statement, hence the lock.
type progCache struct {
	mu   sync.RWMutex
	m    map[progKey]program
	sels map[selKey]*selPlan
	// vecs caches single-expression batch plans (WHERE, join keys). A
	// nil value is cached too: it records that the plan had nothing to
	// vectorize, so the row path is taken without recompiling.
	vecs map[progKey]*vplan
}

func newProgCache() *progCache {
	return &progCache{
		m:    make(map[progKey]program),
		sels: make(map[selKey]*selPlan),
		vecs: make(map[progKey]*vplan),
	}
}

func (pc *progCache) getVec(k progKey) (*vplan, bool) {
	pc.mu.RLock()
	p, ok := pc.vecs[k]
	pc.mu.RUnlock()
	return p, ok
}

func (pc *progCache) putVec(k progKey, p *vplan) {
	pc.mu.Lock()
	pc.vecs[k] = p
	pc.mu.Unlock()
}

func (pc *progCache) getSel(k selKey) *selPlan {
	pc.mu.RLock()
	p := pc.sels[k]
	pc.mu.RUnlock()
	return p
}

func (pc *progCache) putSel(k selKey, p *selPlan) {
	pc.mu.Lock()
	pc.sels[k] = p
	pc.mu.Unlock()
}

func (pc *progCache) get(k progKey) program {
	pc.mu.RLock()
	p := pc.m[k]
	pc.mu.RUnlock()
	return p
}

func (pc *progCache) put(k progKey, p program) {
	pc.mu.Lock()
	pc.m[k] = p
	pc.mu.Unlock()
}

// size reports the number of cached programs (tests).
func (pc *progCache) size() int {
	pc.mu.RLock()
	defer pc.mu.RUnlock()
	return len(pc.m)
}

// ExprCompileStats reports how many expression lowerings the engine has
// performed and how many were avoided by the program cache (tests and
// diagnostics): in steady-state iterative rounds only hits should grow.
func (e *Engine) ExprCompileStats() (compiles, cacheHits int64) {
	return e.exprCompiles.Load(), e.exprCacheHits.Load()
}

// prog returns the program for e against f, consulting the statement's
// shared program cache when one is attached. With DisableExprCompile
// set the returned program defers to the tree-walking interpreter —
// the A/B baseline the compile on/off matrix exercises.
func (x *executor) prog(e sqlparser.Expr, f *frame) program {
	if x.eng.cfg.DisableExprCompile {
		return interpProg(e)
	}
	if x.progs == nil {
		x.eng.exprCompiles.Add(1)
		return compileExpr(e, f)
	}
	k := progKey{expr: e, sig: f.sig()}
	if p := x.progs.get(k); p != nil {
		x.eng.exprCacheHits.Add(1)
		return p
	}
	p := compileExpr(e, f)
	x.progs.put(k, p)
	x.eng.exprCompiles.Add(1)
	if r := x.eng.metrics.Load(); r != nil {
		r.Counter("sqloop_expr_programs_compiled").Inc()
	}
	return p
}
