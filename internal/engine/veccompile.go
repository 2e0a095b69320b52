package engine

import (
	"sqloop/internal/sqlparser"
	"sqloop/internal/sqltypes"
	"sqloop/internal/vec"
)

// This file lowers expression trees a second time, into batch kernels
// over internal/vec column vectors. The vectorized path rides on top
// of the PR 4 compiled programs: nodes with a native kernel run
// per-column tight loops over a selection vector; everything else
// (subqueries, CASE, IN, aggregates, unresolvable references) gets a
// row-adapter node that loops the node's compiled row program over the
// batch, so a partially-vectorizable expression still executes
// batch-at-a-time.
//
// The equivalence contract is looser than the row compiler's, because
// the executor backstops it: a batch plan must produce exactly the
// interpreter's values whenever the interpreter would succeed on every
// row of the batch, and must return an error otherwise. On any error
// the executor re-runs that batch through the row path from the start
// of the window, which reproduces the row path's results, errors and
// error ordering bit-for-bit (windows are processed in row order).
// Kernels therefore never need to replicate error timing — only
// success values.

// vnode is one compiled batch expression node. eval writes only the
// positions listed in sel; callers must not read unselected positions.
type vnode struct {
	eval func(vx *vecExec, sel []int) (*vec.Vec, error)
}

// vplan is a set of co-compiled expressions sharing one slot space
// (their result vectors never clobber each other within a batch).
type vplan struct {
	nodes    []vnode
	nslots   int
	selSlots int
	// kernels counts natively-vectorized column reads in the plan: the
	// executor only takes the batch path when at least one exists
	// (an all-adapter or all-constant plan has nothing to amortize).
	kernels int
}

// useVec reports whether running this plan batch-at-a-time can beat
// the row path.
func (p *vplan) useVec() bool { return p != nil && p.kernels > 0 }

// vcomp is the compilation context: a slot allocator over one frame.
type vcomp struct {
	f        *frame
	nslots   int
	selSlots int
	kernels  int
}

func (c *vcomp) slot() int {
	s := c.nslots
	c.nslots++
	return s
}

func (c *vcomp) selSlot() int {
	s := c.selSlots
	c.selSlots++
	return s
}

// compileVecPlan lowers exprs against f into one shared-slot batch
// plan. Like compileExpr it never fails; unsupported nodes become
// row adapters.
func compileVecPlan(exprs []sqlparser.Expr, f *frame) *vplan {
	c := &vcomp{f: f}
	p := &vplan{nodes: make([]vnode, 0, len(exprs))}
	for _, e := range exprs {
		p.nodes = append(p.nodes, c.compile(e))
	}
	p.nslots, p.selSlots, p.kernels = c.nslots, c.selSlots, c.kernels
	return p
}

// adapter wraps a node's compiled row program in a batch loop: the
// fallback that keeps arbitrary expressions flowing through the batch
// path. The program is compiled once per plan (plans are cached on the
// statement), not per execution.
func (c *vcomp) adapter(e sqlparser.Expr) vnode {
	rp := compileExpr(e, c.f)
	slot := c.slot()
	return vnode{eval: func(vx *vecExec, sel []int) (*vec.Vec, error) {
		out := vx.slot(slot)
		out.ResetAny(vx.n)
		env := vx.env
		for _, i := range sel {
			env.row = vx.win[i]
			v, err := rp(env)
			if err != nil {
				return nil, err
			}
			out.SetAny(i, v)
		}
		return out, nil
	}}
}

func (c *vcomp) compile(e sqlparser.Expr) vnode {
	switch t := e.(type) {
	case *sqlparser.Literal:
		val := t.Val
		slot := c.slot()
		return vnode{eval: func(vx *vecExec, sel []int) (*vec.Vec, error) {
			out := vx.slot(slot)
			out.SetConst(val, vx.n)
			return out, nil
		}}

	case *sqlparser.Param:
		idx := t.Index
		slot := c.slot()
		return vnode{eval: func(vx *vecExec, sel []int) (*vec.Vec, error) {
			if vx.x == nil || idx >= len(vx.x.args) {
				// Missing bind parameter: let the row path raise its
				// per-row error.
				return nil, errVecFallback
			}
			out := vx.slot(slot)
			out.SetConst(vx.x.args[idx], vx.n)
			return out, nil
		}}

	case *sqlparser.ColumnRef:
		if c.f == nil {
			return c.adapter(e)
		}
		off, err := c.f.resolveRef(t)
		if err != nil {
			// Static resolution failure: the adapter's interpreter
			// program re-raises the error per batch, and the executor's
			// fallback re-raises it per row.
			return c.adapter(e)
		}
		c.kernels++
		return vnode{eval: func(vx *vecExec, sel []int) (*vec.Vec, error) {
			return vx.col(off), nil
		}}

	case *sqlparser.ComparisonExpr:
		l, r := c.compile(t.Left), c.compile(t.Right)
		op := t.Op
		slot := c.slot()
		return vnode{eval: func(vx *vecExec, sel []int) (*vec.Vec, error) {
			lv, err := l.eval(vx, sel)
			if err != nil {
				return nil, err
			}
			rv, err := r.eval(vx, sel)
			if err != nil {
				return nil, err
			}
			out := vx.slot(slot)
			if err := vec.Compare(op, lv, rv, out, sel); err != nil {
				return nil, err
			}
			return out, nil
		}}

	case *sqlparser.BinaryExpr:
		l, r := c.compile(t.Left), c.compile(t.Right)
		op := t.Op
		slot := c.slot()
		return vnode{eval: func(vx *vecExec, sel []int) (*vec.Vec, error) {
			lv, err := l.eval(vx, sel)
			if err != nil {
				return nil, err
			}
			rv, err := r.eval(vx, sel)
			if err != nil {
				return nil, err
			}
			out := vx.slot(slot)
			if err := vec.Arith(op, lv, rv, out, sel); err != nil {
				return nil, err
			}
			return out, nil
		}}

	case *sqlparser.LogicalExpr:
		return c.compileLogical(t)

	case *sqlparser.NotExpr:
		in := c.compile(t.Inner)
		slot := c.slot()
		return vnode{eval: func(vx *vecExec, sel []int) (*vec.Vec, error) {
			iv, err := in.eval(vx, sel)
			if err != nil {
				return nil, err
			}
			out := vx.slot(slot)
			out.ResetBools(vx.n)
			for _, i := range sel {
				switch iv.Truth(i) {
				case -1:
					out.SetNull(i)
				case 1:
					out.SetBool(i, false)
				default:
					out.SetBool(i, true)
				}
			}
			return out, nil
		}}

	case *sqlparser.IsNullExpr:
		in := c.compile(t.Inner)
		not := t.Not
		slot := c.slot()
		return vnode{eval: func(vx *vecExec, sel []int) (*vec.Vec, error) {
			iv, err := in.eval(vx, sel)
			if err != nil {
				return nil, err
			}
			out := vx.slot(slot)
			out.ResetBools(vx.n)
			for _, i := range sel {
				out.SetBool(i, iv.IsNullAt(i) != not)
			}
			return out, nil
		}}

	case *sqlparser.FuncCall:
		if isAggregate(t.Name) {
			// Aggregates only evaluate in grouped projection, which the
			// executor runs row-at-a-time (one row per group); the
			// adapter keeps the "outside grouped query" error exact.
			return c.adapter(e)
		}
		args := make([]vnode, len(t.Args))
		for i, a := range t.Args {
			args[i] = c.compile(a)
		}
		name := t.Name
		slot := c.slot()
		return vnode{eval: func(vx *vecExec, sel []int) (*vec.Vec, error) {
			avs := make([]*vec.Vec, len(args))
			for k, a := range args {
				av, err := a.eval(vx, sel)
				if err != nil {
					return nil, err
				}
				avs[k] = av
			}
			out := vx.slot(slot)
			out.ResetAny(vx.n)
			buf := make([]sqltypes.Value, len(avs))
			for _, i := range sel {
				for k, av := range avs {
					buf[k] = av.Get(i)
				}
				v, err := callScalarFunc(name, buf)
				if err != nil {
					return nil, err
				}
				out.SetAny(i, v)
			}
			return out, nil
		}}

	case *sqlparser.CastExpr:
		in := c.compile(t.Inner)
		typ := t.Type
		slot := c.slot()
		return vnode{eval: func(vx *vecExec, sel []int) (*vec.Vec, error) {
			iv, err := in.eval(vx, sel)
			if err != nil {
				return nil, err
			}
			out := vx.slot(slot)
			out.ResetAny(vx.n)
			for _, i := range sel {
				v, err := castValue(iv.Get(i), typ)
				if err != nil {
					return nil, err
				}
				out.SetAny(i, v)
			}
			return out, nil
		}}

	case *sqlparser.LikeExpr:
		return c.compileLike(t)

	default:
		// CASE, IN, subqueries, EXISTS and unknown nodes run through
		// their row programs batch-at-a-time.
		return c.adapter(e)
	}
}

// compileLogical is the batch form of three-valued AND/OR with
// selection narrowing: the right side is evaluated only on the rows
// the left side did not decide, which reproduces the row path's
// short-circuiting — including its suppression of right-side errors on
// decided rows — without any per-row branching in the common case.
func (c *vcomp) compileLogical(t *sqlparser.LogicalExpr) vnode {
	l, r := c.compile(t.Left), c.compile(t.Right)
	and := t.Op == sqlparser.LogicAnd
	slot := c.slot()
	selSlot := c.selSlot()
	return vnode{eval: func(vx *vecExec, sel []int) (*vec.Vec, error) {
		lv, err := l.eval(vx, sel)
		if err != nil {
			return nil, err
		}
		out := vx.slot(slot)
		out.ResetBools(vx.n)
		sel2 := vx.selSlot(selSlot)[:0]
		for _, i := range sel {
			lt := lv.Truth(i)
			if and && lt == 0 {
				out.SetBool(i, false) // FALSE AND _ = FALSE
				continue
			}
			if !and && lt == 1 {
				out.SetBool(i, true) // TRUE OR _ = TRUE
				continue
			}
			sel2 = append(sel2, i)
		}
		vx.setSelSlot(selSlot, sel2)
		if len(sel2) == 0 {
			return out, nil
		}
		rv, err := r.eval(vx, sel2)
		if err != nil {
			return nil, err
		}
		for _, i := range sel2 {
			lt, rt := lv.Truth(i), rv.Truth(i)
			if and {
				switch {
				case rt == 0:
					out.SetBool(i, false)
				case lt == -1 || rt == -1:
					out.SetNull(i)
				default:
					out.SetBool(i, true)
				}
			} else {
				switch {
				case rt == 1:
					out.SetBool(i, true)
				case lt == -1 || rt == -1:
					out.SetNull(i)
				default:
					out.SetBool(i, false)
				}
			}
		}
		return out, nil
	}}
}

// compileLike vectorizes LIKE. Constant string patterns reuse the row
// compiler's segment matcher in a tight loop; everything else takes a
// generic two-column loop over likeMatch.
func (c *vcomp) compileLike(t *sqlparser.LikeExpr) vnode {
	left := c.compile(t.Left)
	not := t.Not
	if lit, ok := t.Pattern.(*sqlparser.Literal); ok {
		switch {
		case lit.Val.IsNull():
			// NULL pattern: the result is NULL whenever the left side
			// evaluates (errors still surface via fallback).
			slot := c.slot()
			return vnode{eval: func(vx *vecExec, sel []int) (*vec.Vec, error) {
				if _, err := left.eval(vx, sel); err != nil {
					return nil, err
				}
				out := vx.slot(slot)
				out.SetConst(sqltypes.Null, vx.n)
				return out, nil
			}}
		case lit.Val.Kind() == sqltypes.KindString:
			m := compileLikePattern(lit.Val.Str())
			slot := c.slot()
			return vnode{eval: func(vx *vecExec, sel []int) (*vec.Vec, error) {
				lv, err := left.eval(vx, sel)
				if err != nil {
					return nil, err
				}
				out := vx.slot(slot)
				out.ResetBools(vx.n)
				for _, i := range sel {
					v := lv.Get(i)
					if v.IsNull() {
						out.SetNull(i)
						continue
					}
					if v.Kind() != sqltypes.KindString {
						return nil, errVecFallback
					}
					out.SetBool(i, m.match(v.Str()) != not)
				}
				return out, nil
			}}
		}
	}
	pat := c.compile(t.Pattern)
	slot := c.slot()
	return vnode{eval: func(vx *vecExec, sel []int) (*vec.Vec, error) {
		lv, err := left.eval(vx, sel)
		if err != nil {
			return nil, err
		}
		pv, err := pat.eval(vx, sel)
		if err != nil {
			return nil, err
		}
		out := vx.slot(slot)
		out.ResetBools(vx.n)
		for _, i := range sel {
			l, p := lv.Get(i), pv.Get(i)
			if l.IsNull() || p.IsNull() {
				out.SetNull(i)
				continue
			}
			if l.Kind() != sqltypes.KindString || p.Kind() != sqltypes.KindString {
				return nil, errVecFallback
			}
			out.SetBool(i, likeMatch(l.Str(), p.Str()) != not)
		}
		return out, nil
	}}
}
