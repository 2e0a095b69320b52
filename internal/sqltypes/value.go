// Package sqltypes defines the datum model shared by the SQL parser, the
// embedded relational engine and the SQLoop middleware: typed values with
// SQL NULL semantics, three-valued comparisons, arithmetic with implicit
// numeric widening, and hashing for join/partition keys.
package sqltypes

import (
	"fmt"
	"math"
	"strconv"
)

// Kind identifies the dynamic type of a Value.
type Kind int

// The supported value kinds. KindNull is deliberately the zero value so
// that a zero Value is SQL NULL.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a single SQL datum. The zero value is NULL.
//
// The numeric payloads share one word: n holds an int's two's
// complement, a float's IEEE 754 bits or a bool's 0/1, so a Value is 32
// bytes (a string header, n and the kind). Every row, join output and
// heap log entry pays this size once per column. Because the float is
// stored as bits, == on two Values compares bits: -0.0 and +0.0 differ
// and a NaN equals itself. Code that needs SQL equality uses Compare or
// MapKey.
type Value struct {
	s    string
	n    uint64
	kind Kind
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns a BIGINT value.
func NewInt(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// NewFloat returns a DOUBLE value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// NewString returns a TEXT value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value { return Value{kind: KindBool, n: b2u(v)} }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// i and f read the numeric word as the kind it holds; they are only
// meaningful for KindInt and KindFloat respectively.
func (v Value) i() int64   { return int64(v.n) }
func (v Value) f() float64 { return math.Float64frombits(v.n) }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the int64 payload; it is 0 for any other kind.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		return 0
	}
	return v.i()
}

// Float returns the float64 payload, widening an int payload; it is 0
// for any other kind.
func (v Value) Float() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i())
	case KindFloat:
		return v.f()
	}
	return 0
}

// Str returns the string payload; it is empty for any other kind.
func (v Value) Str() string { return v.s }

// Bool returns the bool payload; it is false for any other kind.
func (v Value) Bool() bool { return v.kind == KindBool && v.n != 0 }

// IsNumeric reports whether v is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// IsTrue reports whether v is boolean TRUE (NULL and FALSE are not).
func (v Value) IsTrue() bool { return v.kind == KindBool && v.n != 0 }

// String renders the value the way a result printer would.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i(), 10)
	case KindFloat:
		f := v.f()
		if math.IsInf(f, 1) {
			return "Infinity"
		}
		if math.IsInf(f, -1) {
			return "-Infinity"
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// GoValue converts v to the natural Go representation used by
// database/sql (nil, int64, float64, string, bool).
func (v Value) GoValue() any {
	switch v.kind {
	case KindInt:
		return v.i()
	case KindFloat:
		return v.f()
	case KindString:
		return v.s
	case KindBool:
		return v.n != 0
	default:
		return nil
	}
}

// FromGo converts a Go value produced by database/sql (or user bind
// parameters) to a Value.
func FromGo(x any) (Value, error) {
	switch t := x.(type) {
	case nil:
		return Null, nil
	case int:
		return NewInt(int64(t)), nil
	case int32:
		return NewInt(int64(t)), nil
	case int64:
		return NewInt(t), nil
	case float32:
		return NewFloat(float64(t)), nil
	case float64:
		return NewFloat(t), nil
	case string:
		return NewString(t), nil
	case bool:
		return NewBool(t), nil
	case []byte:
		return NewString(string(t)), nil
	default:
		return Null, fmt.Errorf("sqltypes: unsupported Go value %T", x)
	}
}

// Compare orders a and b. NULL compares less than everything (this
// ordering is used for sorting, not predicate evaluation; predicates use
// CompareSQL). Numeric kinds compare by value with widening; otherwise
// kinds must match.
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0, nil
		case a.IsNull():
			return -1, nil
		default:
			return 1, nil
		}
	}
	if a.IsNumeric() && b.IsNumeric() {
		if a.kind == KindInt && b.kind == KindInt {
			switch {
			case a.i() < b.i():
				return -1, nil
			case a.i() > b.i():
				return 1, nil
			default:
				return 0, nil
			}
		}
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.kind != b.kind {
		return 0, fmt.Errorf("sqltypes: cannot compare %s with %s", a.kind, b.kind)
	}
	switch a.kind {
	case KindString:
		switch {
		case a.s < b.s:
			return -1, nil
		case a.s > b.s:
			return 1, nil
		default:
			return 0, nil
		}
	case KindBool:
		switch {
		case a.n < b.n:
			return -1, nil
		case a.n > b.n:
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("sqltypes: cannot compare %s values", a.kind)
	}
}

// CompareSQL implements SQL predicate comparison: if either side is NULL
// the result is NULL (unknown). Otherwise it returns a bool Value per op.
func CompareSQL(op CompareOp, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	c, err := Compare(a, b)
	if err != nil {
		return Null, err
	}
	var r bool
	switch op {
	case CmpEQ:
		r = c == 0
	case CmpNE:
		r = c != 0
	case CmpLT:
		r = c < 0
	case CmpLE:
		r = c <= 0
	case CmpGT:
		r = c > 0
	case CmpGE:
		r = c >= 0
	default:
		return Null, fmt.Errorf("sqltypes: unknown comparison op %d", op)
	}
	return NewBool(r), nil
}

// CompareOp enumerates SQL comparison operators.
type CompareOp int

// Comparison operators.
const (
	CmpEQ CompareOp = iota + 1
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// String returns the SQL spelling of the operator.
func (op CompareOp) String() string {
	switch op {
	case CmpEQ:
		return "="
	case CmpNE:
		return "!="
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	default:
		return fmt.Sprintf("CompareOp(%d)", int(op))
	}
}

// ArithOp enumerates SQL arithmetic operators.
type ArithOp int

// Arithmetic operators.
const (
	OpAdd ArithOp = iota + 1
	OpSub
	OpMul
	OpDiv
	OpMod
)

// String returns the SQL spelling of the operator.
func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	default:
		return fmt.Sprintf("ArithOp(%d)", int(op))
	}
}

// Arith evaluates a op b with SQL semantics: NULL if either operand is
// NULL, integer arithmetic when both are ints (division by zero errors),
// float arithmetic otherwise.
func Arith(op ArithOp, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null, fmt.Errorf("sqltypes: arithmetic %s on %s and %s", op, a.kind, b.kind)
	}
	if a.kind == KindInt && b.kind == KindInt {
		ai, bi := a.i(), b.i()
		switch op {
		case OpAdd:
			return NewInt(ai + bi), nil
		case OpSub:
			return NewInt(ai - bi), nil
		case OpMul:
			return NewInt(ai * bi), nil
		case OpDiv:
			if bi == 0 {
				return Null, fmt.Errorf("sqltypes: division by zero")
			}
			return NewInt(ai / bi), nil
		case OpMod:
			if bi == 0 {
				return Null, fmt.Errorf("sqltypes: division by zero")
			}
			return NewInt(ai % bi), nil
		}
	}
	af, bf := a.Float(), b.Float()
	switch op {
	case OpAdd:
		return NewFloat(af + bf), nil
	case OpSub:
		return NewFloat(af - bf), nil
	case OpMul:
		return NewFloat(af * bf), nil
	case OpDiv:
		if bf == 0 {
			return Null, fmt.Errorf("sqltypes: division by zero")
		}
		return NewFloat(af / bf), nil
	case OpMod:
		if bf == 0 {
			return Null, fmt.Errorf("sqltypes: division by zero")
		}
		return NewFloat(math.Mod(af, bf)), nil
	}
	return Null, fmt.Errorf("sqltypes: unknown arithmetic op %d", op)
}

// Hash returns a stable 64-bit hash of v, used for hash joins, GROUP BY
// buckets and SQLoop's partition function. Int and float values that
// represent the same number hash identically.
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	switch v.kind {
	case KindNull:
		mix(0)
	case KindInt:
		mix(1)
		for s := 0; s < 64; s += 8 {
			mix(byte(v.n >> s))
		}
	case KindFloat:
		// Hash integral floats as ints so 1 and 1.0 join.
		if f := v.f(); f == math.Trunc(f) && !math.IsInf(f, 0) && f >= math.MinInt64 && f <= math.MaxInt64 {
			return NewInt(int64(f)).Hash()
		}
		mix(2)
		for s := 0; s < 64; s += 8 {
			mix(byte(v.n >> s))
		}
	case KindString:
		mix(3)
		for i := 0; i < len(v.s); i++ {
			mix(v.s[i])
		}
	case KindBool:
		mix(4)
		if v.n != 0 {
			mix(1)
		}
	}
	return h
}

// Key returns a canonical comparable representation of v suitable for use
// as a Go map key in joins and aggregation. Numeric values that are equal
// under SQL comparison produce equal keys. A float stays a float64 field
// (not its bits) so Go's map equality matches SQL's on it: -0.0 and +0.0
// (both integral) become the int 0, and a NaN key equals no key, itself
// included. An int or a bool (0/1) lives in i.
type Key struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// MapKey converts v into a Key.
func (v Value) MapKey() Key {
	switch v.kind {
	case KindFloat:
		f := v.f()
		if f == math.Trunc(f) && !math.IsInf(f, 0) && f >= math.MinInt64 && f <= math.MaxInt64 {
			return Key{kind: KindInt, i: int64(f)}
		}
		return Key{kind: KindFloat, f: f}
	case KindString:
		return Key{kind: KindString, s: v.s}
	}
	return Key{kind: v.kind, i: int64(v.n)}
}

// Value converts a Key back to the Value it was derived from.
func (k Key) Value() Value {
	if k.kind == KindFloat {
		return NewFloat(k.f)
	}
	return Value{kind: k.kind, n: uint64(k.i), s: k.s}
}

// CompareTotal orders any two values with a total order usable by
// ordered containers (B-trees, sorted runs): NULL first, then numerics by
// value, then strings, then bools. Unlike Compare it never errors.
func CompareTotal(a, b Value) int {
	ra, rb := totalRank(a), totalRank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	c, err := Compare(a, b)
	if err != nil {
		return 0
	}
	return c
}

// totalRank buckets values so cross-kind comparisons are well defined;
// ints and floats share a bucket because Compare handles them.
func totalRank(v Value) int {
	switch v.kind {
	case KindNull:
		return 0
	case KindInt, KindFloat:
		return 1
	case KindString:
		return 2
	default:
		return 3
	}
}
