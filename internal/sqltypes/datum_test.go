package sqltypes

import (
	"math"
	"testing"
	"unsafe"
)

// The datum contract: Value's size, what each accessor returns on every
// kind, which values share a map key, and the hash PARTHASH placement and
// shard routing are built on.

func TestDatumSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("sizeof(Value) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(Key{}); got > 40 {
		t.Errorf("sizeof(Key) = %d, want at most 40", got)
	}
}

func TestAccessorsOnEveryKind(t *testing.T) {
	negZero := math.Copysign(0, -1)
	tests := []struct {
		name   string
		v      Value
		i      int64
		f      float64
		s      string
		b      bool
		isTrue bool
		num    bool
		goVal  any
	}{
		{"null", Null, 0, 0, "", false, false, false, nil},
		{"int", NewInt(-7), -7, -7, "", false, false, true, int64(-7)},
		{"int max", NewInt(math.MaxInt64), math.MaxInt64, float64(math.MaxInt64), "", false, false, true, int64(math.MaxInt64)},
		{"float", NewFloat(2.5), 0, 2.5, "", false, false, true, 2.5},
		{"float -0", NewFloat(negZero), 0, negZero, "", false, false, true, negZero},
		{"float inf", NewFloat(math.Inf(-1)), 0, math.Inf(-1), "", false, false, true, math.Inf(-1)},
		{"string", NewString("1"), 0, 0, "1", false, false, false, "1"},
		{"true", NewBool(true), 0, 0, "", true, true, false, true},
		{"false", NewBool(false), 0, 0, "", false, false, false, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := tt.v
			if got := v.Int(); got != tt.i {
				t.Errorf("Int() = %d, want %d", got, tt.i)
			}
			if got := v.Float(); math.Float64bits(got) != math.Float64bits(tt.f) {
				t.Errorf("Float() = %v, want %v", got, tt.f)
			}
			if got := v.Str(); got != tt.s {
				t.Errorf("Str() = %q, want %q", got, tt.s)
			}
			if got := v.Bool(); got != tt.b {
				t.Errorf("Bool() = %v, want %v", got, tt.b)
			}
			if got := v.IsTrue(); got != tt.isTrue {
				t.Errorf("IsTrue() = %v, want %v", got, tt.isTrue)
			}
			if got := v.IsNumeric(); got != tt.num {
				t.Errorf("IsNumeric() = %v, want %v", got, tt.num)
			}
			if got := v.GoValue(); got != tt.goVal {
				t.Errorf("GoValue() = %#v, want %#v", got, tt.goVal)
			}
			if got := v.MapKey().Value(); v.Kind() != KindFloat && got != v {
				t.Errorf("MapKey().Value() = %v, want %v", got, v)
			}
		})
	}
	// A NaN float reads back as NaN.
	if f := NewFloat(math.NaN()).Float(); !math.IsNaN(f) {
		t.Errorf("NaN Float() = %v", f)
	}
}

func TestMapKeyEqualityTable(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	tests := []struct {
		name  string
		a, b  Value
		equal bool
	}{
		{"1 vs 1.0", NewInt(1), NewFloat(1), true},
		{"1 vs 1.5", NewInt(1), NewFloat(1.5), false},
		{"-0.0 vs 0", NewFloat(negZero), NewInt(0), true},
		{"-0.0 vs +0.0", NewFloat(negZero), NewFloat(0), true},
		{"NaN vs NaN", NewFloat(nan), NewFloat(nan), false},
		{"+Inf vs +Inf", NewFloat(math.Inf(1)), NewFloat(math.Inf(1)), true},
		{"+Inf vs -Inf", NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), false},
		{"0.5 vs 0.5", NewFloat(0.5), NewFloat(0.5), true},
		{"TRUE vs 1", NewBool(true), NewInt(1), false},
		{"FALSE vs 0", NewBool(false), NewInt(0), false},
		{"TRUE vs TRUE", NewBool(true), NewBool(true), true},
		{"TRUE vs FALSE", NewBool(true), NewBool(false), false},
		{"'1' vs 1", NewString("1"), NewInt(1), false},
		{"'a' vs 'a'", NewString("a"), NewString("a"), true},
		{"NULL vs NULL", Null, Null, true},
		{"NULL vs 0", Null, NewInt(0), false},
		{"NULL vs ''", Null, NewString(""), false},
		{"NULL vs FALSE", Null, NewBool(false), false},
	}
	for _, tt := range tests {
		if got := tt.a.MapKey() == tt.b.MapKey(); got != tt.equal {
			t.Errorf("%s: MapKey equal = %v, want %v", tt.name, got, tt.equal)
		}
		// As Go map keys, too: a NaN key never finds itself.
		m := map[Key]bool{tt.a.MapKey(): true}
		if got := m[tt.b.MapKey()]; got != tt.equal {
			t.Errorf("%s: map lookup = %v, want %v", tt.name, got, tt.equal)
		}
	}
}

func TestValueEqualityIsBitwise(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if NewFloat(negZero) == NewFloat(0) {
		t.Error("-0.0 and +0.0 Values compare equal with ==; the float word holds bits")
	}
	if nan := NewFloat(math.NaN()); nan != nan {
		t.Error("a NaN Value must equal itself with ==")
	}
	if NewInt(1) == NewBool(true) || NewInt(0) == Null {
		t.Error("== must tell kinds apart")
	}
}

// TestHashGolden pins Hash to the values it had when Value held separate
// int, float and bool fields: PARTHASH placement, shard.Route and every
// checkpointed partition layout depend on them.
func TestHashGolden(t *testing.T) {
	tests := []struct {
		v    Value
		want uint64
	}{
		{Null, 0xaf63bd4c8601b7df},
		{NewInt(0), 0x529a2cdc8ff533ac},
		{NewInt(1), 0x7194f3e59ae47dcd},
		{NewInt(-1), 0x685cd83ad34b3424},
		{NewInt(42), 0xb960a184f07032c6},
		{NewInt(math.MaxInt64), 0x685d583ad34c0da4},
		{NewInt(math.MinInt64), 0x5299acdc8ff45a2c},
		{NewFloat(1), 0x7194f3e59ae47dcd},
		{NewFloat(0), 0x529a2cdc8ff533ac},
		{NewFloat(math.Copysign(0, -1)), 0x529a2cdc8ff533ac},
		{NewFloat(0.5), 0xe1f5df54edb2bc8},
		{NewFloat(-2.25), 0xce038f54dcc48f7},
		{NewFloat(math.NaN()), 0xf04f8cec44e9cb91},
		{NewFloat(math.Inf(1)), 0xde89df54eac5618},
		{NewFloat(math.Inf(-1)), 0xde81df54eab7c98},
		{NewFloat(1e300), 0x15c4bcd258150f0b},
		{NewFloat(-9.25e18), 0x4da986d431bfb03},
		{NewString(""), 0xaf63be4c8601b992},
		{NewString("a"), 0x8364f07b4eef7e9},
		{NewString("1"), 0x835ff07b4ee6ff9},
		{NewString("héllo"), 0x6e8a17b6c5e9313f},
		{NewBool(true), 0x824ef07b4dfe196},
		{NewBool(false), 0xaf63b94c8601b113},
	}
	for _, tt := range tests {
		if got := tt.v.Hash(); got != tt.want {
			t.Errorf("Hash(%s %v) = %#x, want %#x", tt.v.Kind(), tt.v, got, tt.want)
		}
	}
}
