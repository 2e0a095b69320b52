package pager

import (
	"encoding/hex"
	"math"
	"testing"

	"sqloop/internal/sqltypes"
)

// TestCellCodecGolden pins the page cell bytes of one mixed-kind row, so
// page files and WAL records written by earlier builds still decode.
func TestCellCodecGolden(t *testing.T) {
	row := sqltypes.Row{
		sqltypes.Null, sqltypes.NewInt(-300), sqltypes.NewFloat(-2.5), sqltypes.NewFloat(math.Inf(1)),
		sqltypes.NewString("héllo"), sqltypes.NewBool(true), sqltypes.NewBool(false), sqltypes.NewInt(math.MaxInt64),
	}
	tests := []struct {
		key  sqltypes.Value
		want string
	}{
		// An integral float key is stored as the int it equals.
		{sqltypes.NewFloat(7), "010e080001d70402c004000000000000027ff0000000000000030668c3a96c6c6f040501feffffffffffffffff01"},
		{sqltypes.NewString("k"), "03016b080001d70402c004000000000000027ff0000000000000030668c3a96c6c6f040501feffffffffffffffff01"},
	}
	for _, tt := range tests {
		cell := encodeCell(tt.key.MapKey(), row)
		if got := hex.EncodeToString(cell); got != tt.want {
			t.Errorf("encodeCell(%v) = %s, want %s", tt.key, got, tt.want)
		}
		want, _ := hex.DecodeString(tt.want)
		k, r, err := decodeCell(want)
		if err != nil {
			t.Fatalf("decodeCell(%s): %v", tt.want, err)
		}
		if k != tt.key.MapKey() {
			t.Errorf("decoded key %v, want %v", k.Value(), tt.key)
		}
		if len(r) != len(row) {
			t.Fatalf("decoded %d columns, want %d", len(r), len(row))
		}
		for i := range row {
			if r[i] != row[i] {
				t.Errorf("column %d decoded as %v (%s), want %v (%s)", i, r[i], r[i].Kind(), row[i], row[i].Kind())
			}
		}
	}
}
