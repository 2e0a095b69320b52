// Package shard implements the cross-shard delta routing used by the
// scale-out execution path: hash-partitioning of rows by a key column
// and a compact binary codec for shipping routed row batches between
// engine endpoints.
//
// Partition must agree bit-for-bit with the engines' PARTHASH SQL
// function, because the coordinator decides Go-side which shard a
// message row belongs to while each shard's gather statement filters
// SQL-side with PARTHASH(id, n) = s. Both sides therefore hash through
// sqltypes.Value.Hash and reduce with int64(h & MaxInt64) % n.
package shard

import (
	"encoding/binary"
	"fmt"
	"math"

	"sqloop/internal/sqltypes"
)

// Partition returns the shard index in [0, n) that owns key. It is the
// Go-side twin of the engine's PARTHASH(key, n). A nil key maps to
// shard 0; callers are expected to have filtered NULL keys out SQL-side
// (both the `PARTHASH(id,n) = s` and `<> s` predicates reject NULL), so
// the value only matters for defensive completeness.
func Partition(key any, n int) int {
	if n <= 1 {
		return 0
	}
	if key == nil {
		return 0
	}
	v, err := sqltypes.FromGo(key)
	if err != nil || v.IsNull() {
		return 0
	}
	return int(int64(v.Hash()&math.MaxInt64) % int64(n))
}

// Batch is a routable set of rows sharing one column layout. Values are
// the driver's Go representations: nil, int64, float64, string or bool.
type Batch struct {
	Columns []string
	Rows    [][]any
}

// Route splits b into n per-shard batches by hashing the key column
// (index keyCol into Columns). Every input row lands in exactly one
// output batch, so the union of the outputs is the input multiset.
func Route(b Batch, keyCol, n int) ([]Batch, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: route: shard count %d must be positive", n)
	}
	if keyCol < 0 || keyCol >= len(b.Columns) {
		return nil, fmt.Errorf("shard: route: key column %d out of range for %d columns", keyCol, len(b.Columns))
	}
	out := make([]Batch, n)
	for i := range out {
		out[i].Columns = b.Columns
	}
	for _, row := range b.Rows {
		if len(row) != len(b.Columns) {
			return nil, fmt.Errorf("shard: route: row has %d values, want %d", len(row), len(b.Columns))
		}
		s := Partition(row[keyCol], n)
		out[s].Rows = append(out[s].Rows, row)
	}
	return out, nil
}

// Merge concatenates batches sharing one column layout into a single
// batch, preserving row order across inputs. The elastic repartition
// uses it to fold per-source batches into one shippable unit; empty
// inputs contribute nothing and a zero-batch input list yields the zero
// Batch.
func Merge(batches ...Batch) (Batch, error) {
	var out Batch
	for _, b := range batches {
		if len(b.Columns) == 0 && len(b.Rows) == 0 {
			continue
		}
		if out.Columns == nil {
			out.Columns = b.Columns
		} else if len(b.Columns) != len(out.Columns) {
			return Batch{}, fmt.Errorf("shard: merge: %d columns, want %d", len(b.Columns), len(out.Columns))
		} else {
			for i, c := range b.Columns {
				if c != out.Columns[i] {
					return Batch{}, fmt.Errorf("shard: merge: column %d is %q, want %q", i, c, out.Columns[i])
				}
			}
		}
		out.Rows = append(out.Rows, b.Rows...)
	}
	return out, nil
}

// Wire format: magic, version, uvarint column count, column names as
// uvarint-length strings, uvarint row count, then rows as one kind byte
// per value followed by the value payload.
const (
	batchMagic   = 0xB7
	batchVersion = 1

	kindNull   = 0
	kindInt    = 1
	kindFloat  = 2
	kindString = 3
	kindBool   = 4
)

// EncodeBatch serialises b for cross-shard transfer.
func EncodeBatch(b Batch) []byte {
	buf := []byte{batchMagic, batchVersion}
	buf = binary.AppendUvarint(buf, uint64(len(b.Columns)))
	for _, c := range b.Columns {
		buf = binary.AppendUvarint(buf, uint64(len(c)))
		buf = append(buf, c...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(b.Rows)))
	for _, row := range b.Rows {
		for _, v := range row {
			buf = appendValue(buf, v)
		}
	}
	return buf
}

func appendValue(buf []byte, v any) []byte {
	switch t := v.(type) {
	case nil:
		return append(buf, kindNull)
	case int64:
		buf = append(buf, kindInt)
		return binary.AppendVarint(buf, t)
	case int:
		buf = append(buf, kindInt)
		return binary.AppendVarint(buf, int64(t))
	case float64:
		buf = append(buf, kindFloat)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(t))
	case string:
		buf = append(buf, kindString)
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		return append(buf, t...)
	case []byte:
		buf = append(buf, kindString)
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		return append(buf, t...)
	case bool:
		buf = append(buf, kindBool)
		if t {
			return append(buf, 1)
		}
		return append(buf, 0)
	default:
		// Unknown driver types degrade to their string rendering rather
		// than corrupting the stream.
		s := fmt.Sprint(t)
		buf = append(buf, kindString)
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		return append(buf, s...)
	}
}

// DecodeBatch parses an EncodeBatch payload. Corrupt or truncated input
// returns an error; it never panics.
func DecodeBatch(data []byte) (Batch, error) {
	d := decoder{data: data}
	if len(data) < 2 || data[0] != batchMagic || data[1] != batchVersion {
		return Batch{}, fmt.Errorf("shard: decode: bad header")
	}
	d.off = 2
	nCols, err := d.uvarint("column count")
	if err != nil {
		return Batch{}, err
	}
	if nCols > uint64(len(data)) {
		return Batch{}, fmt.Errorf("shard: decode: column count %d exceeds payload", nCols)
	}
	b := Batch{Columns: make([]string, nCols)}
	for i := range b.Columns {
		s, err := d.str("column name")
		if err != nil {
			return Batch{}, err
		}
		b.Columns[i] = s
	}
	nRows, err := d.uvarint("row count")
	if err != nil {
		return Batch{}, err
	}
	if nCols > 0 && nRows > uint64(len(data)) {
		return Batch{}, fmt.Errorf("shard: decode: row count %d exceeds payload", nRows)
	}
	if nRows > 0 && nCols == 0 {
		return Batch{}, fmt.Errorf("shard: decode: %d rows with zero columns", nRows)
	}
	b.Rows = make([][]any, 0, nRows)
	for r := uint64(0); r < nRows; r++ {
		row := make([]any, nCols)
		for c := range row {
			v, err := d.value()
			if err != nil {
				return Batch{}, err
			}
			row[c] = v
		}
		b.Rows = append(b.Rows, row)
	}
	if d.off != len(data) {
		return Batch{}, fmt.Errorf("shard: decode: %d trailing bytes", len(data)-d.off)
	}
	return b, nil
}

type decoder struct {
	data []byte
	off  int
}

func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("shard: decode: bad %s varint", what)
	}
	d.off += n
	return v, nil
}

func (d *decoder) str(what string) (string, error) {
	n, err := d.uvarint(what + " length")
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.data)-d.off) {
		return "", fmt.Errorf("shard: decode: %s length %d exceeds payload", what, n)
	}
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *decoder) value() (any, error) {
	if d.off >= len(d.data) {
		return nil, fmt.Errorf("shard: decode: truncated value")
	}
	kind := d.data[d.off]
	d.off++
	switch kind {
	case kindNull:
		return nil, nil
	case kindInt:
		v, n := binary.Varint(d.data[d.off:])
		if n <= 0 {
			return nil, fmt.Errorf("shard: decode: bad int varint")
		}
		d.off += n
		return v, nil
	case kindFloat:
		if len(d.data)-d.off < 8 {
			return nil, fmt.Errorf("shard: decode: truncated float")
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:]))
		d.off += 8
		return v, nil
	case kindString:
		return d.str("string value")
	case kindBool:
		if d.off >= len(d.data) {
			return nil, fmt.Errorf("shard: decode: truncated bool")
		}
		v := d.data[d.off] != 0
		d.off++
		return v, nil
	default:
		return nil, fmt.Errorf("shard: decode: unknown value kind %d", kind)
	}
}
