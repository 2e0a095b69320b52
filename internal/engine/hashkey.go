package engine

import (
	"math"

	"sqloop/internal/sqltypes"
	"sqloop/internal/vec"
)

// This file provides the hash-keyed row index behind GROUP BY,
// DISTINCT, set operations, hash-join builds and DISTINCT aggregates.
// It replaces the per-row encodeRowKey string construction (the
// dominant allocation of those operators) with a 64-bit FNV-1a row
// hash plus collision buckets compared value-by-value. The string path
// is kept as the reference behind Config.DisableExprCompile so the
// differential suites can pin both implementations to identical
// results.

// fnv-1a parameters, matching sqltypes.Value.Hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func isNaNValue(v sqltypes.Value) bool {
	return v.Kind() == sqltypes.KindFloat && math.IsNaN(v.Float())
}

// rowHash combines the value hashes of a row into one 64-bit key.
// Value.Hash already unifies numerically-equal ints and floats, so two
// rows that encodeRowKey would consider equal always hash equal. It
// delegates to the vec package so the scalar and columnar hash paths
// share one definition (vec.HashRow canonicalizes NaN payloads the same
// way this file historically did).
func rowHash(r sqltypes.Row) uint64 { return vec.HashRow(r) }

// hashValueEqual is the grouping equality for one column: CompareTotal
// with an explicit NaN guard. Compare reports NaN as neither below nor
// above any float, so a bare CompareTotal==0 would merge NaN with
// every number; grouping instead treats NaN as equal only to NaN,
// exactly like encodeRowKey's string form.
func hashValueEqual(a, b sqltypes.Value) bool {
	if an, bn := isNaNValue(a), isNaNValue(b); an || bn {
		return an && bn
	}
	return sqltypes.CompareTotal(a, b) == 0
}

// rowsEqual reports grouping equality of two key rows of equal arity.
func rowsEqual(a, b sqltypes.Row) bool {
	for i := range a {
		if !hashValueEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// rowIndex assigns dense bucket ids (0,1,2,... in first-seen order) to
// distinct key rows. Hashed mode chains bucket ids off the 64-bit row
// hash and resolves collisions by value comparison against the stored
// key; string mode is the encodeRowKey baseline.
type rowIndex struct {
	hashed  bool
	buckets map[uint64][]int // row hash -> bucket ids sharing it
	keys    []sqltypes.Row   // bucket id -> its key row (hashed mode)
	strs    map[string]int   // encoded key -> bucket id (string mode)
	count   int              // bucket count in string mode
}

// newRowIndex builds an index in the mode matching the engine's A/B
// switch: hashing is part of the compiled hot path, so disabling
// expression compilation also falls back to string keys.
func (x *executor) newRowIndex(hint int) *rowIndex {
	if x.eng.cfg.DisableExprCompile {
		return &rowIndex{strs: make(map[string]int, hint)}
	}
	return &rowIndex{hashed: true, buckets: make(map[uint64][]int, hint)}
}

// bucket returns the id for key, allocating the next dense id when the
// key is new (isNew reports which). In hashed mode a newly-inserted
// key row is retained: pass own=true when the caller hands over the
// slice, own=false when key is a reused scratch buffer that must be
// cloned.
func (ix *rowIndex) bucket(key sqltypes.Row, own bool) (id int, isNew bool) {
	if !ix.hashed {
		k := encodeRowKey(key)
		if id, ok := ix.strs[k]; ok {
			return id, false
		}
		id = ix.count
		ix.count++
		ix.strs[k] = id
		return id, true
	}
	h := rowHash(key)
	for _, id := range ix.buckets[h] {
		if rowsEqual(ix.keys[id], key) {
			return id, false
		}
	}
	if !own {
		key = append(sqltypes.Row(nil), key...)
	}
	id = len(ix.keys)
	ix.keys = append(ix.keys, key)
	ix.buckets[h] = append(ix.buckets[h], id)
	return id, true
}

// bucketPre is bucket(key, false) with the row hash computed by the
// caller — the batch path hashes whole key columns at once and probes
// with the precomputed values. Non-hashed (string-key) indexes ignore
// the hash and delegate.
func (ix *rowIndex) bucketPre(h uint64, key sqltypes.Row) (id int, isNew bool) {
	if !ix.hashed {
		return ix.bucket(key, false)
	}
	for _, id := range ix.buckets[h] {
		if rowsEqual(ix.keys[id], key) {
			return id, false
		}
	}
	key = append(sqltypes.Row(nil), key...)
	id = len(ix.keys)
	ix.keys = append(ix.keys, key)
	ix.buckets[h] = append(ix.buckets[h], id)
	return id, true
}

// lookup returns the bucket id for key, or -1 when absent. It never
// inserts, so probing with a scratch buffer needs no clone.
func (ix *rowIndex) lookup(key sqltypes.Row) int {
	if !ix.hashed {
		if id, ok := ix.strs[encodeRowKey(key)]; ok {
			return id
		}
		return -1
	}
	h := rowHash(key)
	for _, id := range ix.buckets[h] {
		if rowsEqual(ix.keys[id], key) {
			return id
		}
	}
	return -1
}

// lookupPre is lookup with a caller-computed row hash.
func (ix *rowIndex) lookupPre(h uint64, key sqltypes.Row) int {
	if !ix.hashed {
		return ix.lookup(key)
	}
	for _, id := range ix.buckets[h] {
		if rowsEqual(ix.keys[id], key) {
			return id
		}
	}
	return -1
}

// size is the number of distinct keys seen.
func (ix *rowIndex) size() int {
	if !ix.hashed {
		return ix.count
	}
	return len(ix.keys)
}
