package storage

import (
	"testing"

	"sqloop/internal/sqltypes"
)

// TestHeapCompactionReleasesMemory pins the fix for the compaction
// memory leak: compacting in place kept the original backing array (and
// every dead row past the new length) reachable, so a table that grew
// large once never gave the memory back. Compaction must reallocate
// right-sized.
func TestHeapCompactionReleasesMemory(t *testing.T) {
	h := NewHeap().(*heapStore)
	const n = 100000
	for i := int64(0); i < n; i++ {
		if err := h.Insert(sqltypes.NewInt(i).MapKey(), sqltypes.Row{sqltypes.NewInt(i)}); err != nil {
			t.Fatal(err)
		}
	}
	grown := cap(h.log)
	// Delete all but a sliver; the >half-dead threshold forces a
	// compaction along the way.
	for i := int64(0); i < n-100; i++ {
		if !h.Delete(sqltypes.NewInt(i).MapKey()) {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if h.Len() != 100 {
		t.Fatalf("Len = %d", h.Len())
	}
	if c := cap(h.log); c >= grown/2 {
		t.Fatalf("log capacity %d did not shrink from %d after compaction", c, grown)
	}
	// Survivors intact and scannable.
	seen := 0
	h.Scan(func(k sqltypes.Key, r sqltypes.Row) bool {
		if k.Value().Int() < n-100 {
			t.Fatalf("dead key %v surfaced", k.Value())
		}
		seen++
		return true
	})
	if seen != 100 {
		t.Fatalf("scan saw %d rows", seen)
	}
	if h.dead != 0 && h.dead > len(h.log)/2 {
		t.Fatalf("dead counter %d inconsistent with log %d", h.dead, len(h.log))
	}
}

// TestHeapClearReleasesLog: Clear must drop the backing log entirely.
func TestHeapClearReleasesLog(t *testing.T) {
	h := NewHeap().(*heapStore)
	for i := int64(0); i < 10000; i++ {
		_ = h.Insert(sqltypes.NewInt(i).MapKey(), sqltypes.Row{sqltypes.NewInt(i)})
	}
	h.Clear()
	if cap(h.log) != 0 {
		t.Fatalf("log capacity %d after Clear", cap(h.log))
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d after Clear", h.Len())
	}
}

// TestHeapReserve: a reserved empty heap takes n inserts without growing
// its log, and a reserve on a non-empty heap changes nothing.
func TestHeapReserve(t *testing.T) {
	h := NewHeap().(*heapStore)
	const n = 1000
	h.Reserve(n)
	for i := int64(0); i < n; i++ {
		if err := h.Insert(sqltypes.NewInt(i).MapKey(), sqltypes.Row{sqltypes.NewInt(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if cap(h.log) != n {
		t.Errorf("log capacity %d after %d reserved inserts, want %d", cap(h.log), n, n)
	}
	h.Reserve(10 * n)
	if cap(h.log) != n || h.Len() != n {
		t.Errorf("Reserve on a non-empty heap changed it: cap %d, len %d", cap(h.log), h.Len())
	}
	if _, ok := h.Get(sqltypes.NewInt(7).MapKey()); !ok {
		t.Error("row 7 lost")
	}
}
