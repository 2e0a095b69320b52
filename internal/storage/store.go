// Package storage defines the primary-data store interface the embedded
// engine uses for table rows, plus the default heap (hash-indexed,
// insertion-ordered) backend that stands in for the PostgreSQL profile.
// Ordered backends live in internal/btree and internal/lsm.
package storage

import (
	"fmt"

	"sqloop/internal/sqltypes"
)

// Store holds the rows of one table keyed by primary key. Implementations
// are not safe for concurrent use; the engine serializes access with
// per-table locks.
//
// Scan order is implementation-defined (heap: insertion order; btree and
// lsm: key order) — exactly the situation SQLoop faces across real
// engines, so nothing above this interface may rely on scan order.
type Store interface {
	// Insert adds a new row. It fails with ErrDuplicateKey if key exists.
	Insert(key sqltypes.Key, row sqltypes.Row) error
	// Get returns the row for key.
	Get(key sqltypes.Key) (sqltypes.Row, bool)
	// Update replaces the row for key, reporting whether it existed.
	Update(key sqltypes.Key, row sqltypes.Row) bool
	// Delete removes the row for key, reporting whether it existed.
	Delete(key sqltypes.Key) bool
	// Len returns the number of live rows.
	Len() int
	// Scan visits every live row until fn returns false.
	Scan(fn func(key sqltypes.Key, row sqltypes.Row) bool)
	// Clear removes all rows.
	Clear()
	// Name identifies the backend ("heap", "btree", "lsm", "disk").
	Name() string
}

// Durable backends implement these optional interfaces in addition to
// Store; the engine type-asserts for them at statement and checkpoint
// boundaries. In-memory backends implement none of them.
type (
	// Committer makes all operations logged so far durable (WAL commit
	// record + fsync). The engine commits every write-locked store at
	// statement end, so a crash loses at most the statement in flight.
	Committer interface{ Commit() error }
	// Checkpointer flushes all dirty pages to the data file and
	// truncates the write-ahead log — the WAL↔checkpoint contract: once
	// a higher-level snapshot is durable, the log tail before it is
	// dead weight.
	Checkpointer interface{ Checkpoint() error }
	// Dropper releases the store's on-disk files (DROP TABLE).
	Dropper interface{ Drop() error }
	// Reserver takes a hint that n rows are about to be inserted into an
	// empty store (CREATE TABLE AS), so it can size itself once instead
	// of growing by doubling. Only the heap implements it.
	Reserver interface{ Reserve(n int) }
)

// ErrDuplicateKey is returned by Insert when the key already exists.
var ErrDuplicateKey = fmt.Errorf("storage: duplicate primary key")

// Kind selects a storage backend.
type Kind int

// Backend kinds. The engine maps its three dialect profiles onto the
// in-memory kinds; KindDisk is the durable page-based backend
// (internal/pager) selected explicitly via DataDir-aware options.
const (
	KindHeap Kind = iota + 1
	KindBTree
	KindLSM
	KindDisk
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindHeap:
		return "heap"
	case KindBTree:
		return "btree"
	case KindLSM:
		return "lsm"
	case KindDisk:
		return "disk"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves a backend name ("heap", "btree", "lsm", "disk") to
// its Kind.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "heap":
		return KindHeap, nil
	case "btree":
		return KindBTree, nil
	case "lsm":
		return KindLSM, nil
	case "disk":
		return KindDisk, nil
	default:
		return 0, fmt.Errorf("storage: unknown backend %q (want heap, btree, lsm or disk)", name)
	}
}

// heapStore is a hash map with an insertion-ordered log for scans.
// Deletes tombstone log entries; the log compacts once more than half of
// it is dead.
type heapStore struct {
	rows map[sqltypes.Key]int // key -> index into log
	log  []heapEntry
	dead int
}

type heapEntry struct {
	key  sqltypes.Key
	row  sqltypes.Row
	dead bool
}

// NewHeap returns an empty heap store.
func NewHeap() Store {
	return &heapStore{rows: make(map[sqltypes.Key]int)}
}

var _ Store = (*heapStore)(nil)

func (h *heapStore) Name() string { return "heap" }

// Reserve sizes an empty store's key map and log for n rows.
func (h *heapStore) Reserve(n int) {
	if len(h.log) == 0 && n > 0 {
		h.rows = make(map[sqltypes.Key]int, n)
		h.log = make([]heapEntry, 0, n)
	}
}

func (h *heapStore) Insert(key sqltypes.Key, row sqltypes.Row) error {
	if _, ok := h.rows[key]; ok {
		return ErrDuplicateKey
	}
	h.rows[key] = len(h.log)
	h.log = append(h.log, heapEntry{key: key, row: row})
	return nil
}

func (h *heapStore) Get(key sqltypes.Key) (sqltypes.Row, bool) {
	i, ok := h.rows[key]
	if !ok {
		return nil, false
	}
	return h.log[i].row, true
}

func (h *heapStore) Update(key sqltypes.Key, row sqltypes.Row) bool {
	i, ok := h.rows[key]
	if !ok {
		return false
	}
	h.log[i].row = row
	return true
}

func (h *heapStore) Delete(key sqltypes.Key) bool {
	i, ok := h.rows[key]
	if !ok {
		return false
	}
	h.log[i].dead = true
	h.log[i].row = nil
	delete(h.rows, key)
	h.dead++
	if h.dead > len(h.log)/2 && h.dead > 64 {
		h.compact()
	}
	return true
}

func (h *heapStore) compact() {
	// Copy the survivors into a right-sized slice instead of compacting
	// in place: in-place compaction keeps the full backing array (and
	// the dead rows beyond the new length) reachable, so a large
	// transient working table would pin its peak memory for the life of
	// the store.
	live := make([]heapEntry, 0, len(h.log)-h.dead)
	for _, e := range h.log {
		if !e.dead {
			h.rows[e.key] = len(live)
			live = append(live, e)
		}
	}
	h.log = live
	h.dead = 0
}

func (h *heapStore) Len() int { return len(h.rows) }

func (h *heapStore) Scan(fn func(key sqltypes.Key, row sqltypes.Row) bool) {
	for _, e := range h.log {
		if e.dead {
			continue
		}
		if !fn(e.key, e.row) {
			return
		}
	}
}

func (h *heapStore) Clear() {
	h.rows = make(map[sqltypes.Key]int)
	h.log = nil
	h.dead = 0
}
