package pager

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"sqloop/internal/obs"
	"sqloop/internal/sqltypes"
	"sqloop/internal/storage"
)

// Options configures a DB.
type Options struct {
	// BufferPoolPages bounds the shared buffer pool (0 = default 256
	// pages = 2 MiB; floored at 8).
	BufferPoolPages int
	// NoSync skips fsync on commit — crash durability is then bounded
	// by the OS page cache. For benchmarks only.
	NoSync bool
	// Metrics, when set, receives the pager instruments.
	Metrics *obs.Registry
}

// DB is one pager database: a directory of per-store page/WAL file
// pairs sharing a single buffer pool. One engine owns one DB; two live
// DBs must not share a directory.
type DB struct {
	dir  string
	opts Options
	bm   *BufferManager

	mu     sync.Mutex
	stores map[string]*DiskStore
}

// OpenDB opens (creating if needed) the database directory.
func OpenDB(dir string, opts Options) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	bm := newBufferManager(opts.BufferPoolPages)
	if opts.Metrics != nil {
		bm.SetMetrics(opts.Metrics)
	}
	return &DB{dir: dir, opts: opts, bm: bm, stores: make(map[string]*DiskStore)}, nil
}

// Dir returns the database directory.
func (db *DB) Dir() string { return db.dir }

// Pool returns the shared buffer pool (metrics, tests).
func (db *DB) Pool() *BufferManager { return db.bm }

// SetMetrics attaches (or detaches) the metrics registry.
func (db *DB) SetMetrics(r *obs.Registry) { db.bm.SetMetrics(r) }

// safeName maps a store name to a filesystem-safe stem. Distinct names
// that sanitize identically are disambiguated by an FNV suffix.
func safeName(name string) string {
	var b strings.Builder
	clean := true
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_', r == '-':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
			clean = false
		default:
			b.WriteByte('_')
			clean = false
		}
	}
	if clean && b.Len() > 0 && b.Len() <= 80 {
		return b.String()
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	stem := b.String()
	if len(stem) > 80 {
		stem = stem[:80]
	}
	return fmt.Sprintf("%s_%08x", stem, h.Sum32())
}

const (
	pageExt = ".pages"
	walExt  = ".wal"
)

func (db *DB) pagePath(name string) string { return filepath.Join(db.dir, safeName(name)+pageExt) }
func (db *DB) walPath(name string) string  { return filepath.Join(db.dir, safeName(name)+walExt) }

// RemoveOrphans deletes every page and WAL file in dir that belongs to
// none of the named stores: the remains of unlogged stores whose DB was
// never closed, and of stores whose creation the caller never recorded.
// Call it before opening a DB on dir.
func RemoveOrphans(dir string, live []string) error {
	keep := make(map[string]bool, len(live))
	for _, name := range live {
		keep[safeName(name)] = true
	}
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range ents {
		stem, ok := strings.CutSuffix(e.Name(), pageExt)
		if !ok {
			stem, ok = strings.CutSuffix(e.Name(), walExt)
		}
		if !ok || e.IsDir() || keep[stem] {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// CreateStore returns a fresh empty store named name, destroying any
// on-disk remnants of a previous incarnation (the engine's CREATE
// TABLE: the catalog, not the pager, is the authority on liveness).
// An unlogged store (logged=false, the engine's UNLOGGED tables) has no
// write-ahead log: its mutations write no records, Commit and
// Checkpoint do nothing, and a crash or restart leaves its page file
// meaningless — the engine deletes it at the next open.
func (db *DB) CreateStore(name string, logged bool) (*DiskStore, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if old, ok := db.stores[name]; ok {
		if err := old.dropLocked(); err != nil {
			return nil, err
		}
	}
	for _, p := range []string{db.pagePath(name), db.walPath(name)} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	return db.openStoreLocked(name, logged)
}

// OpenStore opens the store named name, running redo recovery over any
// existing page file and WAL: the page scan rebuilds the key index
// from committed on-disk state, the WAL replay reapplies every
// complete committed batch past the last checkpoint, and the log is
// truncated back to its last commit boundary, discarding torn trailing
// records.
func (db *DB) OpenStore(name string) (*DiskStore, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if s, ok := db.stores[name]; ok {
		return s, nil
	}
	return db.openStoreLocked(name, true)
}

func (db *DB) openStoreLocked(name string, logged bool) (*DiskStore, error) {
	pf, err := openPageFile(db.pagePath(name))
	if err != nil {
		return nil, err
	}
	s := &DiskStore{
		db:    db,
		name:  name,
		pf:    pf,
		index: make(map[sqltypes.Key]rowLoc),
	}
	if err := s.scanPagesIntoIndex(); err != nil {
		pf.close()
		return nil, err
	}
	if !logged {
		db.stores[name] = s
		return s, nil
	}
	goodEnd, err := replayWAL(db.walPath(name), s.replay)
	if err != nil {
		pf.close()
		return nil, err
	}
	w, err := openWAL(db.walPath(name), goodEnd, db.opts.NoSync)
	if err != nil {
		pf.close()
		return nil, err
	}
	s.wal = w
	pf.wal = w
	db.stores[name] = s
	return s, nil
}

// Checkpoint flushes and truncates every open store (see
// DiskStore.Checkpoint).
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	stores := make([]*DiskStore, 0, len(db.stores))
	for _, s := range db.stores {
		stores = append(stores, s)
	}
	db.mu.Unlock()
	sort.Slice(stores, func(i, j int) bool { return stores[i].name < stores[j].name })
	var errs []error
	for _, s := range stores {
		errs = append(errs, s.Checkpoint())
	}
	return errors.Join(errs...)
}

// Close commits and closes every open store.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	var errs []error
	for name, s := range db.stores {
		errs = append(errs, s.closeFiles(true))
		delete(db.stores, name)
	}
	return errors.Join(errs...)
}

// rowLoc addresses one row: a (page, slot) pair. Slots survive in-page
// compaction, so locations stay valid until the row moves pages.
type rowLoc struct {
	page uint32
	slot uint16
}

// DiskStore is the durable storage.Store: rows live in slotted pages
// reached through the DB's shared buffer pool, every mutation of a
// logged store is WAL-logged before it touches a page, and an in-memory
// hash index maps keys to row locations. Reads are safe under the
// engine's shared table lock (the buffer pool synchronizes frames
// internally); writes require the exclusive lock, like every other
// backend.
type DiskStore struct {
	db   *DB
	name string
	pf   *pageFile
	wal  *wal // nil for an unlogged store

	index map[sqltypes.Key]rowLoc
	// tail is the page the insert path tries first — the most recently
	// allocated page. Earlier pages' dead space is reclaimed by in-page
	// compaction and by Clear.
	tail    uint32
	pending int
	closed  bool
}

var _ storage.Store = (*DiskStore)(nil)
var _ storage.Committer = (*DiskStore)(nil)
var _ storage.Checkpointer = (*DiskStore)(nil)
var _ storage.Dropper = (*DiskStore)(nil)

// Name identifies the backend.
func (s *DiskStore) Name() string { return "disk" }

// Len returns the number of live rows.
func (s *DiskStore) Len() int { return len(s.index) }

// ioPanic converts an I/O failure on an interface path that cannot
// return an error (Get/Update/Delete/Scan/Clear). Storage I/O errors
// are not recoverable mid-statement; see DESIGN.md.
func (s *DiskStore) ioPanic(op string, err error) {
	panic(fmt.Sprintf("pager: %s on store %q failed: %v", op, s.name, err))
}

// scanPagesIntoIndex builds the key index from the on-disk pages.
// Thanks to the write-ahead rule, pages on disk contain only committed
// rows.
func (s *DiskStore) scanPagesIntoIndex() error {
	for id := uint32(0); id < s.pf.pages; id++ {
		f, err := s.db.bm.pin(s.pf, id, true)
		if err != nil {
			return err
		}
		for i := 0; i < f.data.cellCount(); i++ {
			cell, live := f.data.cell(i)
			if !live {
				continue
			}
			key, _, err := decodeCell(cell)
			if err != nil {
				s.db.bm.unpin(f, false)
				return &CorruptPageError{Path: s.pf.path, PageID: id, Reason: err.Error()}
			}
			s.index[key] = rowLoc{page: id, slot: uint16(i)}
		}
		s.db.bm.unpin(f, false)
	}
	if s.pf.pages > 0 {
		s.tail = s.pf.pages - 1
	}
	return nil
}

// replay applies one recovered WAL record. Replay must be idempotent:
// a dirty page flushed by eviction just before the crash already holds
// the record's effect, so inserts of present keys degrade to updates
// and deletes of absent keys to no-ops.
func (s *DiskStore) replay(r walRec) error {
	switch r.typ {
	case recInsert, recUpdate:
		if _, ok := s.index[r.key]; ok {
			return s.applyUpdate(r.key, r.row, 0)
		}
		return s.applyInsert(r.key, r.row, 0)
	case recDelete:
		if _, ok := s.index[r.key]; ok {
			return s.applyDelete(r.key, 0)
		}
		return nil
	case recClear:
		return s.applyClear()
	default:
		return fmt.Errorf("pager: unexpected %d record in replay batch", r.typ)
	}
}

// Insert adds a new row.
func (s *DiskStore) Insert(key sqltypes.Key, row sqltypes.Row) error {
	if _, ok := s.index[key]; ok {
		return storage.ErrDuplicateKey
	}
	if len(encodeCell(key, row)) > MaxCell {
		return fmt.Errorf("pager: row for key %v exceeds page capacity", key.Value())
	}
	lsn, err := s.log(walRec{typ: recInsert, key: key, row: row})
	if err != nil {
		return err
	}
	if err := s.applyInsert(key, row, lsn); err != nil {
		return err
	}
	s.noteOp()
	return nil
}

// Get returns the row for key.
func (s *DiskStore) Get(key sqltypes.Key) (sqltypes.Row, bool) {
	loc, ok := s.index[key]
	if !ok {
		return nil, false
	}
	f, err := s.db.bm.pin(s.pf, loc.page, true)
	if err != nil {
		s.ioPanic("Get", err)
	}
	cell, live := f.data.cell(int(loc.slot))
	if !live {
		s.db.bm.unpin(f, false)
		s.ioPanic("Get", fmt.Errorf("index points at dead slot %d of page %d", loc.slot, loc.page))
	}
	_, row, err := decodeCell(cell)
	s.db.bm.unpin(f, false)
	if err != nil {
		s.ioPanic("Get", err)
	}
	return row, true
}

// Update replaces the row for key, reporting whether it existed.
func (s *DiskStore) Update(key sqltypes.Key, row sqltypes.Row) bool {
	if _, ok := s.index[key]; !ok {
		return false
	}
	if len(encodeCell(key, row)) > MaxCell {
		s.ioPanic("Update", fmt.Errorf("row for key %v exceeds page capacity", key.Value()))
	}
	lsn, err := s.log(walRec{typ: recUpdate, key: key, row: row})
	if err != nil {
		s.ioPanic("Update", err)
	}
	if err := s.applyUpdate(key, row, lsn); err != nil {
		s.ioPanic("Update", err)
	}
	s.noteOp()
	return true
}

// Delete removes the row for key, reporting whether it existed.
func (s *DiskStore) Delete(key sqltypes.Key) bool {
	if _, ok := s.index[key]; !ok {
		return false
	}
	lsn, err := s.log(walRec{typ: recDelete, key: key})
	if err != nil {
		s.ioPanic("Delete", err)
	}
	if err := s.applyDelete(key, lsn); err != nil {
		s.ioPanic("Delete", err)
	}
	s.noteOp()
	return true
}

// Scan visits every live row in page order until fn returns false.
func (s *DiskStore) Scan(fn func(key sqltypes.Key, row sqltypes.Row) bool) {
	for id := uint32(0); id < s.pf.pages; id++ {
		f, err := s.db.bm.pin(s.pf, id, true)
		if err != nil {
			s.ioPanic("Scan", err)
		}
		for i := 0; i < f.data.cellCount(); i++ {
			cell, live := f.data.cell(i)
			if !live {
				continue
			}
			key, row, err := decodeCell(cell)
			if err != nil {
				s.db.bm.unpin(f, false)
				s.ioPanic("Scan", err)
			}
			if !fn(key, row) {
				s.db.bm.unpin(f, false)
				return
			}
		}
		s.db.bm.unpin(f, false)
	}
}

// Clear removes all rows. On a logged store the sequence is crash-safe
// at every point: a committed clear record first (recovery then replays
// the clear), then the physical truncation, then the WAL reset.
func (s *DiskStore) Clear() {
	if s.wal == nil {
		if err := s.applyClear(); err != nil {
			s.ioPanic("Clear", err)
		}
		return
	}
	if _, err := s.wal.append(walRec{typ: recClear}); err != nil {
		s.ioPanic("Clear", err)
	}
	if err := s.wal.commit(); err != nil {
		s.ioPanic("Clear", err)
	}
	if err := s.applyClear(); err != nil {
		s.ioPanic("Clear", err)
	}
	if err := s.pf.sync(); err != nil {
		s.ioPanic("Clear", err)
	}
	if err := s.wal.reset(); err != nil {
		s.ioPanic("Clear", err)
	}
	s.pending = 0
}

// log appends one record to a logged store's WAL, returning its LSN;
// an unlogged store logs nothing and stamps its pages with LSN 0.
func (s *DiskStore) log(r walRec) (uint64, error) {
	if s.wal == nil {
		return 0, nil
	}
	return s.wal.append(r)
}

// Commit makes every operation so far durable (WAL commit + fsync).
// The engine calls this at statement boundaries for write-locked
// tables. A no-op on an unlogged store.
func (s *DiskStore) Commit() error {
	s.pending = 0
	if s.wal == nil {
		return nil
	}
	return s.wal.commit()
}

// WALSize reports the store's current write-ahead-log size in bytes
// (the logical end offset; resets to the header size on checkpoint).
// The engine's background checkpointer polls it against its threshold.
func (s *DiskStore) WALSize() int64 {
	if s.wal == nil {
		return 0
	}
	s.wal.mu.Lock()
	defer s.wal.mu.Unlock()
	return s.wal.size
}

// Checkpoint is the WAL↔checkpoint truncation contract: commit, flush
// every dirty page, fsync the page file, then reset the log — after a
// checkpoint, recovery has nothing to replay. A no-op on an unlogged
// store: nothing outlives its engine, so there is nothing to make
// durable.
func (s *DiskStore) Checkpoint() error {
	if s.wal == nil {
		return nil
	}
	if err := s.Commit(); err != nil {
		return err
	}
	if err := s.db.bm.flushFile(s.pf); err != nil {
		return err
	}
	if err := s.pf.sync(); err != nil {
		return err
	}
	return s.wal.reset()
}

// Drop closes the store and deletes its files (DROP TABLE).
func (s *DiskStore) Drop() error {
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	return s.dropLocked()
}

func (s *DiskStore) dropLocked() error {
	if s.closed {
		return nil
	}
	err := s.closeFiles(false)
	for _, p := range []string{s.pf.path, s.db.walPath(s.name)} {
		if rmErr := os.Remove(p); rmErr != nil && !os.IsNotExist(rmErr) && err == nil {
			err = rmErr
		}
	}
	delete(s.db.stores, s.name)
	return err
}

// Close commits, flushes and closes the store's files; a logged store
// remains reopenable via OpenStore.
func (s *DiskStore) Close() error {
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.closeFiles(true)
	delete(s.db.stores, s.name)
	return err
}

// closeFiles closes the store's files, first making a logged store's
// state durable when flush is set; an unlogged store's dirty pages are
// dropped unwritten.
func (s *DiskStore) closeFiles(flush bool) error {
	s.closed = true
	var errs []error
	if flush && s.wal != nil {
		errs = append(errs, s.wal.commit(), s.db.bm.flushFile(s.pf), s.pf.sync())
	}
	s.db.bm.invalidateFile(s.pf)
	if s.wal != nil {
		errs = append(errs, s.wal.close())
	}
	errs = append(errs, s.pf.close())
	return errors.Join(errs...)
}

// groupCommitOps bounds how much uncommitted work may accumulate when
// no caller ever commits explicitly (ad-hoc Store users): every Nth
// operation forces a commit, bounding both replay time and the window
// a crash can lose.
const groupCommitOps = 4096

func (s *DiskStore) noteOp() {
	s.pending++
	if s.pending >= groupCommitOps {
		if err := s.Commit(); err != nil {
			s.ioPanic("group commit", err)
		}
	}
}

// applyInsert places the encoded cell on a page (tail first, then a
// fresh page) and records the location. lsn stamps the page header.
func (s *DiskStore) applyInsert(key sqltypes.Key, row sqltypes.Row, lsn uint64) error {
	cell := encodeCell(key, row)
	if len(cell) > MaxCell {
		return fmt.Errorf("pager: row for key %v exceeds page capacity", key.Value())
	}
	if s.pf.pages > 0 {
		f, err := s.db.bm.pin(s.pf, s.tail, true)
		if err != nil {
			return err
		}
		if slot, ok := f.data.addCell(cell); ok {
			f.data.setLSN(lsn)
			s.db.bm.unpin(f, true)
			s.index[key] = rowLoc{page: s.tail, slot: uint16(slot)}
			return nil
		}
		s.db.bm.unpin(f, false)
	}
	id := s.pf.allocate()
	f, err := s.db.bm.pin(s.pf, id, false)
	if err != nil {
		return err
	}
	slot, ok := f.data.addCell(cell)
	if !ok {
		s.db.bm.unpin(f, false)
		return fmt.Errorf("pager: cell of %d bytes does not fit an empty page", len(cell))
	}
	f.data.setLSN(lsn)
	s.db.bm.unpin(f, true)
	s.tail = id
	s.index[key] = rowLoc{page: id, slot: uint16(slot)}
	return nil
}

// applyUpdate rewrites the row in place when it fits, otherwise moves
// it (same page first — compaction may make room — then the insert
// path).
func (s *DiskStore) applyUpdate(key sqltypes.Key, row sqltypes.Row, lsn uint64) error {
	loc := s.index[key]
	cell := encodeCell(key, row)
	f, err := s.db.bm.pin(s.pf, loc.page, true)
	if err != nil {
		return err
	}
	if f.data.updateCellInPlace(int(loc.slot), cell) {
		f.data.setLSN(lsn)
		s.db.bm.unpin(f, true)
		return nil
	}
	f.data.delCell(int(loc.slot))
	if slot, ok := f.data.addCell(cell); ok {
		f.data.setLSN(lsn)
		s.db.bm.unpin(f, true)
		s.index[key] = rowLoc{page: loc.page, slot: uint16(slot)}
		return nil
	}
	f.data.setLSN(lsn)
	s.db.bm.unpin(f, true)
	delete(s.index, key)
	return s.applyInsert(key, row, lsn)
}

func (s *DiskStore) applyDelete(key sqltypes.Key, lsn uint64) error {
	loc := s.index[key]
	f, err := s.db.bm.pin(s.pf, loc.page, true)
	if err != nil {
		return err
	}
	f.data.delCell(int(loc.slot))
	f.data.setLSN(lsn)
	s.db.bm.unpin(f, true)
	delete(s.index, key)
	return nil
}

func (s *DiskStore) applyClear() error {
	s.db.bm.invalidateFile(s.pf)
	if err := s.pf.truncate(); err != nil {
		return err
	}
	s.index = make(map[sqltypes.Key]rowLoc)
	s.tail = 0
	return nil
}
