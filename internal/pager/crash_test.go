package pager

import (
	"os"
	"testing"

	"sqloop/internal/sqltypes"
)

// crashModel tracks expected store contents at each commit boundary.
type crashModel struct {
	boundaries []int64                  // WAL size after each commit
	states     []map[sqltypes.Key]int64 // expected contents at that boundary
}

func (m *crashModel) snapshot(walSize int64, state map[sqltypes.Key]int64) {
	cp := make(map[sqltypes.Key]int64, len(state))
	for k, v := range state {
		cp[k] = v
	}
	m.boundaries = append(m.boundaries, walSize)
	m.states = append(m.states, cp)
}

// stateAt returns the expected contents after recovering a WAL cut at
// offset c: the state of the last commit whose record is fully inside
// the cut.
func (m *crashModel) stateAt(c int64) map[sqltypes.Key]int64 {
	best := map[sqltypes.Key]int64{}
	for i, b := range m.boundaries {
		if b <= c {
			best = m.states[i]
		}
	}
	return best
}

func verifyStore(t *testing.T, s *DiskStore, want map[sqltypes.Key]int64, cut int64) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("cut %d: Len = %d, want %d", cut, s.Len(), len(want))
	}
	got := make(map[sqltypes.Key]int64, s.Len())
	s.Scan(func(k sqltypes.Key, r sqltypes.Row) bool {
		got[k] = r[0].Int()
		return true
	})
	for k, v := range want {
		gv, ok := got[k]
		if !ok || gv != v {
			t.Fatalf("cut %d: key %v = %d,%v want %d", cut, k.Value(), gv, ok, v)
		}
	}
}

// TestCrashWALCutMatrix cuts the WAL at every byte offset — simulating
// a crash mid-write at each possible point — and asserts recovery
// yields exactly the committed prefix: never a torn record, never a
// half-applied batch, never a lost committed batch.
func TestCrashWALCutMatrix(t *testing.T) {
	workDir := t.TempDir()
	db, err := OpenDB(workDir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.CreateStore("m", true)
	if err != nil {
		t.Fatal(err)
	}

	model := &crashModel{}
	state := map[sqltypes.Key]int64{}
	model.snapshot(int64(len(walMagic)), state) // empty store before any batch
	next := int64(0)
	for batch := 0; batch < 25; batch++ {
		for op := 0; op < 3; op++ {
			switch (batch + op) % 3 {
			case 0:
				k := intKey(next)
				if err := s.Insert(k, sqltypes.Row{sqltypes.NewInt(next * 10)}); err != nil {
					t.Fatal(err)
				}
				state[k] = next * 10
				next++
			case 1:
				k := intKey(next / 2)
				if s.Update(k, sqltypes.Row{sqltypes.NewInt(-next)}) {
					state[k] = -next
				}
			case 2:
				k := intKey(next / 3)
				if s.Delete(k) {
					delete(state, k)
				}
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		model.snapshot(s.wal.size, state)
	}
	walBytes, err := os.ReadFile(db.walPath("m"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(walBytes)) != model.boundaries[len(model.boundaries)-1] {
		t.Fatalf("WAL size %d != last boundary %d", len(walBytes), model.boundaries[len(model.boundaries)-1])
	}
	// Abandon the original DB without flushing: the page file must stay
	// empty so every cut recovers purely from the log.
	if st, _ := os.Stat(db.pagePath("m")); st != nil && st.Size() != 0 {
		t.Fatalf("page file unexpectedly flushed (%d bytes); enlarge the pool", st.Size())
	}
	s.wal.close()
	s.pf.close()

	for cut := int64(len(walMagic)); cut <= int64(len(walBytes)); cut++ {
		runOneCut(t, walBytes[:cut], cut, model)
	}
}

func runOneCut(t *testing.T, walPrefix []byte, cut int64, model *crashModel) {
	t.Helper()
	dir := t.TempDir()
	db, err := OpenDB(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := os.WriteFile(db.walPath("m"), walPrefix, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := db.OpenStore("m")
	if err != nil {
		t.Fatalf("cut %d: OpenStore: %v", cut, err)
	}
	verifyStore(t, s, model.stateAt(cut), cut)
	// The store stays writable after recovery.
	probe := intKey(1 << 40)
	if err := s.Insert(probe, sqltypes.Row{sqltypes.NewInt(1)}); err != nil {
		t.Fatalf("cut %d: post-recovery insert: %v", cut, err)
	}
	if !s.Delete(probe) {
		t.Fatalf("cut %d: post-recovery delete failed", cut)
	}
}

// TestCrashAfterCheckpoint reruns the cut matrix against a store that
// checkpointed mid-history: recovery must combine the page-file state
// with the post-checkpoint log suffix.
func TestCrashAfterCheckpoint(t *testing.T) {
	workDir := t.TempDir()
	db, err := OpenDB(workDir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.CreateStore("m", true)
	if err != nil {
		t.Fatal(err)
	}
	state := map[sqltypes.Key]int64{}
	for i := int64(0); i < 200; i++ {
		if err := s.Insert(intKey(i), sqltypes.Row{sqltypes.NewInt(i)}); err != nil {
			t.Fatal(err)
		}
		state[intKey(i)] = i
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pageBytes, err := os.ReadFile(db.pagePath("m"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pageBytes) == 0 {
		t.Fatal("checkpoint left the page file empty")
	}

	model := &crashModel{}
	model.snapshot(s.wal.size, state)
	for batch := 0; batch < 10; batch++ {
		k := intKey(int64(batch * 7))
		if s.Update(k, sqltypes.Row{sqltypes.NewInt(int64(-batch - 1))}) {
			state[k] = int64(-batch - 1)
		}
		kd := intKey(int64(100 + batch))
		if s.Delete(kd) {
			delete(state, kd)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		model.snapshot(s.wal.size, state)
	}
	walBytes, err := os.ReadFile(db.walPath("m"))
	if err != nil {
		t.Fatal(err)
	}
	s.wal.close()
	s.pf.close()

	for cut := model.boundaries[0]; cut <= int64(len(walBytes)); cut++ {
		dir := t.TempDir()
		db2, err := OpenDB(dir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(db2.pagePath("m"), pageBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(db2.walPath("m"), walBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := db2.OpenStore("m")
		if err != nil {
			t.Fatalf("cut %d: OpenStore: %v", cut, err)
		}
		verifyStore(t, s2, model.stateAt(cut), cut)
		db2.Close()
	}
}

// TestCrashMidBatchAbandon abandons a store with an uncommitted batch
// in the OS file (flushed but never committed): reopen must surface
// only the committed prefix.
func TestCrashMidBatchAbandon(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.CreateStore("m", true)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := s.Insert(intKey(i), testRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := int64(10); i < 20; i++ {
		if err := s.Insert(intKey(i), testRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.wal.mu.Lock()
	if err := s.wal.w.Flush(); err != nil {
		t.Fatal(err)
	}
	s.wal.mu.Unlock()
	s.wal.f.Close()
	s.pf.close()
	delete(db.stores, "m")

	db2, err := OpenDB(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2, err := db2.OpenStore("m")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 10 {
		t.Fatalf("Len after mid-batch crash = %d, want 10", s2.Len())
	}
	for i := int64(10); i < 20; i++ {
		if _, ok := s2.Get(intKey(i)); ok {
			t.Fatalf("uncommitted key %d visible after crash", i)
		}
	}
}
