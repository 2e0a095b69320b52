package pager

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sqloop/internal/obs"
	"sqloop/internal/sqltypes"
	"sqloop/internal/storage"
	"sqloop/internal/storage/storagetest"
)

func TestDiskStoreConformance(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, Options{BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	n := 0
	storagetest.Run(t, func() storage.Store {
		n++
		s, err := db.CreateStore(fmt.Sprintf("s%d", n), true)
		if err != nil {
			t.Fatalf("CreateStore: %v", err)
		}
		return s
	})
}

// TestDiskStoreConformanceTinyPool reruns the model tests with a pool
// far smaller than the data, so every access path crosses eviction.
func TestDiskStoreConformanceTinyPool(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	db, err := OpenDB(t.TempDir(), Options{BufferPoolPages: minPoolPages})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	n := 0
	storagetest.Run(t, func() storage.Store {
		n++
		s, err := db.CreateStore(fmt.Sprintf("s%d", n), true)
		if err != nil {
			t.Fatalf("CreateStore: %v", err)
		}
		return s
	})
}

func TestDiskStoreReopenDurability(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, Options{BufferPoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.CreateStore("edges", true)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 5000
	for i := int64(0); i < rows; i++ {
		if err := s.Insert(intKey(i), testRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < rows; i += 3 {
		s.Delete(intKey(i))
	}
	for i := int64(1); i < rows; i += 3 {
		s.Update(intKey(i), sqltypes.Row{sqltypes.NewInt(-i)})
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDB(dir, Options{BufferPoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2, err := db2.OpenStore("edges")
	if err != nil {
		t.Fatalf("OpenStore after close: %v", err)
	}
	want := 0
	for i := int64(0); i < rows; i++ {
		r, ok := s2.Get(intKey(i))
		switch i % 3 {
		case 0:
			if ok {
				t.Fatalf("deleted key %d survived reopen", i)
			}
		case 1:
			want++
			if !ok || r[0].Int() != -i {
				t.Fatalf("updated key %d = %v, %v", i, r, ok)
			}
		case 2:
			want++
			if !ok || r[0].Int() != i {
				t.Fatalf("key %d = %v, %v", i, r, ok)
			}
		}
	}
	if s2.Len() != want {
		t.Fatalf("Len after reopen = %d, want %d", s2.Len(), want)
	}
}

func TestDiskStoreCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, err := db.CreateStore("t", true)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 1000; i++ {
		if err := s.Insert(intKey(i), testRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	walPath := db.walPath("t")
	before, _ := os.Stat(walPath)
	if before.Size() < 10000 {
		t.Fatalf("WAL suspiciously small before checkpoint: %d", before.Size())
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(walPath)
	if want := int64(len(walMagic)) + 9; after.Size() != want {
		t.Fatalf("WAL size after checkpoint = %d, want %d", after.Size(), want)
	}
	// State survives a checkpoint + reopen with an empty log.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDB(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2, err := db2.OpenStore("t")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1000 {
		t.Fatalf("Len after checkpointed reopen = %d", s2.Len())
	}
}

func TestDiskStoreDropRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, err := db.CreateStore("gone", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(intKey(1), testRow(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Drop(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("file %s survived Drop", e.Name())
	}
	// The name is reusable.
	s2, err := db.CreateStore("gone", true)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 0 {
		t.Fatalf("recreated store Len = %d", s2.Len())
	}
}

func TestDiskStoreMetricsWired(t *testing.T) {
	reg := obs.NewRegistry()
	db, err := OpenDB(t.TempDir(), Options{BufferPoolPages: minPoolPages, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, err := db.CreateStore("m", true)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10000; i++ {
		if err := s.Insert(intKey(i), testRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 10000; i += 7 {
		s.Get(intKey(i))
	}
	snap := reg.Snapshot()
	if snap.Counters["sqloop_pager_page_writes"] == 0 {
		t.Error("no page writes recorded despite eviction pressure")
	}
	if snap.Counters["sqloop_pager_evictions"] == 0 {
		t.Error("no evictions recorded")
	}
	if _, ok := snap.Gauges["sqloop_pager_hit_rate_percent"]; !ok {
		t.Error("hit rate gauge missing")
	}
}

func TestSafeName(t *testing.T) {
	a, b := safeName("Weird Name!"), safeName("weird_name_")
	if a == b {
		t.Fatalf("distinct names collide: %q", a)
	}
	if safeName("edges") != "edges" {
		t.Fatalf("clean name mangled: %q", safeName("edges"))
	}
	for _, n := range []string{"../../etc/passwd", "a/b", "CON", ""} {
		s := safeName(n)
		if filepath.Base(s) != s || s == "" {
			t.Fatalf("safeName(%q) = %q is not a plain filename", n, s)
		}
	}
}

func TestDiskStoreWideRows(t *testing.T) {
	db, err := OpenDB(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, err := db.CreateStore("wide", true)
	if err != nil {
		t.Fatal(err)
	}
	// A row a few KiB wide still fits one cell; oversized rows error.
	big := make(sqltypes.Row, 0, 100)
	for i := 0; i < 100; i++ {
		big = append(big, sqltypes.NewString("0123456789012345678901234567890123456789"))
	}
	if err := s.Insert(intKey(1), big); err != nil {
		t.Fatalf("4 KiB row rejected: %v", err)
	}
	huge := sqltypes.Row{sqltypes.NewString(string(make([]byte, PageSize)))}
	if err := s.Insert(intKey(2), huge); err == nil {
		t.Fatal("row larger than a page accepted")
	}
	r, ok := s.Get(intKey(1))
	if !ok || len(r) != 100 {
		t.Fatalf("wide row read back as %d cols, %v", len(r), ok)
	}
}

// TestUnloggedStore runs the model tests on unlogged stores under a
// pool far smaller than the data, so eviction writes their pages with
// no log to commit first. An unlogged store never has a WAL file, and
// its Commit and Checkpoint do nothing.
func TestUnloggedStore(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, Options{BufferPoolPages: minPoolPages})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	storagetest.Run(t, func() storage.Store {
		n++
		s, err := db.CreateStore(fmt.Sprintf("u%d", n), false)
		if err != nil {
			t.Fatalf("CreateStore: %v", err)
		}
		return s
	})
	u, err := db.CreateStore("scratch", false)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := db.CreateStore("kept", true)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 2000; i++ {
		if err := u.Insert(intKey(i), testRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := kept.Insert(intKey(1), testRow(1)); err != nil {
		t.Fatal(err)
	}
	if err := u.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := u.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if u.WALSize() != 0 {
		t.Fatalf("unlogged WALSize = %d", u.WALSize())
	}
	if got, ok := u.Get(intKey(1999)); !ok || got[0].Int() != 1999 {
		t.Fatalf("Get after eviction = %v, %v", got, ok)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	wals, err := filepath.Glob(filepath.Join(dir, "*"+walExt))
	if err != nil {
		t.Fatal(err)
	}
	if len(wals) != 1 || filepath.Base(wals[0]) != "kept"+walExt {
		t.Fatalf("WAL files %v, want only the logged store's", wals)
	}
}

// TestRemoveOrphans deletes the page and WAL files of every store not
// named, whatever its name sanitized to, and leaves other files alone.
func TestRemoveOrphans(t *testing.T) {
	dir := t.TempDir()
	odd := "Odd Name"
	var files []string
	for _, name := range []string{"keep", odd, "gone", "Gone Too"} {
		files = append(files, safeName(name)+pageExt, safeName(name)+walExt)
	}
	files = append(files, "catalog.json", "notes.txt")
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := RemoveOrphans(dir, []string{"keep", odd}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	left := map[string]bool{}
	for _, e := range ents {
		left[e.Name()] = true
	}
	want := []string{"keep.pages", "keep.wal", safeName(odd) + pageExt, safeName(odd) + walExt, "catalog.json", "notes.txt"}
	if len(left) != len(want) {
		t.Fatalf("left %v, want %v", left, want)
	}
	for _, f := range want {
		if !left[f] {
			t.Errorf("%s was removed", f)
		}
	}
	if err := RemoveOrphans(filepath.Join(dir, "missing"), nil); err != nil {
		t.Fatalf("missing dir: %v", err)
	}
}
