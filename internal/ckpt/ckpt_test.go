package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sqloop/internal/sqltypes"
)

// sampleSnapshot builds a snapshot exercising every value kind (NaN,
// which reflect.DeepEqual cannot compare, is covered by
// TestScalarRoundTrip).
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Key:        Key("SELECT 1", "async", "sqlsim://tcp/127.0.0.1:1"),
		Query:      "SELECT 1",
		Mode:       "async",
		Engine:     "sqlsim://tcp/127.0.0.1:1",
		CTE:        "pr",
		Round:      6,
		Partitions: 4,
		PartRounds: []int{6, 7, 6, 6},
		Columns:    []string{"id", "rank", "delta"},
		Tables: []TableState{
			{
				Name:    "sqloop_pr_pt0",
				Columns: []string{"id", "rank", "delta"},
				Rows: [][]any{
					{int64(42), 3.5, "node-1"},
					{true, math.Inf(1), nil},
					{math.Inf(-1), false, int64(-42)},
				},
			},
			{Name: "sqloop_pr_pt1", Columns: []string{"id"}, Rows: nil},
		},
		CreatedAt: time.Now().UTC().Truncate(time.Second),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	var buf bytes.Buffer
	n, err := Encode(&buf, want)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Encode reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Encode(&buf, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":           {},
		"short header":    good[:10],
		"bad magic":       append([]byte("NOTCKPT\n"), good[8:]...),
		"truncated":       good[:len(good)-5],
		"flipped payload": flipByte(good, len(good)-3),
		"flipped crc":     flipByte(good, 17),
		"bad version":     flipByte(good, 11),
	}
	for name, data := range cases {
		_, err := Decode(bytes.NewReader(data))
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: want CorruptError, got %v", name, err)
		}
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xff
	return out
}

// roundTripRow encodes one row through a snapshot and decodes it back.
func roundTripRow(t *testing.T, row []any) []any {
	t.Helper()
	cols := make([]string, len(row))
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	var buf bytes.Buffer
	if _, err := Encode(&buf, &Snapshot{Key: "k", Tables: []TableState{{Name: "t", Columns: cols, Rows: [][]any{row}}}}); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got.Tables[0].Rows[0]
}

// TestScalarRoundTrip pins the binary value encoding bit for bit,
// including the floats JSON cannot spell and the integer extremes.
func TestScalarRoundTrip(t *testing.T) {
	in := []any{nil, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0.1,
		int64(math.MinInt64), int64(math.MaxInt64), int64(0), "", "a\x00b", true, false}
	got := roundTripRow(t, in)
	for i, want := range in {
		switch w := want.(type) {
		case float64:
			g, ok := got[i].(float64)
			if !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("value %d: %v (%T) round-tripped to %v (%T)", i, w, w, got[i], got[i])
			}
		default:
			if got[i] != want {
				t.Errorf("value %d: %#v round-tripped to %#v", i, want, got[i])
			}
		}
	}
	// []byte flattens to string (database/sql hands text back as bytes
	// with some drivers) and int widens to int64.
	if got := roundTripRow(t, []any{[]byte("bs"), 7}); got[0] != "bs" || got[1] != int64(7) {
		t.Errorf("[]byte, int round-tripped to %#v", got)
	}
	var buf bytes.Buffer
	if _, err := Encode(&buf, &Snapshot{Tables: []TableState{{Name: "t", Columns: []string{"c"}, Rows: [][]any{{struct{}{}}}}}}); err == nil {
		t.Error("Encode accepted a struct value")
	}
	if _, err := Encode(&buf, &Snapshot{Tables: []TableState{{Name: "t", Columns: []string{"c"}, Rows: [][]any{{1, 2}}}}}); err == nil {
		t.Error("Encode accepted a row wider than its columns")
	}
}

// frameFile wraps payload in a file header with a valid length and
// checksum, so the payload decoder itself must catch the damage.
func frameFile(version uint32, payload []byte) []byte {
	b := []byte(magic)
	b = binary.BigEndian.AppendUint32(b, version)
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// TestDecodeRejectsMalformedRows damages the row section under a valid
// checksum: every case must fail as a CorruptError, never panic or
// decode.
func TestDecodeRejectsMalformedRows(t *testing.T) {
	meta := []byte(`{"key":"k","tables":[{"name":"t","columns":["a","b"]}]}`)
	payload := func(rows ...byte) []byte {
		return append(append(binary.AppendUvarint(nil, uint64(len(meta))), meta...), rows...)
	}
	good := payload(1, tagInt, 2, tagString, 1, 'x')
	if _, err := Decode(bytes.NewReader(frameFile(Version, good))); err != nil {
		t.Fatalf("well-formed payload rejected: %v", err)
	}
	v1, err := json.Marshal(map[string]any{"key": "k", "round": 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"version 1 file":      frameFile(1, v1),
		"no row section":      frameFile(Version, payload()),
		"truncated row":       frameFile(Version, payload(1, tagInt, 2)),
		"truncated float":     frameFile(Version, payload(1, tagFloat, 0, 0, 0, tagNull)),
		"truncated string":    frameFile(Version, payload(1, tagNull, tagString, 5, 'a', 'b')),
		"overlong varint":     frameFile(Version, payload(1, tagInt, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, tagNull)),
		"unknown tag":         frameFile(Version, payload(1, tagNull, 0x7f)),
		"trailing bytes":      frameFile(Version, append(append([]byte(nil), good...), 0)),
		"row count overrun":   frameFile(Version, payload(0xe8, 0x07, tagNull, tagNull)),
		"bad metadata length": frameFile(Version, []byte{0xff, 0xff, 0x03, '{', '}'}),
		"bad metadata":        frameFile(Version, []byte{2, '{', '['}),
	}
	for name, data := range cases {
		_, err := Decode(bytes.NewReader(data))
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: want CorruptError, got %v", name, err)
		}
	}
}

func TestKeyStability(t *testing.T) {
	k1 := Key("SELECT * FROM r", "sync", "dsn-a")
	if k1 != Key("SELECT * FROM r", "sync", "dsn-a") {
		t.Error("identical inputs produced different keys")
	}
	for name, other := range map[string]string{
		"query": Key("SELECT * FROM s", "sync", "dsn-a"),
		"mode":  Key("SELECT * FROM r", "async", "dsn-a"),
		"dsn":   Key("SELECT * FROM r", "sync", "dsn-b"),
	} {
		if other == k1 {
			t.Errorf("changing the %s did not change the key", name)
		}
	}
	if len(k1) != 16 {
		t.Errorf("key %q is not 16 hex chars", k1)
	}
}

func TestStoreSaveLoadListRemove(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := sampleSnapshot()
	n, err := st.Save(s)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("Save reported %d bytes", n)
	}

	got, err := st.Load(s.Key)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Round != s.Round || len(got.Tables) != len(s.Tables) {
		t.Fatalf("Load returned %+v", got)
	}

	// Replacement: a later snapshot at a higher round wins.
	s2 := sampleSnapshot()
	s2.Round = 8
	if _, err := st.Save(s2); err != nil {
		t.Fatal(err)
	}
	got, err = st.Load(s.Key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 8 {
		t.Fatalf("replacement not visible: round %d", got.Round)
	}

	infos, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Key != s.Key || infos[0].Round != 8 || infos[0].Size <= 0 {
		t.Fatalf("List returned %+v", infos)
	}

	if err := st.Remove(s.Key); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Load(s.Key); err != nil || got != nil {
		t.Fatalf("Load after Remove: %v, %v", got, err)
	}
	if err := st.Remove(s.Key); err != nil {
		t.Fatalf("Remove of a missing snapshot: %v", err)
	}
}

func TestLoadMissingAndCorrupt(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := st.Load("deadbeefdeadbeef"); err != nil || got != nil {
		t.Fatalf("missing snapshot: %v, %v", got, err)
	}
	// A corrupt file must surface as CorruptError, and List must skip it.
	if err := os.WriteFile(filepath.Join(st.Dir(), "deadbeefdeadbeef.ckpt"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = st.Load("deadbeefdeadbeef")
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want CorruptError, got %v", err)
	}
	infos, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("List included the corrupt file: %+v", infos)
	}
}

func TestSaveLeavesNoTempFiles(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after Save", len(entries))
	}
}

// groupSnapshot builds a 4-partition sharded group snapshot: one
// working table per partition plus per-partition round counters.
func groupSnapshot() *Snapshot {
	tables := make([]TableState, 4)
	for p := range tables {
		rows := make([][]any, 0, 8)
		for r := 0; r < 8; r++ {
			rows = append(rows, []any{int64(p*100 + r), int64(r)})
		}
		tables[p] = TableState{
			Name:    "sqloop_shard_part" + string(rune('0'+p)),
			Columns: []string{"id", "val"},
			Rows:    rows,
		}
	}
	return &Snapshot{
		Key:        Key("WITH ITERATIVE g ...", "sync", "dsn0;dsn1;dsn2;dsn3|shards=4"),
		Query:      "WITH ITERATIVE g ...",
		Mode:       "sync",
		Engine:     "dsn0;dsn1;dsn2;dsn3|shards=4",
		CTE:        "g",
		Round:      3,
		Partitions: 4,
		Epoch:      2,
		PartRounds: []int{3, 3, 4, 3},
		Columns:    []string{"Node", "Rank", "Delta"},
		Tables:     tables,
		CreatedAt:  time.Now().UTC().Truncate(time.Second),
	}
}

// TestGroupSnapshotPartialTruncation pins the atomicity of group
// snapshots: a snapshot holding every shard's partition is one
// CRC-guarded unit, so corrupting the byte range of just ONE
// partition's table — while every other partition's bytes stay intact
// — must fail the whole Load with CorruptError. A load must never
// resurrect three healthy partitions and silently drop the fourth.
func TestGroupSnapshotPartialTruncation(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := groupSnapshot()
	if _, err := st.Save(snap); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.Dir(), snap.Key+fileExt)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate partition 2's table inside the encoded payload and damage
	// only bytes inside its row region.
	marker := []byte("sqloop_shard_part2")
	at := bytes.Index(good, marker)
	if at < 0 {
		t.Fatalf("partition marker not found in %d-byte snapshot", len(good))
	}
	cases := map[string][]byte{
		// Splice 40 bytes out of partition 2's rows (other partitions intact).
		"spliced rows": append(append([]byte(nil), good[:at+len(marker)+10]...),
			good[at+len(marker)+50:]...),
		// Flip one byte inside partition 2's region.
		"flipped row byte": flipByte(good, at+len(marker)+20),
		// Cut the file just after partition 2 begins (partitions 0-1 whole).
		"tail truncated": good[:at],
	}
	for name, data := range cases {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := st.Load(snap.Key)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: want CorruptError, got %v", name, err)
		}
	}
	// Restoring the intact bytes loads every partition again.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(snap.Key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tables) != 4 || got.Epoch != 2 || !reflect.DeepEqual(got.PartRounds, snap.PartRounds) {
		t.Fatalf("intact reload mismatch: %+v", got)
	}
}

// TestRowCodecGolden pins the v2 row bytes of one mixed-kind engine row,
// taken through Value.GoValue as the checkpointer reads it, so snapshots
// written by earlier builds still load.
func TestRowCodecGolden(t *testing.T) {
	vals := []sqltypes.Value{
		sqltypes.Null, sqltypes.NewInt(-300), sqltypes.NewFloat(-2.5), sqltypes.NewFloat(math.Inf(1)),
		sqltypes.NewString("héllo"), sqltypes.NewBool(true), sqltypes.NewBool(false), sqltypes.NewInt(math.MaxInt64),
	}
	row := make([]any, len(vals))
	for i, v := range vals {
		row[i] = v.GoValue()
	}
	ts := TableState{Name: "t", Columns: []string{"a", "b", "c", "d", "e", "f", "g", "h"}, Rows: [][]any{row}}
	const want = "010001d7040200000000000004c002000000000000f07f030668c3a96c6c6f050401feffffffffffffffff01"
	b, err := appendRows(nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b); got != want {
		t.Errorf("appendRows = %s, want %s", got, want)
	}
	golden, _ := hex.DecodeString(want)
	rows, rest, err := readRows(golden, len(ts.Columns))
	if err != nil || len(rest) != 0 || len(rows) != 1 {
		t.Fatalf("readRows: %d rows, %d bytes left, %v", len(rows), len(rest), err)
	}
	if !reflect.DeepEqual(rows[0], row) {
		t.Errorf("readRows = %#v, want %#v", rows[0], row)
	}
}
