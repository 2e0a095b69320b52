package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"
)

// FuzzSnapshotRoundTrip drives the decoder with arbitrary bytes: it
// must either reject the input with a CorruptError or produce a
// snapshot that re-encodes and re-decodes to the same bytes — never
// panic, never accept garbage silently. Each input is also tried with
// its header's length and checksum restamped to match, so mutations
// reach the metadata and row decoders instead of stopping at the CRC.
func FuzzSnapshotRoundTrip(f *testing.F) {
	var buf bytes.Buffer
	if _, err := Encode(&buf, &Snapshot{Key: "k", CTE: "r", Round: 1}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	if _, err := Encode(&buf, &Snapshot{
		Key: "abc", Query: "SELECT 1", Mode: "sync", Round: 3, Partitions: 2,
		PartRounds: []int{3, 4}, Columns: []string{"id", "v"},
		Tables: []TableState{{Name: "t", Columns: []string{"id", "v"}, Rows: [][]any{
			{int64(9), 1.5},
			{"v", true},
			{math.Inf(1), nil},
		}}},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		checkRoundTrip(t, data)
		if len(data) >= headerLen {
			fixed := append([]byte(nil), data...)
			binary.BigEndian.PutUint32(fixed[12:16], uint32(len(fixed)-headerLen))
			binary.BigEndian.PutUint32(fixed[16:20], crc32.ChecksumIEEE(fixed[headerLen:]))
			checkRoundTrip(t, fixed)
		}
	})
}

func checkRoundTrip(t *testing.T, data []byte) {
	snap, err := Decode(bytes.NewReader(data))
	if err != nil {
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("decode error is not a CorruptError: %v", err)
		}
		return
	}
	var out bytes.Buffer
	if _, err := Encode(&out, snap); err != nil {
		t.Fatalf("re-encode of a decoded snapshot failed: %v", err)
	}
	again, err := Decode(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("re-decode failed: %v", err)
	}
	var out2 bytes.Buffer
	if _, err := Encode(&out2, again); err != nil {
		t.Fatalf("second re-encode failed: %v", err)
	}
	if !bytes.Equal(out.Bytes(), out2.Bytes()) {
		t.Fatalf("unstable round trip: %+v vs %+v", again, snap)
	}
}
