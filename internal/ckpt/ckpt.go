// Package ckpt implements SQLoop's checkpoint/recovery snapshots: the
// durable form of an iterative query's in-flight state (the recursion
// table R or the per-partition delta tables, plus the round counter).
// Long-running iterative queries — PageRank and SSSP run dozens to
// hundreds of rounds — lose every completed round to a single dropped
// connection without it; with it, core re-enters the loop at the last
// checkpointed round boundary.
//
// Snapshots are engine-neutral: core reads the state through plain SQL
// and hands this package column names and Go scalar rows, so the same
// snapshot restores against any engine reachable through database/sql.
// The on-disk format is versioned, CRC-checksummed and written through
// an atomic rename, so a crash during Save never leaves a snapshot a
// later run could half-read. The payload is the snapshot's metadata as
// JSON (length-prefixed) followed by every table's rows in a compact
// binary form: a row count, then one tagged value per column — null,
// varint integer, 8-byte float, length-prefixed string or bool.
package ckpt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Version is the current snapshot payload version. Decoders reject
// snapshots of any other version instead of misreading them; version 1
// (all-JSON rows) is no longer read, so its files are discarded and
// their queries start over.
const Version = 2

// magic identifies a SQLoop checkpoint file. The trailing newline makes
// accidental text files fail fast.
const magic = "SQLCKPT\n"

// maxPayload bounds a snapshot payload (1 GiB); anything larger is a
// corrupt length field, not a real checkpoint.
const maxPayload = 1 << 30

// headerLen is the size of the file header: magic, version, payload
// length and payload CRC.
const headerLen = 20

// fileExt is the snapshot file suffix inside a Store directory.
const fileExt = ".ckpt"

// CorruptError reports a snapshot that failed structural validation
// (bad magic, bad checksum, truncated payload, unknown version).
type CorruptError struct{ Reason string }

func (e *CorruptError) Error() string { return "ckpt: corrupt snapshot: " + e.Reason }

// Snapshot is the full recoverable state of one iterative execution at
// a round boundary.
type Snapshot struct {
	// Key identifies the execution: Key(query, mode, engine DSN).
	Key string `json:"key"`
	// Query is the normalized statement text (for listing/debugging;
	// the key, not this field, decides matches).
	Query string `json:"query"`
	// Mode names the execution mode the snapshot was taken under; a
	// snapshot only resumes the same mode.
	Mode string `json:"mode"`
	// Engine is the DSN of the target database.
	Engine string `json:"engine"`
	// CTE is the CTE's declared name.
	CTE string `json:"cte"`
	// Token is the per-execution working-table namespace token the
	// snapshot's table names were minted under; a restored run adopts
	// it.
	Token string `json:"token,omitempty"`
	// Round is the last completed round; a resumed run continues from
	// Round instead of 0.
	Round int `json:"round"`
	// Partitions is the partition count of a parallel run (0 for the
	// single-threaded executors). In-process executors only resume under
	// the same partitioning — PARTHASH assignments depend on it — while
	// the sharded coordinator re-routes a mismatched snapshot's rows
	// under its current shard count instead of discarding it.
	Partitions int `json:"partitions,omitempty"`
	// Epoch is the shard group's topology epoch at save time: it starts
	// at 0 and each failover or online repartition increments it, so the
	// newest snapshot under a group's stable key always carries the
	// highest epoch and resume after a topology change is well-defined.
	// Zero for single-instance snapshots.
	Epoch int64 `json:"epoch,omitempty"`
	// PartRounds is the per-partition completed round count of an
	// asynchronous run (partitions run ahead of the global round).
	PartRounds []int `json:"partRounds,omitempty"`
	// Columns are the CTE's public column names.
	Columns []string `json:"columns"`
	// Tables is the captured working state.
	Tables []TableState `json:"tables"`
	// CreatedAt is the wall-clock time the snapshot was taken.
	CreatedAt time.Time `json:"createdAt"`
}

// TableState is one captured working table. Every row holds one
// scalar per column: nil (SQL NULL), int64, float64, string or bool.
// Encode also accepts int and []byte, which decode as int64 and string.
type TableState struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"-"` // binary-encoded after the metadata
}

// Key derives the snapshot identity from the normalized query text, the
// execution mode and the engine DSN. Callers must canonicalize the
// query (core formats the parsed statement) so whitespace and case
// variants of the same query share a checkpoint.
func Key(query, mode, dsn string) string {
	h := sha256.New()
	io.WriteString(h, query)
	h.Write([]byte{0})
	io.WriteString(h, mode)
	h.Write([]byte{0})
	io.WriteString(h, dsn)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Encode writes one snapshot: magic, version, payload length, CRC-32
// (IEEE) of the payload, then the payload. It returns the total bytes
// written.
func Encode(w io.Writer, s *Snapshot) (int64, error) {
	meta, err := json.Marshal(s)
	if err != nil {
		return 0, fmt.Errorf("ckpt: marshal: %w", err)
	}
	b := make([]byte, headerLen, headerLen+binary.MaxVarintLen64+len(meta))
	b = binary.AppendUvarint(b, uint64(len(meta)))
	b = append(b, meta...)
	for _, ts := range s.Tables {
		if b, err = appendRows(b, ts); err != nil {
			return 0, err
		}
	}
	payload := b[headerLen:]
	if len(payload) > maxPayload {
		return 0, fmt.Errorf("ckpt: snapshot of %d bytes exceeds limit", len(payload))
	}
	copy(b, magic)
	binary.BigEndian.PutUint32(b[8:12], Version)
	binary.BigEndian.PutUint32(b[12:16], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[16:20], crc32.ChecksumIEEE(payload))
	n, err := w.Write(b)
	if err != nil {
		return int64(n), fmt.Errorf("ckpt: write: %w", err)
	}
	return int64(n), nil
}

// Decode reads and validates one snapshot.
func Decode(r io.Reader) (*Snapshot, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, &CorruptError{Reason: "truncated header"}
	}
	if string(hdr[:8]) != magic {
		return nil, &CorruptError{Reason: "bad magic"}
	}
	if v := binary.BigEndian.Uint32(hdr[8:12]); v != Version {
		return nil, &CorruptError{Reason: fmt.Sprintf("unsupported version %d", v)}
	}
	n := binary.BigEndian.Uint32(hdr[12:16])
	if n > maxPayload {
		return nil, &CorruptError{Reason: fmt.Sprintf("payload length %d exceeds limit", n)}
	}
	sum := binary.BigEndian.Uint32(hdr[16:20])
	// Read up to the declared length rather than allocating it up front:
	// a damaged length field must not cost a 1 GiB buffer.
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil || len(payload) != int(n) {
		return nil, &CorruptError{Reason: "truncated payload"}
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, &CorruptError{Reason: "checksum mismatch"}
	}
	metaLen, k := binary.Uvarint(payload)
	if k <= 0 || metaLen > uint64(len(payload)-k) {
		return nil, &CorruptError{Reason: "bad metadata length"}
	}
	rest := payload[k+int(metaLen):]
	var s Snapshot
	if err := json.Unmarshal(payload[k:k+int(metaLen)], &s); err != nil {
		return nil, &CorruptError{Reason: "unmarshal: " + err.Error()}
	}
	for i := range s.Tables {
		var err error
		if s.Tables[i].Rows, rest, err = readRows(rest, len(s.Tables[i].Columns)); err != nil {
			return nil, &CorruptError{Reason: fmt.Sprintf("table %q: %v", s.Tables[i].Name, err)}
		}
	}
	if len(rest) != 0 {
		return nil, &CorruptError{Reason: fmt.Sprintf("%d trailing bytes", len(rest))}
	}
	return &s, nil
}

// Value tags of the binary row encoding.
const (
	tagNull   byte = iota
	tagInt         // zig-zag varint
	tagFloat       // 8 bytes, IEEE 754 bits, little endian
	tagString      // uvarint length, then the bytes
	tagFalse
	tagTrue
)

// appendRows appends one table's rows: a uvarint row count, then each
// row's values, one per column (a row has at least one).
func appendRows(b []byte, ts TableState) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(ts.Rows)))
	for _, row := range ts.Rows {
		if len(row) != len(ts.Columns) || len(row) == 0 {
			return nil, fmt.Errorf("ckpt: table %q: row of %d values for %d columns", ts.Name, len(row), len(ts.Columns))
		}
		for _, v := range row {
			var err error
			if b, err = appendValue(b, v); err != nil {
				return nil, fmt.Errorf("ckpt: table %q: %w", ts.Name, err)
			}
		}
	}
	return b, nil
}

func appendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, tagNull), nil
	case int64:
		return binary.AppendVarint(append(b, tagInt), x), nil
	case int:
		return binary.AppendVarint(append(b, tagInt), int64(x)), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, tagFloat), math.Float64bits(x)), nil
	case string:
		return append(binary.AppendUvarint(append(b, tagString), uint64(len(x))), x...), nil
	case []byte:
		return append(binary.AppendUvarint(append(b, tagString), uint64(len(x))), x...), nil
	case bool:
		if x {
			return append(b, tagTrue), nil
		}
		return append(b, tagFalse), nil
	default:
		return nil, fmt.Errorf("unsupported value type %T", v)
	}
}

// readRows decodes one table's rows of width cols from the front of b,
// returning the rest. Zero rows decode as nil.
func readRows(b []byte, cols int) ([][]any, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, nil, fmt.Errorf("bad row count")
	}
	if b = b[k:]; n == 0 {
		return nil, b, nil
	}
	// Every value takes at least one byte, which bounds the allocation
	// by the payload size.
	if cols == 0 || n > uint64(len(b)/cols) {
		return nil, nil, fmt.Errorf("%d rows of %d values overrun the payload", n, cols)
	}
	vals := make([]any, int(n)*cols)
	for i := range vals {
		var err error
		if vals[i], b, err = readValue(b); err != nil {
			return nil, nil, err
		}
	}
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = vals[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return rows, b, nil
}

func readValue(b []byte) (any, []byte, error) {
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("truncated row")
	}
	tag, b := b[0], b[1:]
	switch tag {
	case tagNull:
		return nil, b, nil
	case tagFalse, tagTrue:
		return tag == tagTrue, b, nil
	case tagInt:
		if x, k := binary.Varint(b); k > 0 {
			return x, b[k:], nil
		}
	case tagFloat:
		if len(b) >= 8 {
			return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
		}
	case tagString:
		if l, k := binary.Uvarint(b); k > 0 && l <= uint64(len(b)-k) {
			return string(b[k : k+int(l)]), b[k+int(l):], nil
		}
	default:
		return nil, nil, fmt.Errorf("unknown value tag %d", tag)
	}
	return nil, nil, fmt.Errorf("truncated value of tag %d", tag)
}

// Info describes one stored snapshot (for listing, e.g. the CLI's
// \checkpoints command).
type Info struct {
	Key     string
	CTE     string
	Mode    string
	Round   int
	Query   string
	Size    int64
	ModTime time.Time
}

// Store manages the snapshot files of one checkpoint directory. One
// file per key; Save replaces atomically.
type Store struct{ dir string }

// NewStore opens (creating if needed) the checkpoint directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("ckpt: empty checkpoint directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) path(key string) string { return filepath.Join(st.dir, key+fileExt) }

// Save durably writes the snapshot for its key, replacing any previous
// one. The write goes to a temp file first and is renamed into place,
// so readers only ever see complete snapshots. Returns the byte size.
func (st *Store) Save(s *Snapshot) (int64, error) {
	f, err := os.CreateTemp(st.dir, "."+s.Key+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("ckpt: %w", err)
	}
	tmp := f.Name()
	n, err := Encode(f, s)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, st.path(s.Key))
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return n, nil
}

// Load reads the snapshot for key. A missing snapshot returns
// (nil, nil); a corrupt one returns a *CorruptError.
func (st *Store) Load(key string) (*Snapshot, error) {
	f, err := os.Open(st.path(key))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, err
	}
	if s.Key != key {
		return nil, &CorruptError{Reason: fmt.Sprintf("key mismatch: file %s holds %s", key, s.Key)}
	}
	return s, nil
}

// Remove deletes the snapshot for key (no error when absent).
func (st *Store) Remove(key string) error {
	err := os.Remove(st.path(key))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// List describes every readable snapshot in the directory, newest
// first. Corrupt or foreign files are skipped, not errors: a listing
// must not fail because one snapshot is damaged.
func (st *Store) List() ([]Info, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var out []Info
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, fileExt) || strings.HasPrefix(name, ".") {
			continue
		}
		key := strings.TrimSuffix(name, fileExt)
		s, err := st.Load(key)
		if err != nil || s == nil {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, Info{
			Key:     s.Key,
			CTE:     s.CTE,
			Mode:    s.Mode,
			Round:   s.Round,
			Query:   s.Query,
			Size:    fi.Size(),
			ModTime: fi.ModTime(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ModTime.After(out[j].ModTime) })
	return out, nil
}
