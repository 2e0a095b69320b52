package main

// Tracing from outside the program. A database/sql driver registered
// here wraps the program's own driver and records one span per
// Prepare, Exec and Query plus one per result set read; an obs.Tracer
// turns the round, task, checkpoint and exchange events the middleware
// delivers to Options.Observer into spans. Spans stay in memory and are
// written to a file when the run ends. Only the traced instances use
// either: an untraced query runs on the program's own driver with no
// observer at all.

import (
	"bufio"
	"context"
	"database/sql"
	"database/sql/driver"
	"encoding/json"
	"errors"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	sqlsim "sqloop/internal/driver"
	"sqloop/internal/obs"
)

// spanDriverName is the database/sql name of the wrapping driver.
const spanDriverName = "perfbench-spans"

// span is one timed interval. IDs count spans from 1 in the order they
// were recorded; parent 0 marks a query's root span. Times are
// nanoseconds since the process started.
type span struct {
	Query  int    `json:"query"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Round  int    `json:"round,omitempty"`
	Shard  int    `json:"shard,omitempty"`
	Rows   int64  `json:"rows,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Busy   int64  `json:"busy_ns,omitempty"`
}

// recorder collects spans and the counts that go with them. Worker
// connections and partition tasks report from several goroutines.
type recorder struct {
	mu    sync.Mutex
	query int // the traced query in flight; 0 records nothing
	root  int // the index of its root span in spans
	spans []span

	// Per-query tallies, reset by begin.
	stmtDur   []time.Duration // each Exec/Query span
	stmtBusy  time.Duration   // every driver call span, plus row reads
	execs     int64           // statements run: Exec, Query and Begin calls
	requests  int64           // calls that put a frame on the wire
	rounds    int
	taskTime  time.Duration
	barrier   time.Duration
	ckptSaves int64
	ckptTime  time.Duration
	ckptBytes int64
	exchTime  time.Duration
	exchRows  int64
}

func (r *recorder) since(t time.Time) int64 { return t.Sub(processStart).Nanoseconds() }

// begin opens the root span of traced query q and resets the tallies.
func (r *recorder) begin(q int, at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.query = q
	r.root = len(r.spans)
	r.spans = append(r.spans, span{Query: q, ID: r.root + 1, Name: "query", Start: r.since(at)})
	r.stmtDur = r.stmtDur[:0]
	r.stmtBusy, r.execs, r.requests = 0, 0, 0
	r.rounds, r.taskTime, r.barrier = 0, 0, 0
	r.ckptSaves, r.ckptTime, r.ckptBytes = 0, 0, 0
	r.exchTime, r.exchRows = 0, 0
}

// end closes the root span and stops recording.
func (r *recorder) end(at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[r.root].End = r.since(at)
	r.query = 0
}

// add records a child span of the current query and reports whether a
// query is being traced. The caller holds r.mu.
func (r *recorder) add(s span) bool {
	if r.query == 0 {
		return false
	}
	s.Query, s.ID, s.Parent = r.query, len(r.spans)+1, r.root+1
	r.spans = append(r.spans, s)
	return true
}

// stmt records one driver call span of the given kind.
func (r *recorder) stmt(kind string, start, end time.Time, exec, request bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.add(span{Name: "stmt." + kind, Start: r.since(start), End: r.since(end)}) {
		return
	}
	d := end.Sub(start)
	r.stmtBusy += d
	if exec {
		r.execs++
		r.stmtDur = append(r.stmtDur, d)
	}
	if request {
		r.requests++
	}
}

// Emit implements obs.Tracer over the middleware's events. Event
// durations end at delivery, so each span is [now-duration, now].
func (r *recorder) Emit(ev obs.Event) {
	now := r.since(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	switch e := ev.(type) {
	case obs.RoundEnd:
		if r.add(span{Name: "round", Start: now - e.Duration.Nanoseconds(), End: now, Round: e.Round}) {
			r.rounds++
			r.barrier += e.MaxWorker - e.MinWorker
		}
	case obs.PartitionDone:
		if r.add(span{Name: "task." + e.Phase, Start: now - e.Duration.Nanoseconds(), End: now,
			Round: e.Round, Shard: e.Part}) {
			r.taskTime += e.Duration
		}
	case obs.Checkpoint:
		if r.add(span{Name: "checkpoint", Start: now - e.Elapsed.Nanoseconds(), End: now,
			Round: e.Round, Bytes: e.Bytes}) {
			r.ckptSaves++
			r.ckptTime += e.Elapsed
			r.ckptBytes += e.Bytes
		}
	case obs.ShardExchange:
		if r.add(span{Name: "exchange", Start: now - e.Duration.Nanoseconds(), End: now,
			Round: e.Round, Shard: e.Shard, Rows: e.Rows}) {
			r.exchTime += e.Duration
			r.exchRows += e.Rows
		}
	}
}

// driverTime is how much of the current query's root span the driver
// spans cover: the union of the call spans' intervals, so concurrent
// statements on two worker connections are not counted twice, plus the
// time spent reading rows. A result-set span also covers the caller's
// work between reads, so only its busy time counts.
func (r *recorder) driverTime() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var iv [][2]int64
	var reads int64
	for _, s := range r.spans[r.root+1:] {
		switch {
		case s.Name == "stmt.rows":
			reads += s.Busy
		case strings.HasPrefix(s.Name, "stmt."):
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, x := range iv {
		if x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	total += curE - curS
	return time.Duration(total + reads)
}

// writeFile writes every span as one JSON object per line.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// spans is the recorder every traced connection reports into; one
// process traces one workload.
var spans = &recorder{}

func init() { sql.Register(spanDriverName, spanDriver{}) }

// spanDriver opens the program's driver and wraps each connection.
type spanDriver struct{}

func (spanDriver) Open(dsn string) (driver.Conn, error) {
	start := time.Now()
	c, err := sqlsim.Driver{}.Open(dsn)
	if err != nil {
		return nil, err
	}
	// A wire connection opens with a protocol hello.
	spans.stmt("open", start, time.Now(), false, strings.HasPrefix(dsn, "sqlsim://tcp/"))
	inner, ok := c.(wrappedConn)
	if !ok {
		_ = c.Close()
		return nil, errors.New("perfbench: program driver connection lacks context execution")
	}
	return &spanConn{c: inner, wire: strings.HasPrefix(dsn, "sqlsim://tcp/")}, nil
}

// wrappedConn is what the program's driver connections implement.
type wrappedConn interface {
	driver.Conn
	driver.ExecerContext
	driver.QueryerContext
}

type spanConn struct {
	c    wrappedConn
	wire bool
}

func (c *spanConn) Prepare(query string) (driver.Stmt, error) {
	start := time.Now()
	st, err := c.c.Prepare(query)
	spans.stmt("prepare", start, time.Now(), false, false)
	if err != nil {
		return nil, err
	}
	inner, ok := st.(wrappedStmt)
	if !ok {
		_ = st.Close()
		return nil, errors.New("perfbench: program driver statement lacks context execution")
	}
	return &spanStmt{s: inner, wire: c.wire}, nil
}

func (c *spanConn) Close() error { return c.c.Close() }

func (c *spanConn) Begin() (driver.Tx, error) {
	start := time.Now()
	tx, err := c.c.Begin()
	spans.stmt("begin", start, time.Now(), true, true)
	return tx, err
}

func (c *spanConn) ExecContext(ctx context.Context, q string, args []driver.NamedValue) (driver.Result, error) {
	start := time.Now()
	res, err := c.c.ExecContext(ctx, q, args)
	spans.stmt("exec", start, time.Now(), true, true)
	return res, err
}

func (c *spanConn) QueryContext(ctx context.Context, q string, args []driver.NamedValue) (driver.Rows, error) {
	start := time.Now()
	rows, err := c.c.QueryContext(ctx, q, args)
	spans.stmt("query", start, time.Now(), true, true)
	if err != nil {
		return nil, err
	}
	return &spanRows{r: rows}, nil
}

// wrappedStmt is what the program's prepared statements implement.
type wrappedStmt interface {
	driver.Stmt
	driver.StmtExecContext
	driver.StmtQueryContext
}

// spanStmt is a prepared statement. Over the wire the program prepares
// lazily: the first execution sends a prepare frame too, and closing a
// statement that ran sends a release frame.
type spanStmt struct {
	s    wrappedStmt
	wire bool
	ran  bool
}

func (s *spanStmt) Close() error {
	start := time.Now()
	err := s.s.Close()
	spans.stmt("close", start, time.Now(), false, s.wire && s.ran)
	return err
}

func (s *spanStmt) NumInput() int { return s.s.NumInput() }

// Exec and Query are the pre-context forms; database/sql calls the
// context forms whenever a statement implements them.
func (s *spanStmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.ExecContext(context.Background(), named(args))
}

func (s *spanStmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.QueryContext(context.Background(), named(args))
}

func named(args []driver.Value) []driver.NamedValue {
	out := make([]driver.NamedValue, len(args))
	for i, a := range args {
		out[i] = driver.NamedValue{Ordinal: i + 1, Value: a}
	}
	return out
}

// firstRun counts the prepare frame a wire statement's first execution
// sends along.
func (s *spanStmt) firstRun() {
	if s.wire && !s.ran {
		spans.mu.Lock()
		if spans.query != 0 {
			spans.requests++
		}
		spans.mu.Unlock()
	}
	s.ran = true
}

func (s *spanStmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	start := time.Now()
	res, err := s.s.ExecContext(ctx, args)
	spans.stmt("exec", start, time.Now(), true, true)
	s.firstRun()
	return res, err
}

func (s *spanStmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	start := time.Now()
	rows, err := s.s.QueryContext(ctx, args)
	spans.stmt("query", start, time.Now(), true, true)
	s.firstRun()
	if err != nil {
		return nil, err
	}
	return &spanRows{r: rows}, nil
}

// spanRows times row reads: one span per result set, from the first
// read to the last, carrying the time spent inside Next.
type spanRows struct {
	r           driver.Rows
	first, last time.Time
	busy        time.Duration
	n           int64
	done        bool
}

func (r *spanRows) Columns() []string { return r.r.Columns() }

func (r *spanRows) Next(dest []driver.Value) error {
	start := time.Now()
	err := r.r.Next(dest)
	end := time.Now()
	if r.first.IsZero() {
		r.first = start
	}
	r.last = end
	r.busy += end.Sub(start)
	if err == nil {
		r.n++
	}
	if errors.Is(err, io.EOF) {
		r.flush()
	}
	return err
}

func (r *spanRows) Close() error {
	r.flush()
	return r.r.Close()
}

func (r *spanRows) flush() {
	if r.done || r.first.IsZero() {
		return
	}
	r.done = true
	spans.mu.Lock()
	defer spans.mu.Unlock()
	if spans.add(span{Name: "stmt.rows", Start: spans.since(r.first), End: spans.since(r.last),
		Rows: r.n, Busy: r.busy.Nanoseconds()}) {
		spans.stmtBusy += r.busy
	}
}
