// Package driver exposes the embedded engine (in-process or over the
// wire protocol) through database/sql — Go's equivalent of the JDBC
// layer the paper's middleware is built on. SQLoop issues every
// statement through database/sql connections and never touches engine
// internals.
//
// DSN forms:
//
//	sqlsim://inproc/<handle>   — engine previously registered with RegisterEngine
//	sqlsim://tcp/<host:port>   — remote engine served by internal/wire
package driver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"net/url"
	"strings"
	"sync"
	"time"

	"sqloop/internal/engine"
	"sqloop/internal/obs"
	"sqloop/internal/sqltypes"
	"sqloop/internal/wire"
)

// DriverName is the name registered with database/sql.
const DriverName = "sqlsim"

// engines is the in-process handle registry used by inproc DSNs.
// A mutable global is required here: database/sql resolves drivers by
// string DSN, so there must be a process-wide name → engine mapping.
var engines = struct {
	sync.RWMutex
	m map[string]*engine.Engine
}{m: make(map[string]*engine.Engine)}

// RegisterEngine makes eng reachable at sqlsim://inproc/<handle>.
// Re-registering a handle replaces the previous engine.
func RegisterEngine(handle string, eng *engine.Engine) {
	engines.Lock()
	defer engines.Unlock()
	engines.m[handle] = eng
}

// UnregisterEngine removes a handle.
func UnregisterEngine(handle string) {
	engines.Lock()
	defer engines.Unlock()
	delete(engines.m, handle)
}

// NewConnector returns a database/sql connector whose connections to
// dsn use cfg rather than the DSN's Configure entry, so two handles on
// one DSN keep their own settings (their metrics registries above all).
// Query parameters in dsn fill fields cfg leaves empty, as in Open.
func NewConnector(dsn string, cfg Config) driver.Connector {
	return &dsnConnector{dsn: dsn, cfg: cfg}
}

type dsnConnector struct {
	dsn string
	cfg Config
}

func (c *dsnConnector) Connect(context.Context) (driver.Conn, error) {
	return open(c.dsn, c.cfg)
}

func (c *dsnConnector) Driver() driver.Driver { return Driver{} }

// engineConnector is a dsnConnector that also owns the in-process
// engine behind its DSN; see OwnEngine.
type engineConnector struct {
	dsnConnector
	handle string
	eng    *engine.Engine
}

// OwnEngine registers eng under handle and returns a connector whose
// connections reach it with cfg: closing the *sql.DB opened over it
// with sql.OpenDB closes the engine and unregisters the handle. The
// connections are the ones Open would make for InprocDSN(handle), so
// the DSN stays the engine's identity.
func OwnEngine(handle string, eng *engine.Engine, cfg Config) driver.Connector {
	RegisterEngine(handle, eng)
	return &engineConnector{dsnConnector: dsnConnector{dsn: InprocDSN(handle), cfg: cfg}, handle: handle, eng: eng}
}

// Close runs once, from sql.DB.Close, after the pool's connections are
// closed.
func (c *engineConnector) Close() error {
	UnregisterEngine(c.handle)
	return c.eng.Close()
}

// InprocDSN returns the DSN for a registered engine handle.
func InprocDSN(handle string) string { return "sqlsim://inproc/" + handle }

// TCPDSN returns the DSN for a remote engine at addr.
func TCPDSN(addr string) string { return "sqlsim://tcp/" + addr }

// TenantDSN appends tenant (and a per-statement deadline, when
// positive) as DSN query parameters. Two tenants sharing one server
// address need distinct DSN strings so database/sql pools their
// connections separately, which is exactly what query parameters give:
//
//	sqlsim://tcp/127.0.0.1:4000?tenant=acme&deadline=300ms
func TenantDSN(dsn, tenant string, deadline time.Duration) string {
	sep := "?"
	if strings.Contains(dsn, "?") {
		sep = "&"
	}
	out := dsn
	if tenant != "" {
		out += sep + "tenant=" + url.QueryEscape(tenant)
		sep = "&"
	}
	if deadline > 0 {
		out += sep + "deadline=" + url.QueryEscape(deadline.String())
	}
	return out
}

// Driver implements database/sql/driver.Driver.
type Driver struct{}

var (
	_ driver.Driver = Driver{}

	registerOnce sync.Once
)

// init registers the driver with database/sql (the canonical pluggable-
// hook use of init).
func init() {
	registerOnce.Do(func() { sql.Register(DriverName, Driver{}) })
}

// Open creates one connection for the DSN. The DSN may carry
// tenant=<id> and deadline=<duration> query parameters; an explicit
// Configure for the same DSN string takes precedence field by field.
func (Driver) Open(dsn string) (driver.Conn, error) {
	return open(dsn, configFor(dsn))
}

// open creates one connection for the DSN under cfg.
func open(dsn string, cfg Config) (driver.Conn, error) {
	rest, ok := strings.CutPrefix(dsn, "sqlsim://")
	if !ok {
		return nil, fmt.Errorf("driver: DSN %q must start with sqlsim://", dsn)
	}
	kind, target, ok := strings.Cut(rest, "/")
	if !ok {
		return nil, fmt.Errorf("driver: DSN %q missing target", dsn)
	}
	target, err := applyDSNParams(target, &cfg)
	if err != nil {
		return nil, fmt.Errorf("driver: DSN %q: %w", dsn, err)
	}
	switch kind {
	case "inproc":
		engines.RLock()
		eng := engines.m[target]
		engines.RUnlock()
		if eng == nil {
			return nil, fmt.Errorf("driver: no engine registered as %q", target)
		}
		return newConn(&inprocExec{sess: eng.NewSession()}, cfg.Metrics), nil
	case "tcp":
		e := newWireExec(target, cfg, cfg.retry(), cfg.wireVer())
		if err := e.dialRetry(context.Background()); err != nil {
			return nil, err
		}
		return newConn(e, cfg.Metrics), nil
	default:
		return nil, fmt.Errorf("driver: unknown DSN scheme %q", kind)
	}
}

// applyDSNParams strips the query part off a DSN target and merges the
// recognized parameters into cfg (Configure-set fields win).
func applyDSNParams(target string, cfg *Config) (string, error) {
	target, query, ok := strings.Cut(target, "?")
	if !ok {
		return target, nil
	}
	vals, err := url.ParseQuery(query)
	if err != nil {
		return "", err
	}
	for key := range vals {
		switch key {
		case "tenant", "deadline":
		default:
			return "", fmt.Errorf("unknown DSN parameter %q", key)
		}
	}
	if cfg.Tenant == "" {
		cfg.Tenant = vals.Get("tenant")
	}
	if cfg.Deadline == 0 {
		if s := vals.Get("deadline"); s != "" {
			d, err := time.ParseDuration(s)
			if err != nil {
				return "", fmt.Errorf("deadline parameter: %w", err)
			}
			cfg.Deadline = d
		}
	}
	return target, nil
}

// executor abstracts the two transports. All execution is
// context-first: the wire transport carries the context's deadline to
// the server and aborts retry backoffs on cancellation; the inproc
// transport checks the context at statement boundaries (engine
// statements themselves are not interruptible).
type executor interface {
	exec(ctx context.Context, sql string, args []sqltypes.Value) (*engine.Result, error)
	prepare(sql string) (prepared, error)
	close() error
}

// prepared is one prepared statement on an executor.
type prepared interface {
	exec(ctx context.Context, args []sqltypes.Value) (*engine.Result, error)
	close() error
}

// errConnClosed reports an operation aborted because the connection
// was closed, possibly while a retry backoff was still pending.
var errConnClosed = errors.New("driver: connection closed")

type inprocExec struct{ sess *engine.Session }

func (e *inprocExec) exec(ctx context.Context, sql string, args []sqltypes.Value) (*engine.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.sess.Exec(sql, args...)
}

func (e *inprocExec) prepare(sql string) (prepared, error) {
	id, err := e.sess.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return &inprocPrepared{sess: e.sess, id: id}, nil
}
func (e *inprocExec) close() error { return nil }

// inprocPrepared pins a parsed statement in the engine session.
type inprocPrepared struct {
	sess *engine.Session
	id   int64
}

func (p *inprocPrepared) exec(ctx context.Context, args []sqltypes.Value) (*engine.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p.sess.ExecPrepared(p.id, args)
}
func (p *inprocPrepared) close() error { return p.sess.ClosePrepared(p.id) }

// wireExec is the remote transport with the retry layer on top: dial
// failures and never-sent requests retry with backoff on a fresh
// connection; sent-but-unanswered requests surface as ConnLostError
// (see retry.go). database/sql serves a conn to one goroutine at a
// time, but Close may arrive from another goroutine while a backoff
// sleep is pending, so the client pointer is mutex-guarded and the
// closed channel interrupts any sleeping retry loop.
type wireExec struct {
	mu  sync.Mutex
	cl  *wire.Client
	gen uint64 // dial generation; prepared handles are valid for one gen

	addr     string
	reg      *obs.Registry
	policy   RetryPolicy
	maxVer   int
	tenant   string
	deadline time.Duration

	closeOnce sync.Once
	closed    chan struct{}
}

func newWireExec(addr string, cfg Config, policy RetryPolicy, maxVer int) *wireExec {
	return &wireExec{
		addr:     addr,
		reg:      cfg.Metrics,
		policy:   policy,
		maxVer:   maxVer,
		tenant:   cfg.Tenant,
		deadline: cfg.Deadline,
		closed:   make(chan struct{}),
	}
}

func (e *wireExec) isClosed() bool {
	select {
	case <-e.closed:
		return true
	default:
		return false
	}
}

// client returns the live wire client, nil when disconnected.
func (e *wireExec) client() *wire.Client {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cl
}

// generation reports the current dial generation; it changes whenever
// dialRetry establishes a fresh connection, invalidating every
// server-side prepared handle from earlier generations.
func (e *wireExec) generation() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gen
}

// dropClient discards cl if it is still current (a failed request whose
// statement never reached the engine).
func (e *wireExec) dropClient(cl *wire.Client) {
	e.mu.Lock()
	if e.cl == cl {
		e.cl = nil
	}
	e.mu.Unlock()
	_ = cl.Close()
}

// dialRetry (re)connects under the retry policy. ctx aborts a pending
// backoff sleep; it does not bound the dial itself.
func (e *wireExec) dialRetry(ctx context.Context) error {
	e.mu.Lock()
	if e.cl != nil {
		_ = e.cl.Close()
		e.cl = nil
	}
	e.mu.Unlock()
	dialVer := e.maxVer
	if dialVer < 1 {
		dialVer = -1 // wire.DialOpts convention: negative forces JSON
	}
	var lastErr error
	for attempt := 1; attempt <= e.policy.attempts(); attempt++ {
		if attempt > 1 {
			if e.reg != nil {
				e.reg.Counter("driver_retries_total").Inc()
			}
			if err := e.policy.sleep(ctx, attempt-1, e.closed); err != nil {
				return err
			}
		}
		if e.isClosed() {
			return errConnClosed
		}
		cl, err := wire.DialOpts(e.addr, wire.DialOptions{
			MaxVer:   dialVer,
			Tenant:   e.tenant,
			Deadline: e.deadline,
		})
		if err != nil {
			lastErr = err
			continue
		}
		if e.reg != nil {
			cl.SetMetrics(e.reg)
			e.reg.Counter("driver_redials_total").Inc()
		}
		e.mu.Lock()
		if e.isClosed() {
			// Closed while dialing: don't resurrect the connection.
			e.mu.Unlock()
			_ = cl.Close()
			return errConnClosed
		}
		e.cl = cl
		e.gen++
		e.mu.Unlock()
		return nil
	}
	return lastErr
}

func (e *wireExec) exec(ctx context.Context, sql string, args []sqltypes.Value) (*engine.Result, error) {
	return e.withRetry(ctx, func(cl *wire.Client) (*engine.Result, error) {
		return cl.ExecContext(ctx, sql, args...)
	})
}

func (e *wireExec) prepare(sql string) (prepared, error) {
	// Lazy: the PREPARE frame goes out with the first execution, so a
	// handle prepared just before a connection failure costs nothing.
	return &wirePrepared{e: e, sql: sql}, nil
}

// withRetry runs one logical statement through the retry policy:
// dialing if disconnected, classifying transport failures via
// wire.OpError.Sent, and retrying never-sent requests on a fresh
// connection. Sent-but-unanswered requests heal the connection and
// surface as ConnLostError (only a layer with checkpoints may rerun a
// possibly-applied statement). Admission rejections are also retried —
// the server provably never ran the statement — and surface typed
// (*serve.AdmissionError) when the attempts run out, so callers can
// classify them with errors.Is. Backoff sleeps abort on ctx
// cancellation as well as on Close.
func (e *wireExec) withRetry(ctx context.Context, op func(cl *wire.Client) (*engine.Result, error)) (*engine.Result, error) {
	var lastErr error
	for attempt := 1; attempt <= e.policy.attempts(); attempt++ {
		if attempt > 1 {
			if e.reg != nil {
				e.reg.Counter("driver_retries_total").Inc()
			}
			if err := e.policy.sleep(ctx, attempt-1, e.closed); err != nil {
				return nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if e.isClosed() {
			return nil, errConnClosed
		}
		cl := e.client()
		if cl == nil {
			if err := e.dialRetry(ctx); err != nil {
				lastErr = err
				continue
			}
			cl = e.client()
			if cl == nil {
				return nil, errConnClosed
			}
		}
		res, err := op(cl)
		if err == nil {
			return res, nil
		}
		if isAdmissionRejected(err) {
			// Backpressure, not failure: the connection is healthy and
			// the statement never ran. Back off and resubmit.
			if e.reg != nil {
				e.reg.Counter("driver_admission_rejections_total").Inc()
			}
			lastErr = err
			continue
		}
		var oe *wire.OpError
		if !errors.As(err, &oe) {
			return nil, err // remote execution error, not a transport failure
		}
		if oe.Sent {
			// The statement may have executed server-side. Heal the
			// connection for the caller's next statement, but do not
			// re-execute: only a layer with checkpoints can recover.
			_ = e.dialRetry(ctx)
			return nil, &ConnLostError{Err: err}
		}
		// The request never reached the engine: retrying is safe.
		e.dropClient(cl)
		lastErr = err
	}
	if isAdmissionRejected(lastErr) {
		return nil, lastErr // typed: callers match serve.ErrAdmissionRejected
	}
	return nil, &ConnLostError{Err: lastErr}
}

// isAdmissionRejected duck-types serve.AdmissionError without naming
// the concrete type, mirroring how core detects ConnLostError.
func isAdmissionRejected(err error) bool {
	var ar interface{ AdmissionRejected() bool }
	return errors.As(err, &ar) && ar.AdmissionRejected()
}

func (e *wireExec) close() error {
	e.closeOnce.Do(func() { close(e.closed) })
	e.mu.Lock()
	cl := e.cl
	e.cl = nil
	e.mu.Unlock()
	if cl == nil {
		return nil
	}
	return cl.Close()
}

// wirePrepared is a prepared handle over the wire transport. The
// server-side handle lives in the per-connection session, so it dies
// whenever the connection does; the handle is therefore keyed to the
// wireExec dial generation and re-prepared transparently the first
// time it runs after the retry/recovery path has healed the
// connection.
type wirePrepared struct {
	e      *wireExec
	sql    string
	handle int64
	gen    uint64 // 0 = not yet prepared (dial generations start at 1)
}

func (p *wirePrepared) exec(ctx context.Context, args []sqltypes.Value) (*engine.Result, error) {
	return p.e.withRetry(ctx, func(cl *wire.Client) (*engine.Result, error) {
		if gen := p.e.generation(); p.gen != gen {
			h, err := cl.Prepare(p.sql)
			if err != nil {
				return nil, err
			}
			p.handle, p.gen = h, gen
		}
		return cl.ExecPreparedContext(ctx, p.handle, args...)
	})
}

func (p *wirePrepared) close() error {
	if p.gen == 0 || p.gen != p.e.generation() {
		return nil // never prepared, or the handle died with its connection
	}
	if cl := p.e.client(); cl != nil {
		_ = cl.ClosePrepared(p.handle) // best-effort release
	}
	return nil
}

// conn is one database/sql connection.
type conn struct {
	exec executor
	// per-statement instruments, nil without a Config.Metrics registry
	stmtCount   *obs.Counter
	stmtLatency *obs.Histogram
}

func newConn(e executor, reg *obs.Registry) *conn {
	c := &conn{exec: e}
	if reg != nil {
		c.stmtCount = reg.Counter("driver_statements_total")
		c.stmtLatency = reg.Histogram("driver_statement_seconds")
	}
	return c
}

var (
	_ driver.Conn           = (*conn)(nil)
	_ driver.ExecerContext  = (*conn)(nil)
	_ driver.QueryerContext = (*conn)(nil)
)

// Prepare creates a real prepared statement: inproc handles pin the
// parsed statement in the engine session (through the engine's
// statement cache), wire handles prepare server-side on first
// execution and transparently re-prepare after the retry/recovery
// path heals the connection.
func (c *conn) Prepare(query string) (driver.Stmt, error) {
	ps, err := c.exec.prepare(query)
	if err != nil {
		return nil, err
	}
	return &stmt{c: c, query: query, ps: ps}, nil
}

// Close releases the underlying session/connection.
func (c *conn) Close() error { return c.exec.close() }

// Begin starts an explicit transaction.
func (c *conn) Begin() (driver.Tx, error) {
	if _, err := c.exec.exec(context.Background(), "BEGIN", nil); err != nil {
		return nil, err
	}
	return &tx{c: c}, nil
}

// ExecContext implements direct execution without Prepare.
func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	res, err := c.run(ctx, query, args)
	if err != nil {
		return nil, err
	}
	return execResult{n: res.RowsAffected}, nil
}

// QueryContext implements direct querying without Prepare.
func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	res, err := c.run(ctx, query, args)
	if err != nil {
		return nil, err
	}
	return &rows{res: res}, nil
}

func (c *conn) run(ctx context.Context, query string, args []driver.NamedValue) (*engine.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	vals := make([]sqltypes.Value, len(args))
	for i, a := range args {
		v, err := sqltypes.FromGo(a.Value)
		if err != nil {
			return nil, fmt.Errorf("driver: arg %d: %w", i+1, err)
		}
		vals[i] = v
	}
	if c.stmtLatency == nil {
		return c.exec.exec(ctx, query, vals)
	}
	start := time.Now()
	res, err := c.exec.exec(ctx, query, vals)
	c.stmtCount.Inc()
	c.stmtLatency.Observe(time.Since(start))
	return res, err
}

type tx struct{ c *conn }

func (t *tx) Commit() error {
	_, err := t.c.exec.exec(context.Background(), "COMMIT", nil)
	return err
}

func (t *tx) Rollback() error {
	_, err := t.c.exec.exec(context.Background(), "ROLLBACK", nil)
	return err
}

type stmt struct {
	c     *conn
	query string
	ps    prepared
}

var (
	_ driver.Stmt             = (*stmt)(nil)
	_ driver.StmtExecContext  = (*stmt)(nil)
	_ driver.StmtQueryContext = (*stmt)(nil)
)

func (s *stmt) Close() error  { return s.ps.close() }
func (s *stmt) NumInput() int { return -1 }

func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	res, err := s.run(context.Background(), args)
	if err != nil {
		return nil, err
	}
	return execResult{n: res.RowsAffected}, nil
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	res, err := s.run(context.Background(), args)
	if err != nil {
		return nil, err
	}
	return &rows{res: res}, nil
}

// ExecContext executes the prepared handle with the caller's context:
// its deadline reaches the server and its cancellation aborts retry
// backoffs, same as the unprepared path.
func (s *stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	res, err := s.run(ctx, namedValues(args))
	if err != nil {
		return nil, err
	}
	return execResult{n: res.RowsAffected}, nil
}

// QueryContext is ExecContext for queries.
func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	res, err := s.run(ctx, namedValues(args))
	if err != nil {
		return nil, err
	}
	return &rows{res: res}, nil
}

// namedValues flattens ordinal NamedValues to plain values (the driver
// does not support named parameters).
func namedValues(args []driver.NamedValue) []driver.Value {
	out := make([]driver.Value, len(args))
	for i, a := range args {
		out[i] = a.Value
	}
	return out
}

// run executes the prepared handle, converting args and reporting the
// same per-statement instruments as the unprepared path.
func (s *stmt) run(ctx context.Context, args []driver.Value) (*engine.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	vals := make([]sqltypes.Value, len(args))
	for i, a := range args {
		v, err := sqltypes.FromGo(a)
		if err != nil {
			return nil, fmt.Errorf("driver: arg %d: %w", i+1, err)
		}
		vals[i] = v
	}
	if s.c.stmtLatency == nil {
		return s.ps.exec(ctx, vals)
	}
	start := time.Now()
	res, err := s.ps.exec(ctx, vals)
	s.c.stmtCount.Inc()
	s.c.stmtLatency.Observe(time.Since(start))
	return res, err
}

type execResult struct{ n int64 }

func (r execResult) LastInsertId() (int64, error) {
	return 0, fmt.Errorf("driver: LastInsertId is not supported")
}
func (r execResult) RowsAffected() (int64, error) { return r.n, nil }

// rows adapts an engine result to driver.Rows.
type rows struct {
	res *engine.Result
	i   int
}

var _ driver.Rows = (*rows)(nil)

func (r *rows) Columns() []string {
	if len(r.res.Columns) == 0 && len(r.res.Rows) == 0 {
		return []string{}
	}
	return r.res.Columns
}

func (r *rows) Close() error { return nil }

func (r *rows) Next(dest []driver.Value) error {
	if r.i >= len(r.res.Rows) {
		return io.EOF
	}
	row := r.res.Rows[r.i]
	r.i++
	for j := range dest {
		if j < len(row) {
			dest[j] = row[j].GoValue()
		} else {
			dest[j] = nil
		}
	}
	return nil
}
