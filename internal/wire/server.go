package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"sqloop/internal/engine"
	"sqloop/internal/obs"
	"sqloop/internal/serve"
	"sqloop/internal/sqltypes"
)

// Server exposes an engine over TCP. Each accepted connection gets its
// own engine session, mirroring the one-process-per-connection behaviour
// SQLoop exploits for parallelism. With a session pool enabled
// (EnablePool), connections only hold sessions; statements execute on
// the pool's bounded workers under per-tenant admission control.
type Server struct {
	eng     *engine.Engine
	ln      net.Listener
	metrics *obs.Registry
	maxVer  int
	pool    *serve.Pool

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps an engine for network serving.
func NewServer(eng *engine.Engine) *Server {
	return &Server{
		eng:     eng,
		conns:   make(map[net.Conn]struct{}),
		metrics: obs.NewRegistry(),
		maxVer:  WireVersion,
	}
}

// SetMaxWireVersion caps the protocol version the server will
// negotiate; 0 forces JSON responses for every connection, emulating a
// pre-binary-codec server. Call before Listen.
func (s *Server) SetMaxWireVersion(v int) { s.maxVer = v }

// EnablePool routes every statement through a bounded serve.Pool:
// MaxSessions worker goroutines drain per-tenant queues round-robin,
// and submissions beyond a tenant's queue depth or admitted limit are
// rejected with CodeAdmissionRejected instead of piling up. A nil
// cfg.Metrics defaults to the server's registry. Call before Listen.
func (s *Server) EnablePool(cfg serve.Config) {
	if cfg.Metrics == nil {
		cfg.Metrics = s.metrics
	}
	s.pool = serve.NewPool(cfg)
}

// Metrics returns the server's registry: wire_requests_total,
// wire_request_seconds (per-statement server-side latency),
// wire_bytes_read_total, wire_bytes_written_total and
// wire_connections_total accumulate while the server runs.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting in the
// background. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("wire server: %w", err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	sess := s.eng.NewSession()
	s.metrics.Counter("wire_connections_total").Inc()
	bytesIn := s.metrics.Counter("wire_bytes_read_total")
	bytesOut := s.metrics.Counter("wire_bytes_written_total")
	requests := s.metrics.Counter("wire_requests_total")
	latency := s.metrics.Histogram("wire_request_seconds")
	rowsEncoded := s.metrics.Counter("sqloop_wire_rows_encoded")
	bytesJSON := s.metrics.Counter("sqloop_wire_bytes_json")
	bytesBinary := s.metrics.Counter("sqloop_wire_bytes_binary")
	ver := 0 // protocol version for this connection, raised by OpHello
	tenant := serve.DefaultTenant
	for {
		var req Request
		n, err := readFrameTimed(conn, &req, DefaultFrameTimeout)
		bytesIn.Add(int64(n))
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				// Protocol error: answer once, then drop the connection.
				_ = WriteFrame(conn, &Response{Error: err.Error()})
			}
			return
		}
		requests.Inc()
		start := time.Now()
		var resp *Response
		var rows []sqltypes.Row
		if req.Op == OpHello {
			// Version negotiation: settle on the lower of the two peers.
			// The reply itself is always JSON so pre-binary clients could
			// at least parse an error. The hello also pins the session's
			// tenant for admission control.
			ver = min(req.WireVer, s.maxVer)
			if req.Tenant != "" {
				tenant = req.Tenant
			}
			resp = &Response{WireVer: ver}
		} else {
			resp, rows = s.dispatch(sess, &req, tenant)
		}
		latency.Observe(time.Since(start))
		_ = conn.SetWriteDeadline(time.Now().Add(DefaultFrameTimeout))
		var wn int
		if ver >= 1 && req.Op != OpHello && resp.Code == "" {
			// Count the rows before the reply leaves: a client that reads
			// the server's metrics after its last reply must see them.
			rowsEncoded.Add(int64(len(rows)))
			wn, err = writeRawFrameN(conn, AppendBinaryResponse(nil, resp, rows))
			bytesBinary.Add(int64(wn))
		} else {
			resp.Rows = toWireRows(rows)
			wn, err = WriteFrameN(conn, resp)
			bytesJSON.Add(int64(wn))
		}
		_ = conn.SetWriteDeadline(time.Time{})
		bytesOut.Add(int64(wn))
		if err != nil {
			return
		}
	}
}

// toWireRows converts engine rows to the JSON value encoding.
func toWireRows(rows []sqltypes.Row) [][]WireValue {
	if len(rows) == 0 {
		return nil
	}
	out := make([][]WireValue, len(rows))
	for i, row := range rows {
		wr := make([]WireValue, len(row))
		for j, v := range row {
			wr[j] = ToWire(v)
		}
		out[i] = wr
	}
	return out
}

// dispatch executes one statement under the session pool (when
// enabled) with the request's deadline as a context bound. Without a
// pool it degrades to direct execution, preserving pre-pool behaviour.
func (s *Server) dispatch(sess *engine.Session, req *Request, tenant string) (*Response, []sqltypes.Row) {
	ctx := context.Background()
	if req.DeadlineMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMillis)*time.Millisecond)
		defer cancel()
	}
	if s.pool == nil {
		return s.execute(ctx, sess, req)
	}
	var (
		resp *Response
		rows []sqltypes.Row
	)
	err := s.pool.Do(ctx, tenant, func(ctx context.Context) {
		resp, rows = s.execute(ctx, sess, req)
	})
	if err != nil {
		// The statement never ran: admission rejection, or the deadline
		// was spent entirely in the queue.
		return errorResponse(err), nil
	}
	return resp, rows
}

// errorResponse classifies a serving-layer error into a typed wire
// response so clients can reconstruct it (retry decisions depend on
// the class, not the message text).
func errorResponse(err error) *Response {
	var ae *serve.AdmissionError
	switch {
	case errors.As(err, &ae):
		return &Response{Error: err.Error(), Code: CodeAdmissionRejected, Reason: ae.Reason}
	case errors.Is(err, context.DeadlineExceeded):
		return &Response{Error: err.Error(), Code: CodeDeadlineExceeded}
	case errors.Is(err, context.Canceled):
		return &Response{Error: err.Error(), Code: CodeCanceled}
	default:
		return &Response{Error: err.Error()}
	}
}

// execute runs one request and returns the response shell plus any
// result rows. Rows stay as engine values so the negotiated codec —
// not this function — decides how they hit the wire. The context is
// checked at the statement boundary: engine statements themselves are
// not interruptible, so an expired deadline fails here rather than
// mid-execution.
func (s *Server) execute(ctx context.Context, sess *engine.Session, req *Request) (*Response, []sqltypes.Row) {
	if err := ctx.Err(); err != nil {
		return errorResponse(err), nil
	}
	args := make([]sqltypes.Value, len(req.Args))
	for i, wv := range req.Args {
		v, err := FromWire(wv)
		if err != nil {
			return &Response{Error: err.Error()}, nil
		}
		args[i] = v
	}
	var (
		res *engine.Result
		err error
	)
	switch req.Op {
	case OpExec:
		res, err = sess.Exec(req.SQL, args...)
	case OpPrepare:
		h, perr := sess.Prepare(req.SQL)
		if perr != nil {
			return &Response{Error: perr.Error()}, nil
		}
		return &Response{Handle: h}, nil
	case OpExecPrepared:
		res, err = sess.ExecPrepared(req.Handle, args)
	case OpClosePrepared:
		if cerr := sess.ClosePrepared(req.Handle); cerr != nil {
			return &Response{Error: cerr.Error()}, nil
		}
		return &Response{}, nil
	default:
		return &Response{Error: fmt.Sprintf("wire: unknown operation %q", req.Op)}, nil
	}
	if err != nil {
		return &Response{Error: err.Error()}, nil
	}
	return &Response{Columns: res.Columns, RowsAffected: res.RowsAffected}, res.Rows
}

// Close stops accepting, closes every live connection and waits for
// handler goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.wg.Wait()
	// Handlers are gone, so no new submissions: the pool drains what it
	// already accepted and stops.
	if s.pool != nil {
		s.pool.Close()
	}
	return err
}

// Client is one network connection speaking the wire protocol. It is
// not safe for concurrent use (use one per goroutine, as with JDBC
// connections).
type Client struct {
	conn         net.Conn
	metrics      *obs.Registry
	injector     *Injector
	frameTimeout time.Duration
	ver          int           // negotiated protocol version
	tenant       string        // tenant pinned at hello time
	deadline     time.Duration // default per-statement deadline
}

// WireVer reports the protocol version negotiated at dial time: 0 for
// JSON responses, 1 when the server streams binary row frames.
func (c *Client) WireVer() int { return c.ver }

// SetMetrics attaches a registry; the client then reports round-trips
// (wire_roundtrips_total), client-observed latency
// (wire_roundtrip_seconds) and traffic (wire_bytes_written_total /
// wire_bytes_read_total) into it. Pass nil to detach.
func (c *Client) SetMetrics(r *obs.Registry) { c.metrics = r }

// SetInjector attaches a fault injector to this client only (Dial
// already attaches any injector registered for the address).
func (c *Client) SetInjector(i *Injector) { c.injector = i }

// SetFrameTimeout bounds each frame transfer (a read or write of one
// request/response). Zero disables deadlines. The default is
// DefaultFrameTimeout.
func (c *Client) SetFrameTimeout(d time.Duration) { c.frameTimeout = d }

// DefaultFrameTimeout is the per-frame deadline clients and servers
// apply unless overridden: generous enough for the cost-model's
// simulated multi-second statements, short enough that a dead peer
// surfaces as an error instead of a hung coordinator.
const DefaultFrameTimeout = 2 * time.Minute

// DialOptions configures DialOpts.
type DialOptions struct {
	// MaxVer caps the negotiated protocol version. 0 means the build's
	// WireVersion; a negative value forces the version-0 JSON protocol.
	MaxVer int
	// Tenant identifies the connection to the server's admission
	// control; empty means serve.DefaultTenant.
	Tenant string
	// Deadline bounds each statement that executes without a
	// caller-supplied context deadline; 0 means none.
	Deadline time.Duration
}

// Dial connects to a wire server, attaching any injector registered
// for addr and negotiating the highest protocol version both peers
// speak.
func Dial(addr string) (*Client, error) {
	return DialOpts(addr, DialOptions{})
}

// DialVersion is Dial with the client's protocol version capped at
// maxVer; 0 skips negotiation entirely and behaves like a
// pre-binary-codec client.
func DialVersion(addr string, maxVer int) (*Client, error) {
	if maxVer < 1 {
		maxVer = -1
	}
	return DialOpts(addr, DialOptions{MaxVer: maxVer})
}

// DialOpts is Dial with explicit options: protocol cap, tenant
// identity (carried in the hello frame) and a default per-statement
// deadline.
func DialOpts(addr string, o DialOptions) (*Client, error) {
	maxVer := o.MaxVer
	switch {
	case maxVer == 0:
		maxVer = WireVersion
	case maxVer < 0:
		maxVer = 0
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, &OpError{Op: "dial", Err: fmt.Errorf("wire dial %s: %w", addr, err)}
	}
	c := &Client{
		conn:         conn,
		injector:     injectorFor(addr),
		frameTimeout: DefaultFrameTimeout,
		tenant:       o.Tenant,
		deadline:     o.Deadline,
	}
	// The hello both negotiates the version and registers the tenant,
	// so it is needed even for a JSON-only client that has a tenant.
	if maxVer >= 1 || o.Tenant != "" {
		if err := c.hello(maxVer); err != nil {
			_ = conn.Close()
			return nil, err
		}
	}
	return c, nil
}

// Tenant reports the tenant this connection identified as at dial
// time; empty means the server's default tenant.
func (c *Client) Tenant() string { return c.tenant }

// hello negotiates the protocol version. It deliberately bypasses
// roundTrip: the handshake is part of dialing, so fault injectors —
// which count application round trips — must not see it. An error
// reply (a server that predates OpHello) downgrades to version 0.
func (c *Client) hello(maxVer int) error {
	if c.frameTimeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.frameTimeout))
		defer func() { _ = c.conn.SetDeadline(time.Time{}) }()
	}
	if err := WriteFrame(c.conn, &Request{Op: OpHello, WireVer: maxVer, Tenant: c.tenant}); err != nil {
		return &OpError{Op: "hello", Err: err}
	}
	var resp Response
	if err := ReadFrame(c.conn, &resp); err != nil {
		return &OpError{Op: "hello", Sent: true, Err: err}
	}
	if resp.Error != "" {
		c.ver = 0 // old server: keep speaking JSON
		return nil
	}
	c.ver = min(resp.WireVer, maxVer)
	return nil
}

// Exec executes one statement remotely. Transport failures come back
// as *OpError; its Sent field tells retrying callers whether the
// request could have reached the server.
func (c *Client) Exec(sql string, args ...sqltypes.Value) (*engine.Result, error) {
	return c.ExecContext(context.Background(), sql, args...)
}

// ExecContext is Exec with the context's deadline carried to the
// server as the statement's DeadlineMillis budget (queue wait plus
// execution). A context without a deadline falls back to the
// connection's default deadline from DialOptions.
func (c *Client) ExecContext(ctx context.Context, sql string, args ...sqltypes.Value) (*engine.Result, error) {
	req := Request{SQL: sql}
	wireArgs(&req, args)
	return c.execCtx(ctx, &req)
}

// execCtx stamps the effective deadline onto req and round-trips it.
func (c *Client) execCtx(ctx context.Context, req *Request) (*engine.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req.DeadlineMillis = deadlineMillis(ctx, c.deadline)
	resp, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	return decodeResult(resp)
}

// deadlineMillis renders the tighter of the context deadline and the
// connection default as a wire millisecond budget; 0 means unbounded.
// Sub-millisecond remainders round up to 1ms so an almost-expired
// context still reaches the server as a deadline, not as "none".
func deadlineMillis(ctx context.Context, fallback time.Duration) int64 {
	d := fallback
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem < time.Millisecond {
			rem = time.Millisecond // expired/nearly-expired must not read as "none"
		}
		if d <= 0 || rem < d {
			d = rem
		}
	}
	if d <= 0 {
		return 0
	}
	ms := d.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// Prepare parses sql in the server-side session and returns a handle
// for ExecPrepared. The handle is valid only on this connection.
func (c *Client) Prepare(sql string) (int64, error) {
	resp, err := c.roundTrip(&Request{Op: OpPrepare, SQL: sql})
	if err != nil {
		return 0, err
	}
	return resp.Handle, nil
}

// ExecPrepared executes a prepared handle with bind args; the round
// trip carries only the handle and the values, no statement text.
func (c *Client) ExecPrepared(handle int64, args ...sqltypes.Value) (*engine.Result, error) {
	return c.ExecPreparedContext(context.Background(), handle, args...)
}

// ExecPreparedContext is ExecPrepared with the context's deadline
// carried to the server, as in ExecContext.
func (c *Client) ExecPreparedContext(ctx context.Context, handle int64, args ...sqltypes.Value) (*engine.Result, error) {
	req := Request{Op: OpExecPrepared, Handle: handle}
	wireArgs(&req, args)
	return c.execCtx(ctx, &req)
}

// ClosePrepared releases a server-side handle.
func (c *Client) ClosePrepared(handle int64) error {
	_, err := c.roundTrip(&Request{Op: OpClosePrepared, Handle: handle})
	return err
}

// wireArgs encodes bind values into the request.
func wireArgs(req *Request, args []sqltypes.Value) {
	if len(args) == 0 {
		return
	}
	req.Args = make([]WireValue, len(args))
	for i, v := range args {
		req.Args[i] = ToWire(v)
	}
}

// decodeResult converts a successful response into an engine result.
func decodeResult(resp *Response) (*engine.Result, error) {
	res := &engine.Result{Columns: resp.Columns, RowsAffected: resp.RowsAffected}
	if resp.binRows != nil {
		res.Rows = resp.binRows
		return res, nil
	}
	if len(resp.Rows) > 0 {
		res.Rows = make([]sqltypes.Row, len(resp.Rows))
		for i, wr := range resp.Rows {
			row := make(sqltypes.Row, len(wr))
			for j, wv := range wr {
				v, err := FromWire(wv)
				if err != nil {
					return nil, err
				}
				row[j] = v
			}
			res.Rows[i] = row
		}
	}
	return res, nil
}

// roundTrip sends one request frame and reads its response, applying
// injector faults, metrics and the OpError Sent classification shared
// by every operation.
func (c *Client) roundTrip(req *Request) (*Response, error) {
	dropAfterSend := false
	if c.injector != nil {
		if f := c.injector.next(); f != nil {
			switch f.Kind {
			case FaultDelay:
				time.Sleep(f.Delay)
			case FaultErr:
				return nil, &OpError{Op: "inject", Err: ErrInjected}
			case FaultDropBeforeSend:
				_ = c.conn.Close()
			case FaultDropAfterSend:
				dropAfterSend = true
			}
		}
	}
	start := time.Now()
	if c.frameTimeout > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(c.frameTimeout))
	}
	wn, err := WriteFrameN(c.conn, req)
	if c.frameTimeout > 0 {
		_ = c.conn.SetWriteDeadline(time.Time{})
	}
	if c.metrics != nil {
		c.metrics.Counter("wire_bytes_written_total").Add(int64(wn))
	}
	if err != nil {
		// A failed write means the server never saw a complete frame,
		// so the statement did not execute: safe to retry elsewhere.
		return nil, &OpError{Op: "write", Err: err}
	}
	if dropAfterSend {
		_ = c.conn.Close()
	}
	if c.frameTimeout > 0 {
		_ = c.conn.SetReadDeadline(time.Now().Add(c.frameTimeout))
	}
	payload, rn, err := readRawFrameN(c.conn)
	if c.frameTimeout > 0 {
		_ = c.conn.SetReadDeadline(time.Time{})
	}
	if c.metrics != nil {
		c.metrics.Counter("wire_bytes_read_total").Add(int64(rn))
		c.metrics.Counter("wire_roundtrips_total").Inc()
		c.metrics.Histogram("wire_roundtrip_seconds").Observe(time.Since(start))
	}
	if err != nil {
		// The request was sent; the statement may have executed even
		// though the response was lost. Not retryable at this layer.
		return nil, &OpError{Op: "read", Sent: true, Err: err}
	}
	resp, err := decodeResponsePayload(payload)
	if err != nil {
		return nil, &OpError{Op: "read", Sent: true, Err: err}
	}
	if resp.Error != "" {
		return nil, decodeError(resp, c.tenant)
	}
	return resp, nil
}

// decodeError reconstructs a typed error from a coded response, so
// errors.Is/As classification works identically for embedded and
// remote serving: admission rejections come back as *serve.
// AdmissionError, deadline and cancellation as the context sentinels.
func decodeError(resp *Response, tenant string) error {
	switch resp.Code {
	case CodeAdmissionRejected:
		if tenant == "" {
			tenant = serve.DefaultTenant
		}
		return &serve.AdmissionError{Tenant: tenant, Reason: resp.Reason}
	case CodeDeadlineExceeded:
		return fmt.Errorf("wire: server: %s: %w", resp.Error, context.DeadlineExceeded)
	case CodeCanceled:
		return fmt.Errorf("wire: server: %s: %w", resp.Error, context.Canceled)
	default:
		return errors.New(resp.Error)
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
