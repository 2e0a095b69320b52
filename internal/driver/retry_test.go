package driver

import (
	"context"
	"database/sql"
	"errors"
	"testing"
	"time"

	"sqloop/internal/engine"
	"sqloop/internal/obs"
	"sqloop/internal/wire"
)

// retryTestServer serves a fresh engine over TCP and returns the DSN
// and address.
func retryTestServer(t *testing.T) (string, string) {
	t.Helper()
	eng := engine.New(engine.Config{})
	srv := wire.NewServer(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return TCPDSN(addr), addr
}

// fastRetry keeps test backoff under a millisecond per attempt.
var fastRetry = RetryPolicy{MaxAttempts: 4, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond}

func TestRetryTransientInjectedError(t *testing.T) {
	dsn, addr := retryTestServer(t)
	reg := obs.NewRegistry()
	Configure(dsn, Config{Metrics: reg, Retry: fastRetry})
	defer Configure(dsn, Config{})
	// Injected transient errors on ops 2 and 3: the INSERT should
	// succeed on its third try without the caller noticing.
	wire.SetAddrInjector(addr, wire.NewInjector(
		wire.Fault{AtOp: 2, Kind: wire.FaultErr},
		wire.Fault{AtOp: 3, Kind: wire.FaultErr},
	))
	defer wire.SetAddrInjector(addr, nil)

	db, err := sql.Open(DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)

	if _, err := db.Exec(`CREATE TABLE r (id BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO r VALUES (1)`); err != nil {
		t.Fatalf("retry did not absorb transient faults: %v", err)
	}
	var n int
	if err := db.QueryRow(`SELECT COUNT(*) FROM r`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("count = %d", n)
	}
	if got := reg.Counter("driver_retries_total").Value(); got < 2 {
		t.Fatalf("driver_retries_total = %d, want >= 2", got)
	}
}

func TestRetryDropBeforeSendReconnects(t *testing.T) {
	dsn, addr := retryTestServer(t)
	reg := obs.NewRegistry()
	Configure(dsn, Config{Metrics: reg, Retry: fastRetry})
	defer Configure(dsn, Config{})
	wire.SetAddrInjector(addr, wire.NewInjector(
		wire.Fault{AtOp: 2, Kind: wire.FaultDropBeforeSend},
	))
	defer wire.SetAddrInjector(addr, nil)

	db, err := sql.Open(DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)

	if _, err := db.Exec(`CREATE TABLE r (id BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	// The connection is killed before the request leaves the client;
	// the driver must redial and run the statement exactly once.
	if _, err := db.Exec(`INSERT INTO r VALUES (7)`); err != nil {
		t.Fatalf("reconnect retry failed: %v", err)
	}
	var n int
	if err := db.QueryRow(`SELECT COUNT(*) FROM r WHERE id = 7`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("statement ran %d times, want exactly 1", n)
	}
	if got := reg.Counter("driver_redials_total").Value(); got < 2 {
		t.Fatalf("driver_redials_total = %d, want >= 2 (initial dial + reconnect)", got)
	}
}

func TestDropAfterSendSurfacesConnLost(t *testing.T) {
	dsn, addr := retryTestServer(t)
	Configure(dsn, Config{Retry: fastRetry})
	defer Configure(dsn, Config{})
	wire.SetAddrInjector(addr, wire.NewInjector(
		wire.Fault{AtOp: 2, Kind: wire.FaultDropAfterSend},
	))
	defer wire.SetAddrInjector(addr, nil)

	db, err := sql.Open(DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)

	if _, err := db.Exec(`CREATE TABLE r (id BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	_, err = db.Exec(`INSERT INTO r VALUES (9)`)
	var cl *ConnLostError
	if !errors.As(err, &cl) {
		t.Fatalf("err = %v, want *ConnLostError", err)
	}
	var lost interface{ ConnLost() bool }
	if !errors.As(err, &lost) || !lost.ConnLost() {
		t.Fatal("ConnLostError does not satisfy the duck-typed ConnLost interface")
	}
	// The driver healed the connection: the next statement works, and
	// the lost INSERT was applied exactly once, never replayed. The
	// server handler applies the in-flight statement asynchronously, so
	// poll briefly before judging.
	var n int
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := db.QueryRow(`SELECT COUNT(*) FROM r WHERE id = 9`).Scan(&n); err != nil {
			t.Fatalf("connection not healed after ConnLost: %v", err)
		}
		if n == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n != 1 {
		t.Fatalf("lost statement applied %d times", n)
	}
}

func TestRetryExhaustionReturnsConnLost(t *testing.T) {
	dsn, addr := retryTestServer(t)
	Configure(dsn, Config{Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * time.Microsecond}})
	defer Configure(dsn, Config{})
	// Every attempt (and every redial) is dropped before sending; op 1
	// is spared for the CREATE below.
	faults := make([]wire.Fault, 0, 28)
	for op := int64(2); op < 30; op++ {
		faults = append(faults, wire.Fault{AtOp: op, Kind: wire.FaultDropBeforeSend})
	}
	wire.SetAddrInjector(addr, wire.NewInjector(faults...))
	defer wire.SetAddrInjector(addr, nil)

	db, err := sql.Open(DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)

	if _, err := db.Exec(`CREATE TABLE r (id BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	_, err = db.Exec(`INSERT INTO r VALUES (1)`)
	var lost interface{ ConnLost() bool }
	if !errors.As(err, &lost) {
		t.Fatalf("exhausted retries returned %v, want ConnLost error", err)
	}
}

func TestCloseDuringBackoffReturnsPromptly(t *testing.T) {
	_, addr := retryTestServer(t)
	// Every op is dropped before sending, so the first statement enters
	// the retry loop immediately.
	faults := make([]wire.Fault, 0, 50)
	for op := int64(1); op <= 50; op++ {
		faults = append(faults, wire.Fault{AtOp: op, Kind: wire.FaultDropBeforeSend})
	}
	wire.SetAddrInjector(addr, wire.NewInjector(faults...))
	defer wire.SetAddrInjector(addr, nil)

	// Hour-scale backoff: if Close failed to interrupt the sleeping
	// retry loop, the exec below would ride out the full backoff instead
	// of returning.
	e := newWireExec(addr, Config{}, RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Hour, MaxBackoff: time.Hour}, wire.WireVersion)
	errc := make(chan error, 1)
	go func() {
		_, err := e.exec(context.Background(), `SELECT 1`, nil)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the first attempt fail and the backoff start
	start := time.Now()
	_ = e.close()
	select {
	case err := <-errc:
		if !errors.Is(err, errConnClosed) {
			t.Fatalf("exec after close = %v, want errConnClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not interrupt the retry backoff")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("exec returned %v after close, want a prompt return", d)
	}
}

func TestPreparedReprepareAfterConnectionLoss(t *testing.T) {
	dsn, addr := retryTestServer(t)
	reg := obs.NewRegistry()
	Configure(dsn, Config{Metrics: reg, Retry: fastRetry})
	defer Configure(dsn, Config{})
	// Op schedule: 1 = CREATE, 2 = PREPARE, 3 = first EXEC_PREPARED,
	// 4 = second EXEC_PREPARED — killed before it reaches the server, so
	// the driver redials and the server-side handle dies with its
	// session. The injector must be attached before the first dial.
	wire.SetAddrInjector(addr, wire.NewInjector(
		wire.Fault{AtOp: 4, Kind: wire.FaultDropBeforeSend},
	))
	defer wire.SetAddrInjector(addr, nil)

	db, err := sql.Open(DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)

	if _, err := db.Exec(`CREATE TABLE r (id BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	st, err := db.Prepare(`INSERT INTO r VALUES (?)`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// First execution pins a server-side handle on this dial generation.
	if _, err := st.Exec(1); err != nil {
		t.Fatal(err)
	}
	// The handle must be re-prepared transparently on the healed
	// connection.
	if _, err := st.Exec(2); err != nil {
		t.Fatalf("prepared exec after connection loss: %v", err)
	}

	var n int
	if err := db.QueryRow(`SELECT COUNT(*) FROM r`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("count = %d, want 2 (re-prepared statement lost or replayed rows)", n)
	}
	if got := reg.Counter("driver_redials_total").Value(); got < 2 {
		t.Fatalf("driver_redials_total = %d, want >= 2 (initial dial + reconnect)", got)
	}
}

// TestBackoffNeverOverflows: with no MaxBackoff configured, the
// unbounded doubling used to overflow int64 into a negative duration at
// high attempt numbers, and the jitter draw (rand.Int63n over a
// negative bound) panicked inside the retry loop. The backoff must stay
// positive and bounded for every attempt count.
func TestBackoffNeverOverflows(t *testing.T) {
	policies := []RetryPolicy{
		{MaxAttempts: 200, BaseBackoff: 10 * time.Millisecond}, // no cap: the overflow case
		{MaxAttempts: 200},                         // all defaults zero
		{MaxAttempts: 200, BaseBackoff: time.Hour}, // base above the ceiling
		DefaultRetryPolicy,
	}
	for _, p := range policies {
		prev := time.Duration(0)
		for n := 1; n <= 200; n++ {
			d := p.backoff(n)
			if d <= 0 {
				t.Fatalf("policy %+v attempt %d: backoff %v, want > 0", p, n, d)
			}
			ceiling := p.MaxBackoff
			if ceiling <= 0 {
				ceiling = backoffCeiling
			}
			if d > ceiling {
				t.Fatalf("policy %+v attempt %d: backoff %v exceeds cap %v", p, n, d, ceiling)
			}
			if d < prev {
				t.Fatalf("policy %+v attempt %d: backoff %v decreased from %v", p, n, d, prev)
			}
			prev = d
		}
	}
	// The full sleep path (including the jitter draw) must not panic at
	// an attempt count that used to produce a negative doubled duration.
	// The draw happens before the timer, so a short context deadline
	// bounds the test without weakening the panic check.
	p := RetryPolicy{MaxAttempts: 100, BaseBackoff: time.Nanosecond}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := p.sleep(ctx, 100, nil); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("sleep at high attempt: %v", err)
	}
}

// TestBackoffMatchesLegacyForSaneConfigs: the clamp must not change the
// schedule of a policy with an explicit MaxBackoff.
func TestBackoffMatchesLegacyForSaneConfigs(t *testing.T) {
	p := fastRetry // 100µs base, 1ms cap
	want := []time.Duration{100 * time.Microsecond, 200 * time.Microsecond, 400 * time.Microsecond, 800 * time.Microsecond, time.Millisecond, time.Millisecond}
	for i, w := range want {
		if d := p.backoff(i + 1); d != w {
			t.Fatalf("backoff(%d) = %v, want %v", i+1, d, w)
		}
	}
}

func TestRemoteErrorsAreNotRetried(t *testing.T) {
	dsn, _ := retryTestServer(t)
	reg := obs.NewRegistry()
	Configure(dsn, Config{Metrics: reg, Retry: fastRetry})
	defer Configure(dsn, Config{})

	db, err := sql.Open(DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if _, err := db.Exec(`SELECT * FROM missing`); err == nil {
		t.Fatal("expected remote error")
	}
	if got := reg.Counter("driver_retries_total").Value(); got != 0 {
		t.Fatalf("remote execution error triggered %d retries", got)
	}
}
