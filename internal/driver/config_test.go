package driver

import (
	"context"
	"errors"
	"testing"
	"time"

	"sqloop/internal/obs"
	"sqloop/internal/wire"
)

func TestConfigureReplacesWholeEntry(t *testing.T) {
	const dsn = "sqlsim://tcp/example:1?cfgtest"
	reg := obs.NewRegistry()
	Configure(dsn, Config{
		Metrics:  reg,
		Retry:    RetryPolicy{MaxAttempts: 2},
		WireVer:  -1,
		Tenant:   "acme",
		Deadline: 250 * time.Millisecond,
	})
	defer Configure(dsn, Config{})
	got := configFor(dsn)
	if got.Metrics != reg || got.Retry.MaxAttempts != 2 || got.Tenant != "acme" || got.Deadline != 250*time.Millisecond {
		t.Fatalf("configFor = %+v", got)
	}
	if v := configFor(dsn).wireVer(); v != 0 {
		t.Fatalf("wireVer = %d, want 0 (negative WireVer forces JSON)", v)
	}
	// Replacing drops fields not restated — atomic, not merged.
	Configure(dsn, Config{Tenant: "other"})
	if got := configFor(dsn); got.Metrics != nil || got.Tenant != "other" {
		t.Fatalf("after replace: %+v", got)
	}
	Configure(dsn, Config{})
	if got := configFor(dsn); got != (Config{}) {
		t.Fatalf("zero Config should delete the entry, got %+v", got)
	}
}

func TestDSNParamsParse(t *testing.T) {
	cfg := Config{}
	target, err := applyDSNParams("127.0.0.1:9999?tenant=acme&deadline=300ms", &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if target != "127.0.0.1:9999" || cfg.Tenant != "acme" || cfg.Deadline != 300*time.Millisecond {
		t.Fatalf("target=%q cfg=%+v", target, cfg)
	}
	// Configure-set fields win over DSN parameters.
	cfg = Config{Tenant: "explicit", Deadline: time.Second}
	if _, err := applyDSNParams("h:1?tenant=param&deadline=1ms", &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Tenant != "explicit" || cfg.Deadline != time.Second {
		t.Fatalf("params overrode Configure: %+v", cfg)
	}
	if _, err := applyDSNParams("h:1?bogus=1", &cfg); err == nil {
		t.Fatal("unknown DSN parameter accepted")
	}
	cfg = Config{}
	if _, err := applyDSNParams("h:1?deadline=notaduration", &cfg); err == nil {
		t.Fatal("malformed deadline accepted")
	}
}

func TestTenantDSN(t *testing.T) {
	got := TenantDSN(TCPDSN("127.0.0.1:4000"), "a b", 300*time.Millisecond)
	want := "sqlsim://tcp/127.0.0.1:4000?tenant=a+b&deadline=300ms"
	if got != want {
		t.Fatalf("TenantDSN = %q, want %q", got, want)
	}
	if got := TenantDSN("sqlsim://tcp/h:1?tenant=x", "", time.Second); got != "sqlsim://tcp/h:1?tenant=x&deadline=1s" {
		t.Fatalf("TenantDSN append = %q", got)
	}
}

// TestCtxCancelDuringBackoffReturnsPromptly is the satellite bug fix's
// regression test: a context cancelled mid-backoff must abort the
// hour-scale sleep instead of riding it out.
func TestCtxCancelDuringBackoffReturnsPromptly(t *testing.T) {
	_, addr := retryTestServer(t)
	faults := make([]wire.Fault, 0, 50)
	for op := int64(1); op <= 50; op++ {
		faults = append(faults, wire.Fault{AtOp: op, Kind: wire.FaultDropBeforeSend})
	}
	wire.SetAddrInjector(addr, wire.NewInjector(faults...))
	defer wire.SetAddrInjector(addr, nil)

	e := newWireExec(addr, Config{}, RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Hour, MaxBackoff: time.Hour}, wire.WireVersion)
	defer e.close()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.exec(ctx, `SELECT 1`, nil)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // first attempt fails, backoff starts
	start := time.Now()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("exec after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ctx cancellation did not interrupt the retry backoff")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("exec returned %v after cancel, want a prompt return", d)
	}
}
