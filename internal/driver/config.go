package driver

import (
	"sync"
	"time"

	"sqloop/internal/obs"
	"sqloop/internal/wire"
)

// Config is the complete configuration of a connection. A connector
// (NewConnector, OwnEngine) carries its own; sql.Open by DSN string
// reads the process-wide entry Configure sets for that DSN. Configure
// replaces the whole entry atomically, so a reader can never observe a
// half-updated combination.
type Config struct {
	// Metrics receives per-statement counters and latency histograms
	// (driver_statements_total, driver_statement_seconds) plus, for
	// wire DSNs, round-trip and traffic instruments.
	Metrics *obs.Registry
	// Retry bounds transparent dial/exec retries for wire DSNs; the
	// zero value means DefaultRetryPolicy.
	Retry RetryPolicy
	// WireVer caps the negotiated wire protocol version: 0 means the
	// build's wire.WireVersion, negative forces the version-0 JSON
	// protocol.
	WireVer int
	// Tenant identifies connections to the server's admission control;
	// empty means the server's default tenant. A tenant=<id> DSN query
	// parameter fills this when the Config leaves it empty.
	Tenant string
	// Deadline bounds each statement issued without a context deadline
	// (queue wait plus execution, enforced server-side); 0 means none.
	// A deadline=<duration> DSN query parameter fills this when the
	// Config leaves it zero.
	Deadline time.Duration
}

// dsnConfigs is the process-wide DSN → Config map.
var dsnConfigs = struct {
	sync.RWMutex
	m map[string]Config
}{m: make(map[string]Config)}

// Configure sets the complete configuration for dsn in one atomic
// replacement. A zero Config removes the entry.
func Configure(dsn string, cfg Config) {
	dsnConfigs.Lock()
	defer dsnConfigs.Unlock()
	if cfg == (Config{}) {
		delete(dsnConfigs.m, dsn)
		return
	}
	dsnConfigs.m[dsn] = cfg
}

// ConfigFor reads the current configuration for dsn (zero Config if
// none) — read-modify-Configure lets callers adjust one field without
// clobbering the rest.
func ConfigFor(dsn string) Config { return configFor(dsn) }

// configFor reads the configuration for dsn (zero Config if none).
func configFor(dsn string) Config {
	dsnConfigs.RLock()
	defer dsnConfigs.RUnlock()
	return dsnConfigs.m[dsn]
}

// retry resolves the retry policy (the zero value means the default).
func (c Config) retry() RetryPolicy {
	if c.Retry != (RetryPolicy{}) {
		return c.Retry
	}
	return DefaultRetryPolicy
}

// wireVer resolves the wire protocol version cap.
func (c Config) wireVer() int {
	switch v := c.WireVer; {
	case v == 0:
		return wire.WireVersion
	case v < 0:
		return 0
	default:
		return v
	}
}
