package driver

import (
	"context"
	"math/rand"
	"time"
)

// This file is the driver's fault-tolerance layer. The wire client
// classifies every transport failure (wire.OpError.Sent); this layer
// turns that classification into policy: requests that provably never
// reached the server are retried transparently on a fresh connection
// with exponential backoff, while requests that may have executed
// server-side surface as ConnLostError so core's checkpoint recovery
// can decide — the driver must never re-execute a possibly-applied
// statement.

// RetryPolicy bounds the driver's transparent dial/exec retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries for one statement or
	// dial, including the first. Values below 1 mean 1 (no retry).
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry; each subsequent
	// retry doubles it (plus up to 50% jitter) up to MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the per-retry sleep.
	MaxBackoff time.Duration
}

// DefaultRetryPolicy is used for wire DSNs without a Config.Retry
// override: four tries over roughly a tenth of a second, enough to
// ride out an engine restart without stalling a failed cluster.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts: 4,
	BaseBackoff: 10 * time.Millisecond,
	MaxBackoff:  250 * time.Millisecond,
}

// attempts normalizes MaxAttempts.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoffCeiling caps the doubling when the policy sets no MaxBackoff.
// Without a cap, enough doublings overflow int64 into a negative
// duration, and the jitter draw below panics (rand.Int63n requires a
// positive bound).
const backoffCeiling = time.Minute

// backoff computes the deterministic (pre-jitter) sleep before retry
// number n (1-based): BaseBackoff doubled per retry, clamped to
// MaxBackoff — or to backoffCeiling when the policy leaves MaxBackoff
// unset, so high attempt counts can never overflow the doubling.
func (p RetryPolicy) backoff(n int) time.Duration {
	d := p.BaseBackoff
	if d <= 0 {
		d = DefaultRetryPolicy.BaseBackoff
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = backoffCeiling
	}
	for i := 1; i < n && d < max; i++ {
		d *= 2
		if d <= 0 || d >= max {
			// d <= 0 is int64 overflow wrapping negative.
			d = max
			break
		}
	}
	if d > max {
		d = max
	}
	return d
}

// sleep blocks for the backoff of retry number n (1-based), doubling
// from BaseBackoff and adding up to 50% jitter so a pool of
// reconnecting workers does not stampede the engine in lockstep. The
// wait aborts early — returning errConnClosed or ctx.Err() — when the
// connection closes or the caller's context is done: a cancelled
// statement must not ride out its backoff window before noticing.
func (p RetryPolicy) sleep(ctx context.Context, n int, done <-chan struct{}) error {
	d := p.backoff(n)
	if j := int64(d)/2 + 1; j > 0 {
		d += time.Duration(rand.Int63n(j))
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-done:
		return errConnClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ConnLostError reports a statement whose request reached the engine
// but whose outcome is unknown (the connection died before the
// response). The driver has already re-established the connection for
// whatever the caller does next; re-running the lost statement is the
// caller's call, because it may have been applied. Core's checkpoint
// recovery detects this error through the ConnLost method (duck-typed
// via errors.As, keeping core free of a driver import).
type ConnLostError struct {
	// Err is the underlying transport failure.
	Err error
}

// Error implements error.
func (e *ConnLostError) Error() string {
	return "driver: connection lost with statement outcome unknown: " + e.Err.Error()
}

// Unwrap exposes the transport failure.
func (e *ConnLostError) Unwrap() error { return e.Err }

// ConnLost marks the error for duck-typed detection by higher layers.
func (e *ConnLostError) ConnLost() bool { return true }
