package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// This file is the campaign engine's crash-only boundary. A simulator
// whose internal packages enforce their contracts with panic() —
// sched, membw, mavlink, the snapshot layer — must not let one
// violating run take down a million-run campaign, let alone the
// serving process above it. Every run executes inside protect(): a
// panic becomes a per-run failure record carrying the panic value and
// stack, the (scenario, seed) point is quarantined (never retried — a
// deterministic simulator panics the same way twice), and the worker
// discards its warm pooled state and rebuilds from cold, because a
// panic may have unwound mid-mutation and left the pooled System
// corrupted. Failures classified transient are retried with bounded
// exponential backoff instead.

// Run-attempt policy: a transient failure is retried up to
// maxRunAttempts total executions, sleeping base<<attempt (capped)
// between attempts. Panics and permanent errors never retry.
const (
	maxRunAttempts   = 3
	retryBackoffBase = 2 * time.Millisecond
	retryBackoffMax  = 100 * time.Millisecond
)

// ErrTransient classifies a run failure as retryable. The simulator
// itself is deterministic, so genuine transience enters through the
// boundary with the outside world (and through the chaos hook, which
// exists to prove the retry path works): wrap such errors with
// Transient, or any error chain containing ErrTransient is retried.
var ErrTransient = errors.New("transient")

// Transient wraps err so the campaign worker retries the run.
func Transient(err error) error {
	return fmt.Errorf("%w: %w", ErrTransient, err)
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// protect runs fn, converting a panic into (error, panicked=true,
// stack). It is the recover() boundary every campaign run crosses.
func protect(fn func() error) (err error, panicked bool, stack []byte) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			err = fmt.Errorf("panic: %v", r)
			stack = debug.Stack()
		}
	}()
	err = fn()
	return
}

// backoff sleeps the bounded-exponential retry delay for the given
// completed attempt count, returning early if ctx is done.
func backoff(ctx context.Context, attempt int) {
	d := retryBackoffBase << attempt
	if d > retryBackoffMax {
		d = retryBackoffMax
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
