package cliutil

import (
	"context"
	"syscall"
	"testing"
	"time"
)

// TestSignalContextCancelsOnSIGTERM delivers a real SIGTERM to the
// test process and requires the context to cancel — the graceful
// first-signal path every CLI relies on to flush partial output.
func TestSignalContextCancelsOnSIGTERM(t *testing.T) {
	ctx, stop := SignalContext(context.Background())
	defer stop()

	if err := ctx.Err(); err != nil {
		t.Fatalf("context canceled before any signal: %v", err)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("self-signal: %v", err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("context not canceled within 5s of SIGTERM")
	}
	if ctx.Err() != context.Canceled {
		t.Fatalf("ctx.Err() = %v, want Canceled", ctx.Err())
	}
}

// TestSignalContextPropagatesParent checks the context derives from
// the given parent (a canceled parent cancels it) and that stop()
// itself cancels — the deferred-stop idiom must not leak a live
// signal registration or an uncancelable context.
func TestSignalContextPropagatesParent(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	ctx, stop := SignalContext(parent)
	defer stop()
	cancel()
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("parent cancellation not propagated")
	}

	ctx2, stop2 := SignalContext(context.Background())
	stop2()
	select {
	case <-ctx2.Done():
	case <-time.After(time.Second):
		t.Fatal("stop() did not cancel the context")
	}
}

// TestSweepFlags: a repeated -sweep flag collects every occurrence in
// order, and ParseSweeps turns them into sweeps or names the bad one.
func TestSweepFlags(t *testing.T) {
	var flags StringList
	for _, v := range []string{"attack.rate=1e9,2e9", "wind=0"} {
		if err := flags.Set(v); err != nil {
			t.Fatal(err)
		}
	}
	if got := flags.String(); got != "attack.rate=1e9,2e9 wind=0" {
		t.Fatalf("String() = %q", got)
	}
	sweeps, err := ParseSweeps(flags)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != 2 || sweeps[0].Key != "attack.rate" || len(sweeps[0].Values) != 2 || sweeps[1].Values[0] != 0 {
		t.Fatalf("ParseSweeps = %+v", sweeps)
	}
	if _, err := ParseSweeps([]string{"wind=0", "wind"}); err == nil {
		t.Fatal("malformed sweep accepted")
	}
}
