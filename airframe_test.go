package containerdrone_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"containerdrone"
)

// withProcs runs f with GOMAXPROCS set to n. With two Ps a Sim.Run
// flies its airframe on a helper goroutine; with one it steps inline.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// observeRun flies udpflood-no-attitude at seed 7 and returns every
// observer callback in call order.
func observeRun(t *testing.T) []string {
	t.Helper()
	var events []string
	obs := containerdrone.ObserverFuncs{
		Tick: func(now time.Duration, s containerdrone.Sample) {
			events = append(events, fmt.Sprintf("tick %v %v", now, s.Pos))
		},
		Violation: func(v containerdrone.Violation) {
			events = append(events, fmt.Sprintf("violation %v %s", v.TimeS, v.Rule))
		},
		Switch: func(now time.Duration, rule string) {
			events = append(events, fmt.Sprintf("switch %v %s", now, rule))
		},
		Crash: func(at time.Duration) {
			events = append(events, fmt.Sprintf("crash %v", at))
		},
	}
	sim, err := containerdrone.New("udpflood-no-attitude",
		containerdrone.WithSeed(7), containerdrone.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestObserverSequenceAcrossProcs pins the observer contract against
// the airframe helper: the callback sequence of a flight that violates,
// switches and crashes is identical whether the airframe steps inline
// (one P) or on the helper goroutine (two Ps), including where OnCrash
// falls among the ticks.
func TestObserverSequenceAcrossProcs(t *testing.T) {
	var inline, aside []string
	withProcs(1, func() { inline = observeRun(t) })
	withProcs(2, func() { aside = observeRun(t) })

	kinds := map[string]int{}
	crashAt := -1
	for i, ev := range inline {
		kind := strings.Fields(ev)[0]
		kinds[kind]++
		if kind == "crash" {
			crashAt = i
		}
	}
	if kinds["violation"] == 0 || kinds["switch"] != 1 || kinds["crash"] != 1 || kinds["tick"] == 0 {
		t.Fatalf("flight lacks a violation, one switch, one crash and ticks: %v", kinds)
	}
	if want := "switch 9.96s descent-rate"; !containsEvent(inline, want) {
		t.Fatalf("no %q callback", want)
	}
	if want := "crash 10.002899999s"; inline[crashAt] != want {
		t.Fatalf("crash callback %q, want %q", inline[crashAt], want)
	}
	if crashAt == len(inline)-1 {
		t.Fatal("no callback after the crash; the test cannot place it among the ticks")
	}
	if len(aside) != len(inline) {
		t.Fatalf("two Ps: %d callbacks, one P: %d", len(aside), len(inline))
	}
	for i := range inline {
		if aside[i] != inline[i] {
			t.Fatalf("callback %d: two Ps %q, one P %q", i, aside[i], inline[i])
		}
	}
}

func containsEvent(events []string, want string) bool {
	for _, ev := range events {
		if ev == want {
			return true
		}
	}
	return false
}

// settledGoroutines waits for the goroutine count to drop to want,
// since a goroutine that has signaled its exit may still be unwinding,
// and returns the last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestRunLeavesNoGoroutine checks that the airframe helper exits with
// its run: after a normal end, a canceled run and a panicking observer
// alike. A leaked helper would spin on a core for the life of the
// process.
func TestRunLeavesNoGoroutine(t *testing.T) {
	withProcs(2, func() {
		before := runtime.NumGoroutine()
		run := func(ctx context.Context, obs containerdrone.Observer) {
			sim, err := containerdrone.New("udpflood", containerdrone.WithDuration(3*time.Second),
				containerdrone.WithObserver(obs))
			if err != nil {
				t.Fatal(err)
			}
			_, _ = sim.Run(ctx)
		}

		run(context.Background(), containerdrone.ObserverFuncs{})
		if n := settledGoroutines(before); n != before {
			t.Fatalf("after a normal run: %d goroutines, %d before", n, before)
		}

		ctx, cancel := context.WithCancel(context.Background())
		run(ctx, containerdrone.ObserverFuncs{Tick: func(now time.Duration, _ containerdrone.Sample) {
			if now >= time.Second {
				cancel()
			}
		}})
		cancel()
		if n := settledGoroutines(before); n != before {
			t.Fatalf("after a canceled run: %d goroutines, %d before", n, before)
		}

		func() {
			defer func() {
				if r := recover(); r != "observer panic" {
					t.Fatalf("recovered %v, want the observer's panic", r)
				}
			}()
			run(context.Background(), containerdrone.ObserverFuncs{Tick: func(now time.Duration, _ containerdrone.Sample) {
				if now >= time.Second {
					panic("observer panic")
				}
			}})
		}()
		if n := settledGoroutines(before); n != before {
			t.Fatalf("after a panicking observer: %d goroutines, %d before", n, before)
		}
	})
}
