package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"containerdrone/internal/monitor"
	"containerdrone/internal/sim"
	"containerdrone/internal/telemetry"
)

// hookRecorder attaches Hooks that log every callback in call order.
func hookRecorder(s *System, events *[]string) {
	s.Hooks = Hooks{
		OnSample: func(now time.Duration, smp telemetry.Sample) {
			*events = append(*events, fmt.Sprintf("sample %v %v", now, smp.Position))
		},
		OnViolation: func(v monitor.Violation) {
			*events = append(*events, fmt.Sprintf("violation %v %s", v.Time, v.Rule))
		},
		OnSwitch: func(now time.Duration, rule monitor.Rule) {
			*events = append(*events, fmt.Sprintf("switch %v %s", now, rule))
		},
		OnCrash: func(at time.Duration) {
			*events = append(*events, fmt.Sprintf("crash %v", at))
		},
	}
}

// flyInlineAndAside flies cfg twice, once stepping the airframes inline
// and once on the helper, and fails unless the results, the traces and
// the hook call sequences match exactly. setup, when set, runs on each
// System after the recording hooks are attached.
func flyInlineAndAside(t *testing.T, cfg Config, setup func(s *System, cancel context.CancelFunc)) {
	t.Helper()
	fly := func(withHelper bool) (*Result, []string, error) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var events []string
		hookRecorder(s, &events)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if setup != nil {
			setup(s, cancel)
		}
		if withHelper {
			flightPs.Add(1) // the helper's P, which the run releases
			err = s.runWithHelper(ctx, s.Engine.Clock().Ticks()+sim.TicksFor(cfg.Duration))
			if s.helper != nil {
				t.Fatal("helper still attached after the run")
			}
			return s.Result(), events, err
		}
		var r Result
		err = s.RunContextInto(ctx, &r)
		return &r, events, err
	}
	want, wantEvents, wantErr := fly(false)
	got, gotEvents, gotErr := fly(true)
	if wantErr != gotErr {
		t.Fatalf("run error: inline %v, helper %v", wantErr, gotErr)
	}
	assertSameOutcome(t, "helper vs inline", want, got)
	if !reflect.DeepEqual(want.Trace.Events(), got.Trace.Events()) {
		t.Fatalf("trace diverged\ninline %v\nhelper %v", want.Trace, got.Trace)
	}
	if !reflect.DeepEqual(wantEvents, gotEvents) {
		for i := range wantEvents {
			if i >= len(gotEvents) || wantEvents[i] != gotEvents[i] {
				t.Fatalf("hook call %d diverged: inline %q, helper %v", i, wantEvents[i], gotEvents[i:min(i+1, len(gotEvents))])
			}
		}
		t.Fatalf("helper made %d hook calls, inline %d", len(gotEvents), len(wantEvents))
	}
}

// TestAirframeHelperEquivalence flies every registry scenario with the
// airframe on the helper goroutine and requires the inline outcome byte
// for byte: results, flight logs, traces, and where every hook call —
// OnCrash included — falls among the others. The crashing scenarios
// pin the deferred crash report; the swarms pin one helper stepping
// every member. Flights stop at 20 s: at seed 7 every registry
// detection, switch and crash happens before 19 s.
func TestAirframeHelperEquivalence(t *testing.T) {
	for _, sc := range Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			cfg, err := Build(sc.Name, Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Duration = min(cfg.Duration, 20*time.Second)
			flyInlineAndAside(t, cfg, nil)
		})
	}
}

// TestAirframeHelperDrop oversubscribes the process mid-flight, as
// other flights starting after this one do, so the flight gives its
// helper up at the next budget check and finishes inline; the outcome
// must still match the inline flight byte for byte. The drop lands
// before the crash in the crashing scenarios, and the scenarios also
// cover the wind and rotor-decay writes and a fleet.
func TestAirframeHelperDrop(t *testing.T) {
	for _, name := range []string{"udpflood-no-attitude", "memdos-unguarded", "rotor-decay", "mission", "swarm-cross-replay-unmonitored"} {
		t.Run(name, func(t *testing.T) {
			cfg, err := Build(name, Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Duration = min(cfg.Duration, 20*time.Second)
			extra, added := int32(runtime.GOMAXPROCS(0)), int32(0)
			defer func() { flightPs.Add(-added) }()
			flyInlineAndAside(t, cfg, func(s *System, _ context.CancelFunc) {
				s.Engine.At(4*time.Second, func(time.Duration) {
					if s.helper != nil {
						flightPs.Add(extra)
						added = extra
					}
				})
				s.Engine.At(8*time.Second, func(time.Duration) {
					if s.helper != nil {
						t.Error("helper still attached 4 s after the process was oversubscribed")
					}
				})
			})
		})
	}
}

// TestAirframeHelperCancel cancels both flights from an observer and
// requires the same partial outcome: the helper is synced and its last
// crash reported before the canceled run returns.
func TestAirframeHelperCancel(t *testing.T) {
	for _, name := range []string{"baseline", "memdos-unguarded"} {
		t.Run(name, func(t *testing.T) {
			cfg, err := Build(name, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			flyInlineAndAside(t, cfg, func(s *System, cancel context.CancelFunc) {
				afterSample(s, func(now time.Duration) {
					if now >= cfg.Duration/2 {
						cancel()
					}
				})
			})
		})
	}
}

// afterSample chains f after the System's OnSample hook.
func afterSample(s *System, f func(now time.Duration)) {
	record := s.Hooks.OnSample
	s.Hooks.OnSample = func(now time.Duration, smp telemetry.Sample) {
		record(now, smp)
		f(now)
	}
}

// TestAirframeHelperCrashOrdering traces an event, or fires a
// violation hook, at the end of the very tick the vehicle crashes,
// after the physics procs and before any sensor read could sync: the
// helper's crash must still be reported first, as the inline physics
// proc reports it.
func TestAirframeHelperCrashOrdering(t *testing.T) {
	cfg, err := Build("udpflood-no-attitude", Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := probe.Run()
	if !res.Crashed {
		t.Fatal("udpflood-no-attitude at seed 7 no longer crashes; pick a crashing flight")
	}
	emits := map[string]func(s *System, now time.Duration){
		"trace": func(s *System, now time.Duration) { s.tracef(now, "test", "one-shot in the crash tick") },
		"violation": func(s *System, now time.Duration) {
			s.drones[0].Monitor.OnViolation(monitor.Violation{Rule: "test", Time: now})
		},
	}
	for name, emit := range emits {
		t.Run(name, func(t *testing.T) {
			flyInlineAndAside(t, cfg, func(s *System, _ context.CancelFunc) {
				s.Engine.At(res.CrashTime, func(now time.Duration) { emit(s, now) })
			})
		})
	}
}

// TestAirframeHelperSlowObserver stalls the engine in an observer for
// long enough that the idle helper stops spinning and sleeps; the
// engine's next hand-off must wake it, and the run must still match.
func TestAirframeHelperSlowObserver(t *testing.T) {
	cfg, err := Build("udpflood", Options{Seed: 1, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	flyInlineAndAside(t, cfg, func(s *System, _ context.CancelFunc) {
		afterSample(s, func(now time.Duration) {
			if now < 60*time.Millisecond {
				time.Sleep(50 * time.Millisecond)
			}
		})
	})
}
