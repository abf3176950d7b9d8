package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"containerdrone/internal/fault"
	"containerdrone/internal/monitor"
	"containerdrone/internal/physics"
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
// and once on the helper, and fails unless the results, the traces, the
// hook call sequences, the tick the run stopped at and every member's
// final airframe match exactly. setup, when set, runs on each System
// after the recording hooks are attached.
func flyInlineAndAside(t *testing.T, cfg Config, setup func(s *System, cancel context.CancelFunc)) {
	t.Helper()
	var ticks []int64
	var quads [][]physics.Quad
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
		defer func() {
			ticks = append(ticks, s.Engine.Clock().Ticks())
			var qs []physics.Quad
			for _, d := range s.drones {
				qs = append(qs, *d.Quad)
			}
			quads = append(quads, qs)
		}()
		if withHelper {
			flightPs.Add(1) // the helper's P, which the run releases
			err = s.runWithHelper(ctx, s.Engine.Clock().Ticks()+sim.TicksFor(cfg.Duration))
			if s.helper != nil {
				t.Fatal("helper still attached after the run")
			}
			return s.Result(), events, err
		}
		var r Result
		err = s.ResumeContextInto(ctx, &r)
		return &r, events, err
	}
	want, wantEvents, wantErr := fly(false)
	got, gotEvents, gotErr := fly(true)
	if wantErr != gotErr {
		t.Fatalf("run error: inline %v, helper %v", wantErr, gotErr)
	}
	assertSameOutcome(t, "helper vs inline", want, got)
	if ticks[0] != ticks[1] {
		t.Fatalf("run stopped at tick %d inline, %d with the helper", ticks[0], ticks[1])
	}
	if !reflect.DeepEqual(quads[0], quads[1]) {
		t.Fatalf("final airframes diverged\ninline %+v\nhelper %+v", quads[0], quads[1])
	}
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
// every member. Each scenario flies at two seeds. Flights stop at
// 20 s: at seed 7 every registry detection, switch and crash happens
// before 19 s.
func TestAirframeHelperEquivalence(t *testing.T) {
	for _, sc := range Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			for _, seed := range []uint64{7, 8} {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					cfg, err := Build(sc.Name, Options{Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					cfg.Duration = min(cfg.Duration, 20*time.Second)
					flyInlineAndAside(t, cfg, nil)
				})
			}
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

// everyTick registers a test proc that runs f in every tick after the
// physics and telemetry procs, with the tick index.
func everyTick(s *System, f func(tick int64)) {
	s.Engine.Register("test", sim.Tick, 40, sim.ProcFunc(func(time.Duration) {
		f(s.Engine.Clock().Ticks())
	}))
}

// TestAirframeHelperFenceCancel cancels flights in the tick before a
// context poll and in the tick right after one, so the run stops 1 or
// 1024 ticks later. The helper may lead the engine by up to a PWM
// period, but never past a poll: the airframes stop where the inline
// run's do.
func TestAirframeHelperFenceCancel(t *testing.T) {
	for _, at := range []int64{20*sim.CtxCheckTicks - 1, 20 * sim.CtxCheckTicks} {
		t.Run(fmt.Sprint(at), func(t *testing.T) {
			cfg, err := Build("baseline", Options{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			flyInlineAndAside(t, cfg, func(s *System, cancel context.CancelFunc) {
				everyTick(s, func(tick int64) {
					if tick == at {
						cancel()
					}
				})
			})
		})
	}
}

// crashTick returns the tick udpflood-no-attitude at seed 7 crashes
// in, as the inline run traces it.
func crashTick(t *testing.T, cfg Config) int64 {
	t.Helper()
	probe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := probe.Run()
	for _, ev := range res.Trace.Events() {
		if ev.Message == "vehicle crashed" {
			return int64(ev.Time / sim.Tick)
		}
	}
	t.Fatal("udpflood-no-attitude at seed 7 no longer crashes; pick a crashing flight")
	return 0
}

// TestAirframeHelperFenceCrash traces an event in every tick around a
// crash. In the ticks before it where the fence lies past the crash
// step, the engine first stalls until the helper has flown the crash:
// the crash must stay unreported until the engine's tick reaches it,
// and then be traced at its own tick, after the earlier events.
func TestAirframeHelperFenceCrash(t *testing.T) {
	cfg, err := Build("udpflood-no-attitude", Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Duration = 11 * time.Second
	crash := crashTick(t, cfg)
	led := false
	flyInlineAndAside(t, cfg, func(s *System, _ context.CancelFunc) {
		everyTick(s, func(tick int64) {
			if tick < crash-2*stateSlots || tick > crash {
				return
			}
			if h := s.helper; h != nil && tick < crash && int64(h.fence) > crash-h.start {
				for h.crash[0].step.Load() < 0 {
					runtime.Gosched()
				}
				if crashed, _ := s.Member(0).Log.Crashed(); crashed {
					t.Errorf("tick %d: crash at tick %d reported early", tick, crash)
				}
				led = true
			}
			s.tracef(time.Duration(tick)*sim.Tick, "test", "tick %d", tick)
		})
	})
	if !led {
		t.Fatal("the fence never passed the crash step before the engine reached it")
	}
}

// TestAirframeHelperFenceDrop oversubscribes the process just before
// the oversubscription check at step 14·budgetCheckEvery, the tick of a
// PWM write in the baseline: the write raises the fence, but not past
// the check, so the flight gives its helper up there with the
// airframes at exactly the steps issued, and finishes inline.
func TestAirframeHelperFenceDrop(t *testing.T) {
	cfg, err := Build("baseline", Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	check := int64(14 * budgetCheckEvery)
	cfg.Duration = time.Duration(check+sim.CtxCheckTicks) * sim.Tick
	extra, added := int32(runtime.GOMAXPROCS(0)), int32(0)
	defer func() { flightPs.Add(-added) }()
	var dropAt int64
	pwm := false
	flyInlineAndAside(t, cfg, func(s *System, _ context.CancelFunc) {
		s.drones[0].pwmTask.Work = func(now time.Duration) {
			pwm = pwm || now == time.Duration(check)*sim.Tick && s.helper != nil
			s.drones[0].setMotors(s.drones[0].selectCommand())
		}
		everyTick(s, func(tick int64) {
			switch {
			case tick == check-10 && s.helper != nil:
				flightPs.Add(extra)
				added = extra
			case added > 0 && dropAt == 0 && s.helper == nil:
				dropAt = tick
			}
		})
	})
	if !pwm || dropAt != check {
		t.Fatalf("PWM write at the check %v; helper dropped at tick %d, want %d", pwm, dropAt, check)
	}
}

// TestAirframeHelperFenceWriters flies wind and rotor decay, the procs
// besides the PWM drivers that write an airframe, on a single drone
// and on a fleet whose follower decays, plus a test writer that runs
// between the schedulers and physics every other tick, so it is due
// but has not run yet when a PWM write raises the fence, and that
// queues more writes at once than the input queue holds. Every write
// must land behind the fence (push panics otherwise) and the outcome
// must match.
func TestAirframeHelperFenceWriters(t *testing.T) {
	single, err := Build("rotor-decay", Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	swarm, err := Build("swarm-baseline", Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	swarm.Faults.Specs = append(swarm.Faults.Specs, fault.Spec{
		Kind: fault.KindRotorDecay, Start: 3 * time.Second, Magnitude: 0.3, Rate: 0.1, Member: 1,
	})
	for name, cfg := range map[string]Config{"single": single, "swarm": swarm} {
		t.Run(name, func(t *testing.T) {
			cfg.Duration = min(cfg.Duration, 12*time.Second)
			cfg.Wind = true
			flyInlineAndAside(t, cfg, func(s *System, _ context.CancelFunc) {
				if got, want := len(s.airframeProcs), cfg.DroneCount()+1; got != want {
					t.Fatalf("%d airframe-writing procs, want %d (wind per member, one decay)", got, want)
				}
			})
		})
	}
	t.Run("mid-tick", func(t *testing.T) {
		cfg, err := Build("baseline", Options{Seed: 7, Duration: 3 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		flyInlineAndAside(t, cfg, func(s *System, _ context.CancelFunc) {
			d := s.drones[0]
			s.airframeProcs = append(s.airframeProcs, s.Engine.Register("test-gust", 2*sim.Tick, prioSched+5,
				sim.ProcFunc(func(now time.Duration) {
					for j := range inputSlots + 8 {
						d.setDisturbance(physics.Vec3{X: 0.2*math.Sin(now.Seconds()) + float64(j)*1e-3}, physics.Vec3{})
					}
				})))
		})
	})
}

// TestAirframeHelperCounters flies the baseline with the helper and
// reports how many airframe syncs had to wait for it and how many
// fences the engine handed it, per flight.
func TestAirframeHelperCounters(t *testing.T) {
	cfg, err := Build("baseline", Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var h *airframeHelper
	s.Hooks.OnSample = func(time.Duration, telemetry.Sample) {
		if h == nil {
			h = s.helper
		}
	}
	flightPs.Add(1)
	if err := s.runWithHelper(context.Background(), sim.TicksFor(cfg.Duration)); err != nil {
		t.Fatal(err)
	}
	if h.publishes == 0 || h.publishes > int(h.issued)/4 {
		t.Errorf("%d publishes in %d steps; the fence should rise about once per PWM period", h.publishes, h.issued)
	}
	t.Logf("%v flight: %d steps, %d syncs waited, %d publishes", cfg.Duration, h.issued, h.waits, h.publishes)
}
