package core

import (
	"strings"
	"testing"
	"time"

	"containerdrone/internal/fault"
	"containerdrone/internal/monitor"
	"containerdrone/internal/physics"
)

// runFault executes one fault scenario to completion.
func runFault(t *testing.T, name string) *Result {
	t.Helper()
	sys, err := New(MustBuild(name, Options{}))
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return sys.Run()
}

func TestNetSplitDetectedByIntervalRule(t *testing.T) {
	res := runFault(t, "netsplit")
	if !res.Switched || res.SwitchRule != monitor.RuleInterval {
		t.Fatalf("netsplit not caught by interval rule: switched=%v rule=%s", res.Switched, res.SwitchRule)
	}
	// The partition opens at 10 s; the rule tolerates 100 ms of silence.
	lat := res.SwitchTime - 10*time.Second
	if lat < 0 || lat > 300*time.Millisecond {
		t.Fatalf("detection latency %v, want within rule threshold", lat)
	}
	if res.Crashed {
		t.Fatal("monitored netsplit must not crash")
	}
}

func TestPrioInversionDetectedAfterBurst(t *testing.T) {
	res := runFault(t, "prio-inv")
	if !res.Switched || res.SwitchRule != monitor.RuleInterval {
		t.Fatalf("prio-inv: switched=%v rule=%s", res.Switched, res.SwitchRule)
	}
	// Detection is itself starved: the monitor cannot fire before the
	// 400 ms burst releases the safety core at 10.4 s.
	if res.SwitchTime < 10*time.Second+400*time.Millisecond {
		t.Fatalf("switch at %v, before the burst released the core", res.SwitchTime)
	}
}

func TestGPSSpoofIsStealthy(t *testing.T) {
	res := runFault(t, "gps-spoof")
	if res.Switched {
		t.Fatalf("gps-spoof tripped rule %s; the spoof should be invisible to spoofed-state rules", res.SwitchRule)
	}
	// ...while physically walking the vehicle off station.
	if res.Metrics.MaxDeviation < 2 {
		t.Fatalf("spoof max deviation %.2fm, expected a multi-meter walk-off", res.Metrics.MaxDeviation)
	}
}

func TestMAVReplayCapturesAndDetects(t *testing.T) {
	cfg := MustBuild("mav-replay", Options{})
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if len(sys.Member(0).replayFrames) == 0 {
		t.Fatal("replay fault captured no motor frames")
	}
	if !res.Switched || res.SwitchRule != monitor.RuleAttitude {
		t.Fatalf("mav-replay: switched=%v rule=%s, want attitude-error", res.Switched, res.SwitchRule)
	}
	// Replayed frames are valid MAVLink: they must not count as garbage.
	if res.GarbagePkts != 0 {
		t.Fatalf("replay produced %d garbage packets; frames should decode", res.GarbagePkts)
	}
}

func TestRotorDecayDegradesEfficiency(t *testing.T) {
	cfg := MustBuild("rotor-decay", Options{})
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	eff := sys.Member(0).Quad.Rotors[0].Efficiency()
	want := 1 - fault.DefaultRotorDecayLoss
	if eff > want+1e-9 || eff < want-1e-9 {
		t.Fatalf("rotor 0 efficiency = %v, want %v", eff, want)
	}
	if e := sys.Member(0).Quad.Rotors[1].Efficiency(); e != 1 {
		t.Fatalf("rotor 1 efficiency = %v, want healthy", e)
	}
}

func TestJitterRestoresLinkAfterWindow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 12 * time.Second
	cfg.Faults = fault.Plan{Specs: []fault.Spec{
		{Kind: fault.KindJitter, Start: 2 * time.Second, Duration: 3 * time.Second},
	}}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if link := sys.Net.Link(); link.Jitter != 0 || link.Loss != 0 {
		t.Fatalf("link not restored after jitter window: %+v", link)
	}
}

// TestOverlappingSameKindFaultsCompose pins the composition contract
// on shared surfaces: when two windows of the same kind overlap, the
// first End must not heal the surface while the second is still open,
// and after the last End every surface must be fully healthy.
func TestOverlappingSameKindFaultsCompose(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 10 * time.Second
	sec := func(n float64) time.Duration { return time.Duration(n * float64(time.Second)) }
	cfg.Faults = fault.Plan{Specs: []fault.Spec{
		{Kind: fault.KindJitter, Start: sec(1), Duration: sec(3)},
		{Kind: fault.KindJitter, Start: sec(2), Duration: sec(3)},
		{Kind: fault.KindNetSplit, Start: sec(1), Duration: sec(2)},
		{Kind: fault.KindNetSplit, Start: sec(2), Duration: sec(2)},
		{Kind: fault.KindIMUBias, Start: sec(1), Duration: sec(2), Magnitude: 0.01},
		{Kind: fault.KindIMUBias, Start: sec(2), Duration: sec(2), Magnitude: 0.02},
		{Kind: fault.KindGPSSpoof, Start: sec(1), Duration: sec(2), Rate: 0.1},
		{Kind: fault.KindGPSSpoof, Start: sec(2), Duration: sec(2), Rate: 0.1},
		{Kind: fault.KindBaroDrop, Start: sec(1), Duration: sec(2)},
		{Kind: fault.KindBaroDrop, Start: sec(2), Duration: sec(2)},
	}}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Mid-overlap probe at t=3.5s: the first window of each pair has
	// closed, the second is still open — every surface must still be
	// degraded.
	sys.Engine.At(sec(3.5), func(time.Duration) {
		if !sys.Net.Partitioned(hceHost, sys.Member(0).CCE.NetHost()) {
			t.Error("first netsplit End healed the bridge while the second window is open")
		}
		if sys.Net.Link().Jitter == 0 {
			t.Error("first jitter End restored the link while the second window is open")
		}
		f := sys.Member(0).suite.Faults()
		if f.GyroBias.X < 0.015 || f.GyroBias.X > 0.025 {
			t.Errorf("mid-overlap gyro bias = %v, want the second spec's 0.02", f.GyroBias.X)
		}
		if !f.BaroFrozen {
			t.Error("first baro-drop End unfroze the barometer while the second window is open")
		}
		if f.GPSOffset.X <= 0 {
			t.Error("gps offset gone while a spoof window is open")
		}
	})
	sys.Run()
	// All windows closed: every surface fully healed.
	if sys.Net.Partitioned(hceHost, sys.Member(0).CCE.NetHost()) {
		t.Error("partition survived both windows")
	}
	if link := sys.Net.Link(); link.Jitter != 0 || link.Loss != 0 {
		t.Errorf("link not healed after both jitter windows: %+v", link)
	}
	f := sys.Member(0).suite.Faults()
	if f.GyroBias != (physics.Vec3{}) || f.GPSOffset != (physics.Vec3{}) || f.BaroFrozen {
		t.Errorf("sensor faults not healed after all windows: %+v", f)
	}
}

func TestFaultParamsApplyToPlan(t *testing.T) {
	cfg := MustBuild("netsplit", Options{Params: map[string]float64{
		"fault.start":    5,
		"fault.duration": 2,
	}})
	sp := cfg.Faults.Specs[0]
	if sp.Start != 5*time.Second || sp.Duration != 2*time.Second {
		t.Fatalf("fault params not applied: %+v", sp)
	}
}

// TestJitterWindowClosesOutOfOrder pins the stack semantics: when a
// shorter jitter window opens inside a longer one and closes first,
// the link must fall back to the still-open window's severity, not
// keep the closed window's or heal early.
func TestJitterWindowClosesOutOfOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 10 * time.Second
	long := fault.Spec{Kind: fault.KindJitter, Start: 2 * time.Second, Duration: 6 * time.Second, Magnitude: 0.05, Rate: 0.3}
	short := fault.Spec{Kind: fault.KindJitter, Start: 3 * time.Second, Duration: time.Second, Magnitude: 0.001, Rate: 0.01}
	cfg.Faults = fault.Plan{Specs: []fault.Spec{long, short}}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantLong := time.Duration(long.Magnitude * float64(time.Second))
	sys.Engine.At(3500*time.Millisecond, func(time.Duration) {
		if got := sys.Net.Link().Jitter; got != time.Duration(short.Magnitude*float64(time.Second)) {
			t.Errorf("inside the short window: jitter = %v, want the short spec's", got)
		}
	})
	sys.Engine.At(5*time.Second, func(time.Duration) {
		if got := sys.Net.Link(); got.Jitter != wantLong || got.Loss != long.Rate {
			t.Errorf("after the short window closed: link = %+v, want the long spec's severity back", got)
		}
	})
	sys.Run()
	if got := sys.Net.Link(); got.Jitter != 0 || got.Loss != 0 {
		t.Errorf("link not healed after the long window: %+v", got)
	}
}

// TestEveryFaultKindHasScenario pins the convention the fault-matrix
// CLIs rely on: each fault kind's string doubles as the name of its
// monitored scenario.
func TestEveryFaultKindHasScenario(t *testing.T) {
	for _, k := range fault.Kinds() {
		if _, ok := Lookup(k.String()); !ok {
			t.Errorf("fault kind %s has no registered scenario of the same name", k)
		}
	}
}

// TestInvalidFaultSpecRejected checks that degenerate severities fail
// at build time instead of producing a silently inert fault.
func TestInvalidFaultSpecRejected(t *testing.T) {
	for _, sp := range []fault.Spec{
		{Kind: fault.KindMAVReplay, Rate: -1},
		{Kind: fault.KindJitter, Rate: 1.5},
		{Kind: fault.KindPrioInv, Magnitude: 0.5},
		{Kind: fault.KindRotorDecay, Magnitude: 2},
		{Kind: fault.KindGPSSpoof, Start: -time.Second},
	} {
		cfg := DefaultConfig()
		cfg.Faults = fault.Plan{Specs: []fault.Spec{sp}}
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted invalid fault spec %+v", sp)
		}
	}
}

func TestFaultEventsTraced(t *testing.T) {
	res := runFault(t, "baro-drop")
	var found bool
	for _, ev := range res.Trace.Events() {
		if strings.Contains(ev.String(), "baro-drop begins") {
			found = true
		}
	}
	if !found {
		t.Fatal("fault begin event missing from trace")
	}
}
