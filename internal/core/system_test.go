package core

import (
	"testing"
	"time"

	"containerdrone/internal/attack"
	"containerdrone/internal/monitor"
)

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

func TestBaselineStableFlight(t *testing.T) {
	r := mustRun(t, ScenarioBaseline())
	if r.Crashed {
		t.Fatalf("baseline flight crashed at %v", r.CrashTime)
	}
	if r.Switched {
		t.Fatalf("baseline flight switched to safety (%v)", r.SwitchRule)
	}
	if r.Metrics.RMSError > 0.15 {
		t.Fatalf("baseline RMS error %.3fm too large", r.Metrics.RMSError)
	}
	if r.Metrics.MaxTilt > 0.1 {
		t.Fatalf("baseline max tilt %.3f rad too large", r.Metrics.MaxTilt)
	}
}

func TestTableIStreamRatesAndSizes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 10 * time.Second
	r := mustRun(t, cfg)

	want := map[string]struct {
		port int
		size int
		rate float64 // Hz, from Table I
	}{
		"IMU":          {PortSensors, 52, 250},
		"Barometer":    {PortSensors, 32, 50},
		"GPS":          {PortSensors, 44, 10},
		"RC":           {PortSensors, 50, 50},
		"Motor Output": {PortMotor, 29, 400},
	}
	got := map[string]StreamStat{}
	for _, st := range r.Streams {
		got[st.Name] = st
	}
	for name, w := range want {
		st, ok := got[name]
		if !ok {
			t.Fatalf("stream %q missing", name)
		}
		if st.Port != w.port {
			t.Errorf("%s port = %d, want %d", name, st.Port, w.port)
		}
		if st.FrameSize != w.size {
			t.Errorf("%s frame size = %d, want %d (Table I)", name, st.FrameSize, w.size)
		}
		expected := w.rate * 10 // 10-second run
		lo, hi := expected*0.95, expected*1.02
		if float64(st.Packets) < lo || float64(st.Packets) > hi {
			t.Errorf("%s packets = %d over 10s, want ≈%.0f", name, st.Packets, expected)
		}
	}
}

func TestFig4MemDoSWithoutMemGuardCrashes(t *testing.T) {
	r := mustRun(t, ScenarioMemDoS(false))
	if !r.Crashed {
		t.Fatal("memory DoS without MemGuard did not crash the drone (Fig 4)")
	}
	// "The drone starts to drift right after the Bandwidth task is
	// launched … and results in a crash shortly after."
	if r.CrashTime < 10*time.Second {
		t.Fatalf("crash at %v precedes the attack at 10s", r.CrashTime)
	}
	if r.CrashTime > 16*time.Second {
		t.Fatalf("crash at %v not 'shortly after' the 10s attack", r.CrashTime)
	}
	// Pre-attack flight is clean.
	pre := r.Log.WindowMetrics(2*time.Second, 10*time.Second)
	if pre.RMSError > 0.15 {
		t.Fatalf("pre-attack RMS %.3fm already degraded", pre.RMSError)
	}
}

func TestFig5MemDoSWithMemGuardSurvives(t *testing.T) {
	r := mustRun(t, ScenarioMemDoS(true))
	if r.Crashed {
		t.Fatalf("memory DoS with MemGuard crashed at %v (Fig 5 expects survival)", r.CrashTime)
	}
	// "The drone oscillates for a short time but then managed to
	// stabilize itself": degraded vs the pre-attack window, but
	// bounded.
	pre := r.Log.WindowMetrics(2*time.Second, 10*time.Second)
	post := r.Log.WindowMetrics(10*time.Second, 30*time.Second)
	if post.MaxDeviation > 0.5 {
		t.Fatalf("with MemGuard deviation %.3fm too large", post.MaxDeviation)
	}
	if post.RMSError < pre.RMSError*0.5 {
		t.Fatalf("attack window unexpectedly cleaner than pre-attack (%.3f vs %.3f)",
			post.RMSError, pre.RMSError)
	}
}

func TestFig6KillControllerFailover(t *testing.T) {
	r := mustRun(t, ScenarioKill())
	if r.Crashed {
		t.Fatalf("kill scenario crashed at %v", r.CrashTime)
	}
	if !r.Switched {
		t.Fatal("monitor never switched after controller kill (Fig 6)")
	}
	if r.SwitchRule != monitor.RuleInterval {
		t.Fatalf("switch rule = %v, want receiving-interval", r.SwitchRule)
	}
	// Detection latency: within the rule threshold plus slack.
	lat := r.SwitchTime - r.Cfg.Attack.Start
	if lat <= 0 || lat > 300*time.Millisecond {
		t.Fatalf("detection latency %v outside expected range", lat)
	}
	// The safety controller stabilizes the drone afterward.
	tail := r.Log.WindowMetrics(20*time.Second, 30*time.Second)
	if tail.RMSError > 0.2 {
		t.Fatalf("post-recovery RMS %.3fm — safety controller did not stabilize", tail.RMSError)
	}
}

func TestFig7UDPFloodFailover(t *testing.T) {
	r := mustRun(t, ScenarioFlood())
	if r.Crashed {
		t.Fatalf("flood scenario crashed at %v (Fig 7 expects recovery)", r.CrashTime)
	}
	if !r.Switched {
		t.Fatal("monitor never switched under UDP flood")
	}
	if r.SwitchRule != monitor.RuleAttitude {
		t.Fatalf("switch rule = %v, want attitude-error (paper: 'attitude error control kicks in')", r.SwitchRule)
	}
	if r.SwitchTime < 8*time.Second {
		t.Fatalf("switched at %v, before the attack", r.SwitchTime)
	}
	// Degradation between attack and switch must be visible.
	if r.AttackMetrics.MaxTilt < 0.05 {
		t.Fatalf("flood caused no visible attitude disturbance (%.3f rad)", r.AttackMetrics.MaxTilt)
	}
	// Recovery.
	tail := r.Log.WindowMetrics(20*time.Second, 30*time.Second)
	if tail.RMSError > 0.2 {
		t.Fatalf("post-recovery RMS %.3fm", tail.RMSError)
	}
	if r.GarbagePkts == 0 {
		t.Fatal("receiver saw no garbage packets during a flood")
	}
}

func TestFloodWithoutMonitorCrashes(t *testing.T) {
	// Ablation: the flood is fatal when the security monitor is off —
	// the defense, not luck, saves the vehicle.
	cfg := ScenarioFlood()
	cfg.MonitorEnabled = false
	r := mustRun(t, cfg)
	if !r.Crashed {
		t.Fatal("flood without monitor did not crash; Fig 7's defense would be vacuous")
	}
}

func TestKillWithoutMonitorIsFatalOrLost(t *testing.T) {
	cfg := ScenarioKill()
	cfg.MonitorEnabled = false
	r := mustRun(t, cfg)
	if !r.Crashed && r.AttackMetrics.MaxDeviation < 0.5 {
		t.Fatalf("killed controller without monitor left deviation %.3fm — should drift or crash",
			r.AttackMetrics.MaxDeviation)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result { return mustRun(t, ScenarioFlood()) }
	a, b := run(), run()
	if a.Crashed != b.Crashed || a.SwitchTime != b.SwitchTime {
		t.Fatal("same-seed runs diverged in outcome")
	}
	sa, sb := a.Log.Samples(), b.Log.Samples()
	if len(sa) != len(sb) {
		t.Fatalf("sample counts differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("trajectories diverge at sample %d", i)
		}
	}
}

func TestSeedChangesTrajectory(t *testing.T) {
	cfg := ScenarioBaseline()
	cfg.Duration = 5 * time.Second
	a := mustRun(t, cfg)
	cfg.Seed = 999
	b := mustRun(t, cfg)
	sa, sb := a.Log.Samples(), b.Log.Samples()
	same := 0
	for i := range sa {
		if i < len(sb) && sa[i].Position == sb[i].Position {
			same++
		}
	}
	if same > len(sa)/2 {
		t.Fatal("different seeds produced near-identical noise trajectories")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Duration = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero duration accepted")
	}
	bad = DefaultConfig()
	bad.BusCapacity = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero bus capacity accepted")
	}
}

func TestReceiverKilledOnSwitch(t *testing.T) {
	s, err := New(ScenarioKill())
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	if !r.Switched {
		t.Fatal("expected switch")
	}
	for _, task := range s.Member(0).CPU.Tasks() {
		if task.Name == "hce-recv" {
			t.Fatal("receiving thread still scheduled after switch — §III-E requires it be killed")
		}
	}
}

func TestAttackPlanCPUHogHarmless(t *testing.T) {
	// The CPU-DoS protection: a hog inside the container cannot affect
	// the flight (cpuset pins it to core 3; priority cap keeps it
	// below everything host-critical).
	cfg := DefaultConfig()
	cfg.Duration = 15 * time.Second
	cfg.Attack = attack.Plan{Kind: attack.KindCPUHog, Start: 5 * time.Second}
	r := mustRun(t, cfg)
	if r.Crashed {
		t.Fatal("CPU hog crashed the drone despite cpuset+priority protection")
	}
	// The hog shares core 3 with the complex controller at equal
	// priority; FIFO lets the running hog starve it, so the Simplex
	// monitor may fail over — but the flight must stay safe.
	tail := r.Log.WindowMetrics(10*time.Second, 15*time.Second)
	if tail.RMSError > 0.3 {
		t.Fatalf("flight degraded too much under CPU hog: %.3fm", tail.RMSError)
	}
}

func TestTraceRecordsAttackEvents(t *testing.T) {
	r := mustRun(t, ScenarioKill())
	found := false
	for _, ev := range r.Trace.Filter("attack") {
		if ev.Time == 12*time.Second {
			found = true
		}
	}
	if !found {
		t.Fatal("attack event missing from trace")
	}
}
