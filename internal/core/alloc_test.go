package core

import (
	"context"
	"testing"
	"time"
)

// stepAllocs measures allocations per Engine.Step after advancing the
// scenario to the given simulated time (past setup transients, attack
// launches, and any Simplex switch).
func stepAllocs(t *testing.T, cfg Config, warmup time.Duration, steps int) float64 {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Engine.Run(warmup)
	return testing.AllocsPerRun(steps, sys.Engine.Step)
}

// TestEngineStepZeroAllocsFlood is the tentpole regression gate: in
// the paper's Fig 7 UDP-flood scenario, the steady-state tick — flood
// bursts, pooled packet delivery, frame decode, physics, telemetry —
// must be allocation-free. The warmup runs past the attack start
// (t=8s) and the resulting Simplex switch.
func TestEngineStepZeroAllocsFlood(t *testing.T) {
	if allocs := stepAllocs(t, ScenarioFlood(), 10*time.Second, 2000); allocs != 0 {
		t.Fatalf("flood steady-state Engine.Step allocates %.2f times per tick, want 0", allocs)
	}
}

// TestEngineStepZeroAllocsBaseline covers the attack-free hover of
// the full architecture: all five Table-I streams active.
func TestEngineStepZeroAllocsBaseline(t *testing.T) {
	if allocs := stepAllocs(t, ScenarioBaseline(), 3*time.Second, 2000); allocs != 0 {
		t.Fatalf("baseline steady-state Engine.Step allocates %.2f times per tick, want 0", allocs)
	}
}

// TestEngineStepZeroAllocsMemDoS covers the memory-DoS deployment
// (host-side complex controller, Bandwidth attacker in the container).
func TestEngineStepZeroAllocsMemDoS(t *testing.T) {
	if allocs := stepAllocs(t, ScenarioMemDoS(true), 12*time.Second, 2000); allocs != 0 {
		t.Fatalf("memdos steady-state Engine.Step allocates %.2f times per tick, want 0", allocs)
	}
}

// warmRunAllocs measures allocations of one complete steady-state
// campaign run — tick-0 restore, full flight, Result extraction — after
// the warm-up run has populated every pool and scratch buffer.
func warmRunAllocs(t *testing.T, cfg Config) float64 {
	t.Helper()
	cfg.Duration = 2 * time.Second
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := sys.Snapshot()
	var res Result
	run := func() {
		sys.RestoreFrom(7, base)
		if err := sys.ResumeContextInto(context.Background(), &res); err != nil {
			t.Fatal(err)
		}
	}
	run()
	run()
	return testing.AllocsPerRun(3, run)
}

// TestWarmCampaignRunAllocs extends the zero-alloc regression gate
// from a single Engine.Step to an entire steady-state campaign run:
// with the System reused and the Result buffers pooled, a warm
// baseline run, single drone or fleet, is allocation-free end to end,
// and a warm flood run is bounded by its per-launch attack setup
// (flood generator, trace events), not by anything per-tick or
// per-record.
func TestWarmCampaignRunAllocs(t *testing.T) {
	if allocs := warmRunAllocs(t, ScenarioBaseline()); allocs > 4 {
		t.Fatalf("warm baseline campaign run allocates %.1f times, want <= 4", allocs)
	}
	flood := ScenarioFlood()
	// Launch the attack inside the shortened flight so the warm run
	// exercises the whole flood path, not an attack-free prefix.
	flood.Attack.Start = 500 * time.Millisecond
	if allocs := warmRunAllocs(t, flood); allocs > 64 {
		t.Fatalf("warm flood campaign run allocates %.1f times, want <= 64", allocs)
	}
	// A fleet run refills every member's report; its Streams and Tasks
	// arrays are reused like the leader's.
	if allocs := warmRunAllocs(t, MustBuild("swarm-baseline", Options{})); allocs > 4 {
		t.Fatalf("warm swarm-baseline campaign run allocates %.1f times, want <= 4", allocs)
	}
}
