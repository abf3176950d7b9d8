package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"containerdrone/internal/sim"
)

// snapEquivScenarios covers the structurally distinct snapshot paths:
// a flood attack (network + container task arrival), a sensor fault
// (RNG-heavy), a mission kill (mission state + monitor failover), the
// host-deployment memory DoS (no container controller), link jitter
// (netsim link swap), and the MAVLink replay (replayFrames capture).
var snapEquivScenarios = []string{
	"udpflood", "gps-spoof", "mission-kill", "memdos", "jitter", "mav-replay",
}

// runOutcome flattens the comparable parts of a Result for equality
// checks: everything except the Log/Trace pointers, which are compared
// separately by value.
type runOutcome struct {
	crashed    bool
	crashTime  time.Duration
	switched   bool
	switchTime time.Duration
	switchRule string
	violations int
	garbage    int64
	mission    bool
	metrics    [3]float64
	tasks      []TaskReport
	streams    []StreamStat
	idle       [NumCores]float64
	logLen     int
	traceLen   int
}

func outcomeOf(r *Result) runOutcome {
	return runOutcome{
		crashed: r.Crashed, crashTime: r.CrashTime,
		switched: r.Switched, switchTime: r.SwitchTime, switchRule: string(r.SwitchRule),
		violations: len(r.Violations), garbage: r.GarbagePkts, mission: r.MissionComplete,
		metrics: [3]float64{r.Metrics.RMSError, r.Metrics.MaxDeviation, r.Metrics.MaxTilt},
		tasks:   r.Tasks, streams: r.Streams, idle: r.IdleRates,
		logLen: r.Log.Len(), traceLen: r.Trace.Len(),
	}
}

func assertSameOutcome(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(outcomeOf(want), outcomeOf(got)) {
		t.Fatalf("%s: outcome diverged\nwant %+v\ngot  %+v", label, outcomeOf(want), outcomeOf(got))
	}
	ws, gs := want.Log.Samples(), got.Log.Samples()
	for i := range ws {
		if ws[i] != gs[i] {
			t.Fatalf("%s: log sample %d diverged\nwant %+v\ngot  %+v", label, i, ws[i], gs[i])
		}
	}
}

// TestSnapshotRestoreEquivalence is the core-level restore gate: a run
// paused mid-prefix, snapshotted, and resumed — on the donor itself and
// on a restored warm sibling — must match a cold run bit for bit.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("snapshot equivalence is slow; run without -short")
	}
	const seed = 7
	const dur = 14 * time.Second
	ctx := context.Background()
	for _, name := range snapEquivScenarios {
		t.Run(name, func(t *testing.T) {
			cfg, err := Build(name, Options{Seed: seed, Duration: dur})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			coldRes := cold.Run()

			// Donor: pause two seconds in (strictly before every onset
			// in the list above), snapshot, and finish the flight.
			donor, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			forkTick := sim.TicksFor(2 * time.Second)
			if err := donor.RunToTickContext(ctx, forkTick); err != nil {
				t.Fatal(err)
			}
			if err := donor.Snapshotable(); err != nil {
				t.Fatalf("donor not snapshotable at tick %d: %v", forkTick, err)
			}
			snap := donor.Snapshot()
			if snap.Tick() != forkTick {
				t.Fatalf("snapshot tick = %d, want %d", snap.Tick(), forkTick)
			}
			var donorRes Result
			if err := donor.ResumeContextInto(ctx, &donorRes); err != nil {
				t.Fatal(err)
			}
			assertSameOutcome(t, "donor resume", coldRes, &donorRes)

			// Warm sibling: dirty it with a full decoy flight under a
			// different seed, then restore the snapshot and resume.
			warm, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			warm.RestoreFrom(0xDECAF, warm.Snapshot())
			warm.Run()
			warm.RestoreFrom(seed, snap)
			var forkRes Result
			if err := warm.ResumeContextInto(ctx, &forkRes); err != nil {
				t.Fatal(err)
			}
			assertSameOutcome(t, "warm fork", coldRes, &forkRes)

			// The snapshot survives its forks: restore a second sibling
			// from the same capture and it must still match.
			again, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			again.RestoreFrom(seed, snap)
			var againRes Result
			if err := again.ResumeContextInto(ctx, &againRes); err != nil {
				t.Fatal(err)
			}
			assertSameOutcome(t, "second fork from same snapshot", coldRes, &againRes)
		})
	}
}
