package campaign

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"containerdrone/internal/core"
)

// TestSwarmWarmParallelEquivalence is the fleet acceptance gate for
// the warm-pool engine: a 3-drone campaign (peer flood sweep plus a
// cross-drone replay point) must produce the records of fresh builds
// (coldRun) at every worker count. Swarm systems carry N members'
// worth of resettable state over one shared fabric; any member state
// the Reset path misses, or any cross-member aliasing in the pooled
// Results, shows up here as a parallel- or mode-dependent diff.
func TestSwarmWarmParallelEquivalence(t *testing.T) {
	points := Expand("swarm-peer-flood", nil, []Sweep{
		{Key: "attack.rate", Values: []float64{10000, 20000}},
	})
	points = append(points, Expand("swarm-cross-replay", nil, nil)...)
	spec := Spec{
		Points:   points,
		Runs:     2,
		BaseSeed: 7,
		// Long enough that the flood (8 s) and the replay (12 s)
		// both fire: equivalence over flights where nothing happened
		// would not test the rewind of fired fleet state.
		Duration: 16 * time.Second,
	}

	want, _ := coldRun(t, spec)
	for _, par := range []int{1, 3, 8} {
		warm := spec
		warm.Parallel = par
		got, _, _, err := Run(context.Background(), warm)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("parallel=%d record %d differs from fresh builds:\n warm: %+v\n cold: %+v",
					par, i, got[i], want[i])
			}
		}
	}
}

// TestFleetRecordIsWorstVehicle pins the fleet rule at seed 7, where
// one member switches and the others hover undisturbed: the Record
// takes its switch from the switcher and its RMSError, MaxDeviation
// and MissRate from the worst member, not from the leader. In
// swarm-peer-flood the leader is the victim, so both readings agree.
func TestFleetRecordIsWorstVehicle(t *testing.T) {
	for _, tc := range []struct {
		scenario    string
		switcher    int
		switchS     float64
		rms, maxDev float64 // the switcher's own, in m
	}{
		{"swarm-compromised", 1, 8.95, 0.133, 0.272},
		{"swarm-cross-replay", 2, 12.57, 0.117, 0.201},
		{"swarm-peer-flood", 0, 9.18, 0.167, 0.404},
	} {
		cfg, err := core.Build(tc.scenario, core.Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := sys.Run()
		var rec Record
		fill(&rec, res)

		var worst Record
		for _, m := range res.Members {
			if m.Switched != (m.Member == tc.switcher) {
				t.Fatalf("%s: member %d switched=%v, want only member %d", tc.scenario, m.Member, m.Switched, tc.switcher)
			}
			one := core.Result{Outcome: m.Outcome}
			var r Record
			fill(&r, &one)
			worst.RMSError = max(worst.RMSError, r.RMSError)
			worst.MaxDeviation = max(worst.MaxDeviation, r.MaxDeviation)
			worst.MissRate = max(worst.MissRate, r.MissRate)
		}
		if rec.RMSError != worst.RMSError || rec.MaxDeviation != worst.MaxDeviation || rec.MissRate != worst.MissRate {
			t.Fatalf("%s: record %+v, want the worst member's %+v", tc.scenario, rec, worst)
		}
		if !rec.Switched || math.Abs(rec.SwitchS-tc.switchS) > 1e-9 ||
			math.Abs(rec.RMSError-tc.rms) > 5e-4 || math.Abs(rec.MaxDeviation-tc.maxDev) > 5e-4 {
			t.Fatalf("%s: record switch %v at %v s, RMS %.4f, max dev %.4f; want a switch at %v s, %.3f, %.3f",
				tc.scenario, rec.Switched, rec.SwitchS, rec.RMSError, rec.MaxDeviation, tc.switchS, tc.rms, tc.maxDev)
		}
	}
}
