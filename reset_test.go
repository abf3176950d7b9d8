package containerdrone

// White-box reset-equivalence suite: the warm-pool campaign engine
// reuses one core.System across runs by restoring a Snapshot captured
// at tick 0 under each run's seed, so the whole optimization is sound
// only if a rewound engine is indistinguishable from a cold build. This test pins that for every
// registered scenario — including all fault scenarios — at the byte
// level of the full serialized public Result (every telemetry sample,
// violation, stream counter, and task report). It runs under the race
// detector in CI alongside the campaign determinism suite.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

// resetEquivDuration must reach past every registered scenario's
// attack launch and fault window (starts at 8–12 s, window ends by
// 18 s): the states Reset exists to undo — armed flood tasks, open
// jitter stacks, killed receivers, captured replay frames, decayed
// rotors — only come into being once those events fire, so a shorter
// flight would certify a rewind that never rewound anything. Seconds
// of simulated flight cost ≈2 ms of wall clock each.
const resetEquivDuration = 20 * time.Second

// runSimJSON builds and runs one Sim and returns its fully serialized
// Result.
func runSimJSON(t *testing.T, scenario string, seed uint64) []byte {
	t.Helper()
	sim, err := New(scenario, WithSeed(seed), WithDuration(resetEquivDuration))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestResetEquivalence(t *testing.T) {
	scenarios := Scenarios()
	if len(scenarios) < 20 {
		t.Fatalf("registry holds %d scenarios; expected the full set", len(scenarios))
	}
	const (
		seed = 7
		// decoySeed drives the warm engine's first flight: a different
		// stochastic history whose every trace the rewind must erase.
		decoySeed = 0xDECAF
	)
	for _, sc := range scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			want := runSimJSON(t, sc.Name, seed)

			warm, err := New(sc.Name, WithSeed(decoySeed), WithDuration(resetEquivDuration))
			if err != nil {
				t.Fatal(err)
			}
			base := warm.sys.Snapshot()
			if _, err := warm.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			// White-box rewind: restore the underlying System's tick-0
			// snapshot under the target seed and run the same Sim
			// again, exactly as a campaign worker does between runs.
			warm.sys.RestoreFrom(seed, base)
			warm.cfg.Seed = seed
			warm.ran = false
			res, err := warm.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				i := 0
				for i < len(want) && i < len(got) && want[i] == got[i] {
					i++
				}
				lo, hi := max(0, i-80), i+80
				t.Errorf("rewound run differs from cold build at byte %d:\n cold: …%s…\n warm: …%s…",
					i, clipBytes(want, lo, hi), clipBytes(got, lo, hi))
			}
		})
	}
}

func clipBytes(b []byte, lo, hi int) []byte {
	if lo > len(b) {
		lo = len(b)
	}
	if hi > len(b) {
		hi = len(b)
	}
	return b[lo:hi]
}

// TestResetEquivalenceRepeated drives several rewind cycles through one
// engine, alternating seeds, to catch state that survives exactly one
// rewind (a cleared-on-first-use cache, a once-armed one-shot).
func TestResetEquivalenceRepeated(t *testing.T) {
	t.Parallel()
	const scenario = "udpflood" // attack + violation + task-kill path
	wantA := runSimJSON(t, scenario, 3)
	wantB := runSimJSON(t, scenario, 4)

	warm, err := New(scenario, WithSeed(9), WithDuration(resetEquivDuration))
	if err != nil {
		t.Fatal(err)
	}
	base := warm.sys.Snapshot()
	if _, err := warm.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for cycle, step := range []struct {
		seed uint64
		want []byte
	}{{3, wantA}, {4, wantB}, {3, wantA}, {4, wantB}} {
		warm.sys.RestoreFrom(step.seed, base)
		warm.cfg.Seed = step.seed
		warm.ran = false
		res, err := warm.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(step.want, got) {
			t.Fatalf("cycle %d (seed %d): reused run diverged from cold build", cycle, step.seed)
		}
	}
}
