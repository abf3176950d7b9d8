package campaign

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"containerdrone/internal/core"
	"containerdrone/internal/sim"
)

// forkSpec builds the canonical prefix-sharing sweep for one scenario:
// two monitor-threshold variants, which act only after onset (and not
// at all on unmonitored scenarios — an inert sweep still exercises the
// grouping machinery). Every registry scenario qualifies structurally;
// whether the group actually forks depends on it scheduling an onset
// inside the flight.
func forkSpec(scenario string, runs int) Spec {
	return Spec{
		Points: Expand(scenario, nil, []Sweep{
			{Key: "monitor.max-interval", Values: []float64{0.1, 0.15}},
		}),
		Runs:        runs,
		BaseSeed:    1234,
		Duration:    20 * time.Second,
		PrefixShare: true,
	}
}

// TestForkEquivalence is the prefix-sharing correctness gate: for every
// registry scenario, a fork-mode campaign must be byte-identical to the
// same spec flown as fresh full flights at the grouped seeds (coldRun,
// the ground-truth baseline). Scenarios with a scheduled onset must
// actually fork; scenarios without one (baseline, mission) must fall
// back transparently. The gps-spoof-fallback case
// sweeps a receiving-interval threshold tight enough to trip during
// the pre-onset hover: the planner groups its three points, the
// runtime Snapshotable probe refuses every fork, and the members fly
// full flights. CAMPAIGN_EQUIV_RUNS raises the seed count from 2.
func TestForkEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fork equivalence flies every registry scenario; run without -short")
	}
	runs := equivRuns(t, 2)
	type equivCase struct {
		name   string
		spec   Spec
		groups int  // ForkGroups the planner qualifies
		forked bool // whether the group's members actually fork
	}
	var cases []equivCase
	for _, sc := range core.Scenarios() {
		spec := forkSpec(sc.Name, runs)
		cfg, err := core.Build(sc.Name, core.Options{Duration: spec.Duration})
		if err != nil {
			t.Fatal(err)
		}
		tick, ok := onsetTick(cfg)
		fork := ok && tick < sim.TicksFor(cfg.Duration)
		groups := 0
		if fork {
			groups = 1
		}
		cases = append(cases, equivCase{sc.Name, spec, groups, fork})
	}
	fallback := forkSpec("gps-spoof", runs)
	fallback.Points = Expand("gps-spoof", nil, []Sweep{
		{Key: "monitor.max-interval", Values: []float64{0.001, 0.002, 0.003}},
	})
	cases = append(cases, equivCase{"gps-spoof-fallback", fallback, 1, false})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			spec := tc.spec

			forkRec, forkAgg, stats, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			coldRec, coldAgg := coldRun(t, spec)
			for i := range forkRec {
				if !reflect.DeepEqual(forkRec[i], coldRec[i]) {
					t.Fatalf("record %d differs between fork and cold paths:\n fork: %+v\n cold: %+v",
						i, forkRec[i], coldRec[i])
				}
			}
			if !reflect.DeepEqual(forkAgg, coldAgg) {
				t.Fatalf("aggregates differ between fork and cold paths:\n fork: %+v\n cold: %+v",
					forkAgg, coldAgg)
			}

			if stats.ForkGroups != tc.groups {
				t.Fatalf("fork stats = %+v, want %d qualified groups", stats, tc.groups)
			}
			if tc.forked {
				// One group: each run flies the prefix once and forks
				// every other member.
				if want := spec.Runs * (len(spec.Points) - 1); stats.ForkedRuns != want {
					t.Fatalf("fork stats = %+v, want %d forked runs", stats, want)
				}
				if stats.TicksSaved == 0 || stats.PrefixShareRatio <= 0 {
					t.Fatalf("no ticks saved despite forking: %+v", stats)
				}
			} else if stats.ForkedRuns != 0 || stats.TicksSaved != 0 {
				t.Fatalf("unforkable group forked: %+v", stats)
			}
		})
	}
}

// TestForkDeterminismAcrossParallel pins the fork scheduler out of the
// results: the same prefix-sharing spec must produce byte-identical
// records at every worker count, and those records must equal the
// full-flight baseline.
func TestForkDeterminismAcrossParallel(t *testing.T) {
	spec := warmColdSpec(t)
	spec.PrefixShare = true

	want, _ := coldRun(t, spec)
	for _, parallel := range []int{1, 3, 8} {
		s := spec
		s.Parallel = parallel
		got, _, _, err := Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			for i := range want {
				if !reflect.DeepEqual(want[i], got[i]) {
					t.Fatalf("parallel=%d: record %d differs:\n want: %+v\n got:  %+v",
						parallel, i, want[i], got[i])
				}
			}
			t.Fatalf("parallel=%d: records differ from full-flight baseline", parallel)
		}
	}
}

// TestForkStreamIndexOrder verifies the emitter's ordering promise
// under forking, where completion order interleaves group members:
// streamed records must arrive in exact index order (point-major, then
// run) and equal the returned slice element for element.
func TestForkStreamIndexOrder(t *testing.T) {
	for _, mode := range []struct {
		name string
		fork bool
	}{{"full-flight", false}, {"fork", true}} {
		t.Run(mode.name, func(t *testing.T) {
			spec := warmColdSpec(t)
			spec.PrefixShare = mode.fork
			spec.Parallel = 4
			var mu sync.Mutex
			var streamed []Record
			spec.Stream = func(r Record) {
				mu.Lock()
				streamed = append(streamed, r)
				mu.Unlock()
			}
			records, _, _, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(streamed, records) {
				t.Fatalf("streamed sequence differs from index-ordered records:\n stream: %d records\n return: %d records",
					len(streamed), len(records))
			}
		})
	}
}

// TestPlanPrefixGroups exercises the planner's classification directly:
// post-onset sweeps group, pre-onset sweeps stay singletons, and
// onset-free scenarios never qualify.
func TestPlanPrefixGroups(t *testing.T) {
	t.Run("post-onset sweep groups", func(t *testing.T) {
		spec := Spec{
			Points: Expand("memdos", nil, []Sweep{
				{Key: "attack.rate", Values: []float64{1e9, 2e9, 4e9}},
			}),
			Runs: 1, Duration: 12 * time.Second, PrefixShare: true,
		}
		plan, err := planPrefixGroups(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.groups) != 1 {
			t.Fatalf("got %d groups, want 1: %+v", len(plan.groups), plan.groups)
		}
		g := plan.groups[0]
		if !reflect.DeepEqual(g.members, []int{0, 1, 2}) || g.forkTick == 0 {
			t.Fatalf("group = %+v", g)
		}
		cfg := core.MustBuild("memdos", core.Options{})
		want := int64((cfg.Attack.Start + sim.Tick/2) / sim.Tick)
		if g.forkTick != want {
			t.Fatalf("forkTick = %d, want onset tick %d", g.forkTick, want)
		}
		for pi, leader := range plan.leaderOf {
			if leader != 0 {
				t.Fatalf("leaderOf[%d] = %d, want 0", pi, leader)
			}
		}
	})

	t.Run("onset sweep groups at earliest onset", func(t *testing.T) {
		spec := Spec{
			Points: Expand("memdos", nil, []Sweep{
				{Key: "attack.start", Values: []float64{5, 9}},
			}),
			Runs: 1, Duration: 12 * time.Second, PrefixShare: true,
		}
		plan, err := planPrefixGroups(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.groups) != 1 {
			t.Fatalf("got %d groups, want 1", len(plan.groups))
		}
		want := int64((5*time.Second + sim.Tick/2) / sim.Tick)
		if plan.groups[0].forkTick != want {
			t.Fatalf("forkTick = %d, want earliest onset %d", plan.groups[0].forkTick, want)
		}
	})

	t.Run("pre-onset sweep stays singleton", func(t *testing.T) {
		spec := Spec{
			Points: Expand("baseline", nil, []Sweep{
				{Key: "wind", Values: []float64{0, 1}},
			}),
			Runs: 1, Duration: 12 * time.Second, PrefixShare: true,
		}
		plan, err := planPrefixGroups(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.groups) != 2 {
			t.Fatalf("got %d groups, want 2 singletons", len(plan.groups))
		}
		for gi, g := range plan.groups {
			if len(g.members) != 1 || g.forkTick != 0 {
				t.Fatalf("group %d = %+v, want unforked singleton", gi, g)
			}
		}
	})

	t.Run("no onset never qualifies", func(t *testing.T) {
		spec := Spec{
			Points: Expand("mission", nil, []Sweep{
				{Key: "monitor.max-interval", Values: []float64{0.1, 0.15}},
			}),
			Runs: 1, Duration: 12 * time.Second, PrefixShare: true,
		}
		plan, err := planPrefixGroups(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.groups) != 1 || len(plan.groups[0].members) != 2 {
			t.Fatalf("plan = %+v", plan.groups)
		}
		if plan.groups[0].forkTick != 0 {
			t.Fatalf("onset-free group qualified: %+v", plan.groups[0])
		}
	})

	t.Run("mav-replay capture knobs split groups", func(t *testing.T) {
		// The replay capture window (fault.magnitude) shapes pre-onset
		// behavior, so sweeping it must NOT group; sweeping a monitor
		// threshold on the same scenario must.
		split := Spec{
			Points: Expand("mav-replay", nil, []Sweep{
				{Key: "fault.magnitude", Values: []float64{16, 32}},
			}),
			Runs: 1, Duration: 16 * time.Second, PrefixShare: true,
		}
		plan, err := planPrefixGroups(split)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.groups) != 2 {
			t.Fatalf("capture-window sweep grouped: %+v", plan.groups)
		}
		grouped := forkSpec("mav-replay", 1)
		plan, err = planPrefixGroups(grouped)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.groups) != 1 || plan.groups[0].forkTick == 0 {
			t.Fatalf("threshold sweep did not group: %+v", plan.groups)
		}
	})
}

// TestForkSeedsFollowLeader pins the grouped seed derivation: every
// member of a fork group runs the group leader's seed for a given run
// index, so swept variants are compared like for like.
func TestForkSeedsFollowLeader(t *testing.T) {
	spec := forkSpec("udpflood", 2)
	spec.Duration = 10 * time.Second
	records, _, _, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range records {
		pi, ri := i/spec.Runs, i%spec.Runs
		if r.Err != "" {
			t.Fatalf("record %d errored: %s", i, r.Err)
		}
		if want := DeriveSeed(spec.BaseSeed, 0, ri); r.Seed != want {
			t.Fatalf("record %d (point %d run %d) seed = %d, want leader seed %d",
				i, pi, ri, r.Seed, want)
		}
	}
}
