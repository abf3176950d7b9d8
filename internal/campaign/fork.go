package campaign

import (
	"fmt"
	"strings"
	"time"

	"containerdrone/internal/attack"
	"containerdrone/internal/core"
	"containerdrone/internal/fault"
	"containerdrone/internal/monitor"
	"containerdrone/internal/sim"
)

// Stats summarizes a campaign's execution economics. In prefix-sharing
// mode the planner groups grid points that fly an identical pre-onset
// prefix and forks the variants from one mid-run snapshot; TicksSaved
// counts the prefix ticks those forks did not have to re-fly.
type Stats struct {
	// TicksFlown is the number of engine ticks actually executed.
	TicksFlown int64 `json:"ticks_flown"`
	// TicksSaved is the number of ticks avoided by restoring forks
	// from a shared prefix snapshot instead of re-flying the prefix.
	TicksSaved int64 `json:"ticks_saved"`
	// ForkGroups is the number of multi-point groups the planner
	// qualified for prefix sharing (before any runtime fallback).
	ForkGroups int `json:"fork_groups"`
	// ForkedRuns is the number of runs that were restored from a
	// snapshot rather than flown from tick zero.
	ForkedRuns int `json:"forked_runs"`
	// PrefixShareRatio is the fraction of total demanded ticks that
	// prefix sharing avoided: saved / (flown + saved), set once the
	// pool drains. Zero when nothing forked.
	PrefixShareRatio float64 `json:"prefix_share_ratio"`

	// RunsFailed counts runs that settled with a failure record after
	// actually executing (panics, build failures, injected permanent
	// errors) — campaign cancellation is not a run failure.
	// RunsPanicked is the quarantined subset recovered at the worker's
	// crash boundary; RunsRetried counts transient re-executions. All
	// three are zero on a healthy campaign, keeping its serialized
	// output byte-identical to pre-recovery builds.
	RunsFailed   int64 `json:"runs_failed,omitempty"`
	RunsPanicked int64 `json:"runs_panicked,omitempty"`
	RunsRetried  int64 `json:"runs_retried,omitempty"`
}

func (s *Stats) add(o Stats) {
	s.TicksFlown += o.TicksFlown
	s.TicksSaved += o.TicksSaved
	s.ForkedRuns += o.ForkedRuns
	s.RunsFailed += o.RunsFailed
	s.RunsPanicked += o.RunsPanicked
	s.RunsRetried += o.RunsRetried
}

// forkGroup is one set of grid points that share a pre-onset prefix:
// for every run index, the members' flights are byte-identical up to
// (not including) forkTick, so one prefix flight per run serves all of
// them. members are point indices in ascending order; the first is the
// group leader, whose index roots the group's per-run seed derivation.
// forkTick == 0 marks a group that does not qualify for sharing (no
// onset, onset at/after flight end, or a singleton group); its members
// run as ordinary full flights.
type forkGroup struct {
	members  []int
	forkTick int64
}

// forkPlan is the grouped view of a campaign grid.
type forkPlan struct {
	groups []forkGroup
	// leaderOf maps each point index to its group leader's index —
	// the point whose index derives the group's per-run seeds.
	leaderOf []int
}

// planPrefixGroups is Run's gate and planner: it sizes the spec, runs
// the per-cell check on every point and groups the campaign grid.
// Without PrefixShare every point leads its own unforked group,
// reproducing the classic per-point campaign exactly (including its
// seed derivation). With it, two points share a group when they build
// the same scenario into Configs whose pre-onset
// behavior is provably identical: everything except the attack plan,
// the post-onset action of the fault plan, and the monitor's
// thresholds (rules and envelope) must agree. Those exempt knobs only
// act at or after their scheduled onset — attack/fault effects begin
// at their Start one-shots, and monitor thresholds cannot fire during
// the benign pre-onset hover (a trip would be caught by the runtime
// Snapshotable probe and the group would fall back to full flights).
//
// Structural caveats honored here:
//   - mav-replay faults stay in the fingerprint entirely: the capture
//     window (Magnitude) is consumed by the receiver BEFORE the replay
//     window opens, and the injector's step cadence derives from Rate.
//   - every other fault spec contributes only its Kind, preserving the
//     engine's process registration shape (one step proc per stepping
//     injector, in spec order) that Snapshot restore requires.
//
// The group's forkTick is the earliest onset one-shot tick across its
// members — every member behaves identically on [0, forkTick).
func planPrefixGroups(spec Spec) (*forkPlan, error) {
	if _, err := Size(len(spec.Points), nil, spec.Runs); err != nil {
		return nil, err
	}
	plan := &forkPlan{leaderOf: make([]int, len(spec.Points))}
	type groupKey struct {
		scenario    string
		fingerprint string
	}
	index := make(map[groupKey]int)
	var ends []int64 // per-group flight length in ticks
	for pi, p := range spec.Points {
		cfg, err := buildPoint(p, spec, 1)
		if err != nil {
			return nil, err
		}
		gi := len(plan.groups)
		if spec.PrefixShare {
			key := groupKey{p.Scenario, prefixFingerprint(cfg)}
			if g, ok := index[key]; ok {
				gi = g
			} else {
				index[key] = gi
			}
		}
		if gi == len(plan.groups) {
			plan.groups = append(plan.groups, forkGroup{})
			ends = append(ends, sim.TicksFor(cfg.Duration))
		}
		g := &plan.groups[gi]
		g.members = append(g.members, pi)
		plan.leaderOf[pi] = g.members[0]
		if t, ok := onsetTick(cfg); ok && (g.forkTick == 0 || t < g.forkTick) {
			g.forkTick = t
		}
	}
	// Qualify each group: the shared prefix must be a proper,
	// non-empty slice of a flight that at least two points share.
	for gi := range plan.groups {
		if g := &plan.groups[gi]; len(g.members) < 2 || g.forkTick >= ends[gi] {
			g.forkTick = 0
		}
	}
	return plan, nil
}

// prefixFingerprint renders the parts of a built Config that shape the
// pre-onset flight into a comparable key. Knobs that only act at or
// after onset are normalized away: the seed (per-run anyway), the
// attack plan, monitor thresholds and envelope rules, and every fault
// spec's timing and severity — except mav-replay, whose capture window
// and step cadence act on the prefix (see planPrefixGroups).
func prefixFingerprint(cfg core.Config) string {
	norm := cfg
	norm.Seed = 0
	norm.Attack = attack.Plan{}
	norm.Rules = monitor.Rules{}
	norm.Envelope = monitor.EnvelopeRules{}
	// Faults are rendered explicitly, not via %+v: fault.Plan's
	// Stringer prints only the kind names, which would hide the
	// spec fields the fingerprint must keep (and those it must drop).
	norm.Faults = fault.Plan{}
	var b strings.Builder
	fmt.Fprintf(&b, "%+v", norm)
	for i, sp := range cfg.Faults.Specs {
		if sp.Kind == fault.KindMAVReplay {
			// FromMember matters pre-onset too: it selects which
			// member's receiver captures frames during the prefix.
			d := sp.WithDefaults()
			fmt.Fprintf(&b, "|fault%d:%v:capture=%v:rate=%v:from=%d", i, sp.Kind, d.Magnitude, d.Rate, sp.FromMember)
		} else {
			fmt.Fprintf(&b, "|fault%d:%v", i, sp.Kind)
		}
	}
	return b.String()
}

// onsetTick returns the engine tick of the earliest attack or fault
// onset one-shot, and whether the config schedules one at all. It uses
// the engine's own At rounding, so "snapshot at this tick" lands
// strictly before the onset callback fires (a one-shot scheduled for
// tick T is still pending when the clock reads T).
func onsetTick(cfg core.Config) (int64, bool) {
	have := false
	var min time.Duration
	consider := func(t time.Duration) {
		if !have || t < min {
			have, min = true, t
		}
	}
	if cfg.Attack.Active() {
		consider(cfg.Attack.Start)
	}
	for _, sp := range cfg.Faults.Specs {
		if sp.Kind != fault.KindNone {
			consider(sp.Start)
		}
	}
	if !have || min <= 0 {
		return 0, false
	}
	return int64((min + sim.Tick/2) / sim.Tick), true
}
