package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"containerdrone/internal/monitor"
	"containerdrone/internal/sim"
	"containerdrone/internal/telemetry"
)

// Result summarizes one scenario run.
//
// For a single-drone run the top-level fields describe the vehicle and
// Members is nil. For a fleet run the top-level fields aggregate:
// Crashed/Switched report the earliest event across members,
// GarbagePkts sums, Violations concatenates in member order, and the
// flight-shape fields (Metrics, Streams, Tasks, Log, ...) describe the
// leader; Members then carries every member's own outcome (leader
// included).
type Result struct {
	Cfg Config

	Crashed   bool
	CrashTime time.Duration

	Switched    bool
	SwitchTime  time.Duration
	SwitchRule  monitor.Rule
	Violations  []monitor.Violation
	GarbagePkts int64

	// MissionComplete reports whether a configured mission visited
	// every waypoint (false when no mission was configured).
	MissionComplete bool

	// Whole-flight and attack-window tracking metrics.
	Metrics       telemetry.Metrics
	AttackMetrics telemetry.Metrics

	Streams   []StreamStat
	IdleRates [NumCores]float64

	// Tasks reports per-task scheduling outcomes — the quantitative
	// reading of the resource-DoS figures (deadline misses and latency
	// inflation during the attack window).
	Tasks []TaskReport

	// Members carries per-member outcomes for fleet runs; nil for a
	// single drone.
	Members []MemberReport

	Log   *telemetry.FlightLog
	Trace *sim.Trace
}

// MemberReport is one fleet member's outcome within a swarm Result.
type MemberReport struct {
	Member int
	Host   string

	Crashed   bool
	CrashTime time.Duration

	Switched    bool
	SwitchTime  time.Duration
	SwitchRule  monitor.Rule
	Violations  []monitor.Violation
	GarbagePkts int64

	MissionComplete bool

	Metrics   telemetry.Metrics
	Streams   []StreamStat
	IdleRates [NumCores]float64
	Tasks     []TaskReport
}

// Run executes the scenario to completion and returns the result.
func (s *System) Run() *Result {
	r, _ := s.RunContext(context.Background())
	return r
}

// RunContext executes the scenario until completion or context
// cancellation. On cancellation it returns the partial result
// accumulated so far together with the context's error. When the
// process has a spare P, the airframes fly on a helper goroutine
// (airframe.go); the result is byte-identical either way.
func (s *System) RunContext(ctx context.Context) (*Result, error) {
	err := s.fly(ctx, s.Engine.Clock().Ticks()+sim.TicksFor(s.Cfg.Duration), true)
	return s.Result(), err
}

// RunContextInto is RunContext writing the outcome into a caller-owned
// Result whose slices are reused — the warm-pool campaign's per-run
// path, which keeps a steady-state campaign run allocation-free. It
// steps the airframes inline: campaign workers already fill every P.
func (s *System) RunContextInto(ctx context.Context, r *Result) error {
	err := s.fly(ctx, s.Engine.Clock().Ticks()+sim.TicksFor(s.Cfg.Duration), false)
	s.resultInto(r)
	return err
}

// RunToTickContext advances the run until the engine clock reaches the
// absolute tick, Stop, or context cancellation — the fork campaign's
// shared-prefix leg, after which the System can be snapshotted.
func (s *System) RunToTickContext(ctx context.Context, tick int64) error {
	return s.fly(ctx, tick, false)
}

// ResumeContextInto advances a mid-run System (typically one just
// restored from a Snapshot, or the prefix leader itself) to the end of
// its configured flight and fills r, reusing r's backing slices — the
// fork campaign's per-variant path.
func (s *System) ResumeContextInto(ctx context.Context, r *Result) error {
	err := s.fly(ctx, sim.TicksFor(s.Cfg.Duration), false)
	s.resultInto(r)
	return err
}

// Result snapshots the current outcome without advancing time.
func (s *System) Result() *Result {
	r := &Result{}
	s.resultInto(r)
	return r
}

// resultInto fills r with the current outcome, reusing its Streams,
// Tasks, and Members backing arrays.
func (s *System) resultInto(r *Result) {
	streams, tasks, members := r.Streams[:0], r.Tasks[:0], r.Members[:0]
	d0 := s.drones[0]
	*r = Result{Cfg: s.Cfg, Log: d0.Log, Trace: s.Trace, GarbagePkts: d0.garbage}
	r.Crashed, r.CrashTime = d0.Log.Crashed()
	if at, rule, ok := d0.Monitor.SwitchedAt(); ok {
		r.Switched, r.SwitchTime, r.SwitchRule = true, at, rule
	}
	r.Violations = d0.Monitor.Violations()
	if d0.mission != nil {
		r.MissionComplete = d0.mission.Done()
	}
	r.Metrics = d0.Log.Metrics()
	if s.Cfg.Attack.Active() {
		r.AttackMetrics = d0.Log.WindowMetrics(s.Cfg.Attack.Start, s.Cfg.Duration)
	}
	r.Streams = streams
	for _, st := range d0.streams {
		r.Streams = append(r.Streams, *st)
	}
	// slices.SortFunc rather than sort.Slice: no reflection, no
	// allocation on the per-run campaign path. Stream names and
	// (core, name) task keys are unique, so the unstable sort still
	// yields one deterministic order.
	slices.SortFunc(r.Streams, func(a, b StreamStat) int { return strings.Compare(a.Name, b.Name) })
	for core := 0; core < NumCores; core++ {
		r.IdleRates[core] = d0.CPU.IdleRate(core)
	}
	r.Tasks = tasks
	appendTaskReports(&r.Tasks, d0)

	if len(s.drones) == 1 {
		return
	}

	// Fleet aggregation: earliest crash/switch across members, summed
	// garbage, violations concatenated in member order (backed by a
	// System-owned scratch so warm-pool runs stay allocation-free at
	// steady state), plus one MemberReport per member.
	s.violScratch = s.violScratch[:0]
	r.Members = members
	for _, d := range s.drones {
		// Reuse the previous run's report at this slot (it survives in
		// the slice's capacity) so its Streams/Tasks backing arrays are
		// recycled instead of reallocated.
		var prev MemberReport
		if cap(r.Members) > len(r.Members) {
			prev = r.Members[:len(r.Members)+1][len(r.Members)]
		}
		mStreams, mTasks := prev.Streams[:0], prev.Tasks[:0]
		m := MemberReport{Member: d.idx, Host: d.hostName, GarbagePkts: d.garbage}
		m.Crashed, m.CrashTime = d.Log.Crashed()
		if at, rule, ok := d.Monitor.SwitchedAt(); ok {
			m.Switched, m.SwitchTime, m.SwitchRule = true, at, rule
		}
		m.Violations = d.Monitor.Violations()
		if d.mission != nil {
			m.MissionComplete = d.mission.Done()
		}
		m.Metrics = d.Log.Metrics()
		m.Streams = mStreams
		for _, st := range d.streams {
			m.Streams = append(m.Streams, *st)
		}
		slices.SortFunc(m.Streams, func(a, b StreamStat) int { return strings.Compare(a.Name, b.Name) })
		for core := 0; core < NumCores; core++ {
			m.IdleRates[core] = d.CPU.IdleRate(core)
		}
		m.Tasks = mTasks
		appendTaskReports(&m.Tasks, d)
		r.Members = append(r.Members, m)

		if d.idx > 0 {
			r.GarbagePkts += d.garbage
			if m.Crashed && (!r.Crashed || m.CrashTime < r.CrashTime) {
				r.Crashed, r.CrashTime = true, m.CrashTime
			}
			if m.Switched && (!r.Switched || m.SwitchTime < r.SwitchTime) {
				r.Switched, r.SwitchTime, r.SwitchRule = true, m.SwitchTime, m.SwitchRule
			}
		}
		s.violScratch = append(s.violScratch, m.Violations...)
	}
	r.Violations = s.violScratch
}

// appendTaskReports appends one TaskReport per scheduler task of the
// member, sorted by (core, name).
func appendTaskReports(out *[]TaskReport, d *Drone) {
	base := len(*out)
	for _, task := range d.CPU.Tasks() {
		st := task.Stats()
		*out = append(*out, TaskReport{
			Name:       task.Name,
			Core:       task.Core,
			Priority:   task.Priority,
			Released:   st.Released,
			Completed:  st.Completed,
			Missed:     st.Missed,
			MissRate:   st.MissRate(),
			AvgLatency: st.AvgLatency(),
			MaxLatency: st.MaxLatency,
		})
	}
	slices.SortFunc((*out)[base:], func(a, b TaskReport) int {
		if a.Core != b.Core {
			return a.Core - b.Core
		}
		return strings.Compare(a.Name, b.Name)
	})
}

// TaskReport is one task's scheduling outcome over the run.
type TaskReport struct {
	Name       string
	Core       int
	Priority   int
	Released   int64
	Completed  int64
	Missed     int64
	MissRate   float64
	AvgLatency time.Duration
	MaxLatency time.Duration
}

// Summary renders a human-readable digest of the run.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flight %v  attack=%v@%v\n", r.Cfg.Duration, r.Cfg.Attack.Kind, r.Cfg.Attack.Start)
	if n := len(r.Members); n > 0 {
		fmt.Fprintf(&b, "  fleet of %d drones\n", n)
	}
	if r.Crashed {
		fmt.Fprintf(&b, "  CRASHED at %.1fs\n", r.CrashTime.Seconds())
	} else {
		fmt.Fprintf(&b, "  survived\n")
	}
	if r.Switched {
		fmt.Fprintf(&b, "  Simplex switch at %.2fs (%s)\n", r.SwitchTime.Seconds(), r.SwitchRule)
	}
	fmt.Fprintf(&b, "  RMS err %.3fm  max dev %.3fm  max tilt %.1f°\n",
		r.Metrics.RMSError, r.Metrics.MaxDeviation, telemetry.Degrees(r.Metrics.MaxTilt))
	for i := range r.Members {
		m := &r.Members[i]
		state := "ok"
		if m.Crashed {
			state = fmt.Sprintf("CRASHED at %.1fs", m.CrashTime.Seconds())
		} else if m.Switched {
			state = fmt.Sprintf("switched at %.2fs (%s)", m.SwitchTime.Seconds(), m.SwitchRule)
		}
		fmt.Fprintf(&b, "  member %d (%s): %s  RMS err %.3fm\n", m.Member, m.Host, state, m.Metrics.RMSError)
	}
	return b.String()
}
