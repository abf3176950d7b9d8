package core

import (
	"context"
	"slices"
	"strings"
	"time"

	"containerdrone/internal/monitor"
	"containerdrone/internal/sim"
	"containerdrone/internal/telemetry"
)

// Result summarizes one scenario run.
//
// The embedded Outcome is the vehicle's own for a single-drone run,
// and Members is nil. For a fleet run the Outcome aggregates:
// Crashed/Switched report the earliest event across members,
// GarbagePkts sums, Violations concatenates in member order, and the
// flight-shape fields (Metrics, Streams, IdleRates, Tasks,
// MissionComplete, as well as AttackMetrics and Log) describe the
// leader; Members then carries every member's own Outcome (leader
// included).
type Result struct {
	Cfg Config
	Outcome

	// AttackMetrics are the tracking metrics over the attack window.
	AttackMetrics telemetry.Metrics

	// Members carries per-member outcomes for fleet runs; nil for a
	// single drone.
	Members []MemberReport

	Log   *telemetry.FlightLog
	Trace *sim.Trace
}

// Outcome is one vehicle's outcome over a run: whether it crashed,
// whether the Simplex switch handed control to the safety controller
// (and on which rule), what the monitor saw, and how it flew.
type Outcome struct {
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

	// Metrics are the whole-flight tracking metrics.
	Metrics   telemetry.Metrics
	Streams   []StreamStat
	IdleRates [NumCores]float64

	// Tasks reports per-task scheduling outcomes — the quantitative
	// reading of the resource-DoS figures (deadline misses and latency
	// inflation during the attack window).
	Tasks []TaskReport
}

// MemberReport is one fleet member's outcome within a swarm Result.
type MemberReport struct {
	Member int
	Host   string
	Outcome
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

// RunToTickContext advances the run until the engine clock reaches the
// absolute tick, Stop, or context cancellation — the fork campaign's
// shared-prefix leg, after which the System can be snapshotted.
func (s *System) RunToTickContext(ctx context.Context, tick int64) error {
	return s.fly(ctx, tick, false)
}

// ResumeContextInto advances the System from wherever its clock stands
// (tick 0 after New or a tick-0 restore, mid-run after a fork restore
// or a shared prefix) to the end of its configured flight and fills r,
// reusing r's backing slices — the campaign worker's one flight path,
// which keeps a steady-state campaign run allocation-free. It steps
// the airframes inline: campaign workers already fill every P.
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
	members, d0 := r.Members[:0], s.drones[0]
	*r = Result{Cfg: s.Cfg, Outcome: r.Outcome, Log: d0.Log, Trace: s.Trace}
	d0.outcomeInto(&r.Outcome)
	if s.Cfg.Attack.Active() {
		r.AttackMetrics = d0.Log.WindowMetrics(s.Cfg.Attack.Start, s.Cfg.Duration)
	}
	if len(s.drones) == 1 {
		return
	}

	// Fleet aggregation: earliest crash/switch across members, summed
	// garbage, violations concatenated in member order (backed by a
	// System-owned scratch so warm-pool runs stay allocation-free at
	// steady state), plus one MemberReport per member. Growing within
	// capacity keeps the previous run's reports, so their Streams/Tasks
	// backing arrays are recycled instead of reallocated.
	s.violScratch = s.violScratch[:0]
	r.Members = slices.Grow(members, len(s.drones))[:len(s.drones)]
	for i, d := range s.drones {
		m := &r.Members[i]
		m.Member, m.Host = d.idx, d.hostName
		d.outcomeInto(&m.Outcome)
		if i > 0 {
			r.GarbagePkts += m.GarbagePkts
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

// outcomeInto fills o with the member's current outcome, reusing its
// Streams and Tasks backing arrays.
func (d *Drone) outcomeInto(o *Outcome) {
	*o = Outcome{
		GarbagePkts: d.garbage,
		Violations:  d.Monitor.Violations(),
		Metrics:     d.Log.Metrics(),
		Streams:     o.Streams[:0],
		Tasks:       o.Tasks[:0],
	}
	o.Crashed, o.CrashTime = d.Log.Crashed()
	if at, rule, ok := d.Monitor.SwitchedAt(); ok {
		o.Switched, o.SwitchTime, o.SwitchRule = true, at, rule
	}
	if d.mission != nil {
		o.MissionComplete = d.mission.Done()
	}
	for _, st := range d.streams {
		o.Streams = append(o.Streams, *st)
	}
	// slices.SortFunc rather than sort.Slice: no reflection, no
	// allocation on the per-run campaign path. Stream names and
	// (core, name) task keys are unique, so the unstable sort still
	// yields one deterministic order.
	slices.SortFunc(o.Streams, func(a, b StreamStat) int { return strings.Compare(a.Name, b.Name) })
	for core := 0; core < NumCores; core++ {
		o.IdleRates[core] = d.CPU.IdleRate(core)
	}
	appendTaskReports(&o.Tasks, d)
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
