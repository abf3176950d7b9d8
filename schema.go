package containerdrone

import (
	"fmt"
	"math"
	"time"

	"containerdrone/internal/attack"
	"containerdrone/internal/control"
	"containerdrone/internal/core"
	"containerdrone/internal/fault"
	"containerdrone/internal/monitor"
	"containerdrone/internal/physics"
	"containerdrone/internal/telemetry"
)

// SchemaVersion is the version stamped into every serializable SDK
// type (Config, Result, CampaignResult). Decoders reject payloads
// from a different major schema so remote workers and collectors fail
// loudly instead of misreading fields.
//
// v2 added swarm support: Config.Drones/FleetSpacingM, the attack
// Member/Target and fault Member/FromMember selectors, and per-member
// outcomes in Result.Members. v1 payloads decode as v2 (every added
// field defaults to the single-drone reading), but the stamp is bumped
// because v2 payloads can carry fleet semantics a v1 consumer would
// silently drop.
const SchemaVersion = 2

// Vec3 is a 3D vector in the simulation's NED-less world frame
// (X east, Y north, Z up), meters.
type Vec3 struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	Z float64 `json:"z"`
}

func (v Vec3) internal() physics.Vec3 { return physics.Vec3{X: v.X, Y: v.Y, Z: v.Z} }
func fromVec3(v physics.Vec3) Vec3    { return Vec3{X: v.X, Y: v.Y, Z: v.Z} }

// Waypoint is one leg of a mission flown by the complex controller.
type Waypoint struct {
	Pos Vec3 `json:"pos"`
	// Yaw is the heading to hold at the waypoint, radians.
	Yaw float64 `json:"yaw,omitempty"`
	// HoldS is how long to dwell at the waypoint, seconds.
	HoldS float64 `json:"hold_s,omitempty"`
	// RadiusM is the acceptance radius in meters (0 = default).
	RadiusM float64 `json:"radius_m,omitempty"`
}

// Attack names an adversary plan: one of the kind strings reported by
// AttackKinds ("bandwidth", "udp-flood", "kill-controller",
// "cpu-hog", or "none").
type Attack struct {
	Kind string `json:"kind"`
	// StartS is the attack launch time in simulated seconds.
	StartS float64 `json:"start_s,omitempty"`
	// Rate parameterizes the attack: accesses/s for bandwidth,
	// packets/s for udp-flood; ignored otherwise.
	Rate float64 `json:"rate,omitempty"`
	// Member selects which fleet member's container the attack code
	// runs in (0 = the leader; ignored for single-drone runs).
	Member int `json:"member,omitempty"`
	// Target selects the member a udp-flood is aimed at. Equal to
	// Member it reproduces the classic in-drone flood; different, the
	// flood crosses the shared fabric to the victim's motor port.
	Target int `json:"target,omitempty"`
}

// Active reports whether the attack is anything other than "none".
func (a Attack) Active() bool { return a.Kind != "" && a.Kind != attack.KindNone.String() }

// AttackKinds lists the attack kind strings accepted by Attack.Kind.
func AttackKinds() []string {
	kinds := []attack.Kind{attack.KindNone, attack.KindBandwidth, attack.KindFlood, attack.KindKill, attack.KindCPUHog}
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.String()
	}
	return out
}

// Fault names one timed environmental failure: one of the kind
// strings reported by FaultKinds ("gps-spoof", "imu-bias",
// "baro-drop", "netsplit", "mav-replay", "jitter", "prio-inv",
// "rotor-decay"). Faults compose — a Config may carry several, with
// overlapping windows. Magnitude and Rate are kind-specific
// severities; zero selects the kind's default (see internal/fault).
type Fault struct {
	Kind string `json:"kind"`
	// StartS is the fault window start in simulated seconds.
	StartS float64 `json:"start_s,omitempty"`
	// DurationS bounds the window; 0 keeps the fault active to the
	// end of the run.
	DurationS float64 `json:"duration_s,omitempty"`
	// Magnitude is the kind-specific severity (offset meters, gyro
	// bias rad/s, jitter sigma seconds, capture frames, spinner
	// priority, efficiency loss fraction).
	Magnitude float64 `json:"magnitude,omitempty"`
	// Rate is the kind-specific intensity (drift m/s, loss
	// probability, replay frames/s, decay 1/s).
	Rate float64 `json:"rate,omitempty"`
	// Member selects the fleet member the fault strikes (0 = the
	// leader; ignored for single-drone runs).
	Member int `json:"member,omitempty"`
	// FromMember, for mav-replay only, selects the member whose
	// command frames are captured; the replay is injected at Member.
	// Different members give a cross-drone replay.
	FromMember int `json:"from_member,omitempty"`
}

// FaultKinds lists the fault kind strings accepted by Fault.Kind.
func FaultKinds() []string {
	kinds := fault.Kinds()
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.String()
	}
	return out
}

func fromFaultSpec(s fault.Spec) Fault {
	return Fault{
		Kind:       s.Kind.String(),
		StartS:     s.Start.Seconds(),
		DurationS:  s.Duration.Seconds(),
		Magnitude:  s.Magnitude,
		Rate:       s.Rate,
		Member:     s.Member,
		FromMember: s.FromMember,
	}
}

func (f Fault) internal() (fault.Spec, error) {
	kind, err := fault.ParseKind(f.Kind)
	if err != nil {
		return fault.Spec{}, err
	}
	return fault.Spec{
		Kind:       kind,
		Start:      durFromS(f.StartS),
		Duration:   durFromS(f.DurationS),
		Magnitude:  f.Magnitude,
		Rate:       f.Rate,
		Member:     f.Member,
		FromMember: f.FromMember,
	}, nil
}

// Config is the serializable description of one run: a registered
// scenario name plus the overrides to apply on top of its preset. It
// is the unit of remote dispatch — build it with New/NewConfig (or
// decode it from JSON), ship it anywhere, and NewFromConfig
// reconstructs an identical deterministic run.
type Config struct {
	SchemaVersion int    `json:"schema_version"`
	Scenario      string `json:"scenario"`
	// Seed overrides the scenario seed when non-zero; equal seeds
	// give byte-identical runs.
	Seed uint64 `json:"seed,omitempty"`
	// DurationS overrides the flight length (seconds) when non-zero.
	DurationS float64 `json:"duration_s,omitempty"`
	// Params are named numeric overrides applied in sorted key order;
	// ParamInfos lists the key set.
	Params map[string]float64 `json:"params,omitempty"`
	// Attack, when non-nil, replaces the scenario's attack plan.
	Attack *Attack `json:"attack,omitempty"`
	// Faults, when non-empty, replaces the scenario's fault plan with
	// this composable set of timed failures.
	Faults []Fault `json:"faults,omitempty"`
	// Mission, when non-empty, replaces the scenario's static
	// setpoint (or preset mission) with this waypoint sequence.
	Mission []Waypoint `json:"mission,omitempty"`
	// Drones, when > 1, hosts a fleet of that many drones on one
	// shared network fabric: member 0 leads, members 1..n-1 hold
	// formation slots behind it. 0 keeps the scenario's own fleet
	// size (1 for every classic scenario).
	Drones int `json:"drones,omitempty"`
	// FleetSpacingM is the formation slot spacing in meters (0 =
	// default). Only meaningful when the run hosts a fleet.
	FleetSpacingM float64 `json:"fleet_spacing_m,omitempty"`
}

// build resolves the portable Config into the internal scenario
// config via the registry.
func (c Config) build() (core.Config, error) {
	if c.SchemaVersion != 0 && (c.SchemaVersion < 1 || c.SchemaVersion > SchemaVersion) {
		return core.Config{}, fmt.Errorf("containerdrone: config schema v%d, this SDK speaks v1..v%d", c.SchemaVersion, SchemaVersion)
	}
	if c.Scenario == "" {
		return core.Config{}, fmt.Errorf("containerdrone: config names no scenario")
	}
	cfg, err := core.Build(c.Scenario, core.Options{
		Seed:     c.Seed,
		Duration: durFromS(c.DurationS),
		Params:   c.Params,
	})
	if err != nil {
		return core.Config{}, err
	}
	if c.Attack != nil {
		kind, err := attack.ParseKind(c.Attack.Kind)
		if err != nil {
			return core.Config{}, err
		}
		cfg.Attack = attack.Plan{
			Kind: kind, Start: durFromS(c.Attack.StartS), Rate: c.Attack.Rate,
			Member: c.Attack.Member, Target: c.Attack.Target,
		}
	}
	if len(c.Faults) > 0 {
		specs := make([]fault.Spec, len(c.Faults))
		for i, f := range c.Faults {
			sp, err := f.internal()
			if err != nil {
				return core.Config{}, err
			}
			specs[i] = sp
		}
		cfg.Faults = fault.Plan{Specs: specs}
	}
	if len(c.Mission) > 0 {
		cfg.Mission = make([]control.Waypoint, len(c.Mission))
		for i, w := range c.Mission {
			cfg.Mission[i] = control.Waypoint{
				Pos:    w.Pos.internal(),
				Yaw:    w.Yaw,
				Hold:   durFromS(w.HoldS),
				Radius: w.RadiusM,
			}
		}
	}
	if c.Drones > 0 {
		cfg.Drones = c.Drones
	}
	if c.FleetSpacingM > 0 {
		cfg.FleetSpacing = c.FleetSpacingM
	}
	return cfg, nil
}

// Sample is one telemetry sample of a flight: where the vehicle was,
// where it was told to be, and which controller was in charge.
type Sample struct {
	TimeS    float64 `json:"t_s"`
	Pos      Vec3    `json:"pos"`
	Setpoint Vec3    `json:"setpoint"`
	Roll     float64 `json:"roll"`
	Pitch    float64 `json:"pitch"`
	Yaw      float64 `json:"yaw"`
	// Source is the controller driving the actuators at this sample
	// ("complex", "safety", or "host").
	Source string `json:"source"`
}

// Time returns the sample time as a duration.
func (s Sample) Time() time.Duration { return durFromS(s.TimeS) }

func fromSample(s telemetry.Sample) Sample {
	return Sample{
		TimeS:    s.Time.Seconds(),
		Pos:      fromVec3(s.Position),
		Setpoint: fromVec3(s.Setpoint),
		Roll:     s.Roll, Pitch: s.Pitch, Yaw: s.Yaw,
		Source: s.Source,
	}
}

func (s Sample) internal() telemetry.Sample {
	return telemetry.Sample{
		Time:     durFromS(s.TimeS),
		Position: s.Pos.internal(),
		Setpoint: s.Setpoint.internal(),
		Roll:     s.Roll, Pitch: s.Pitch, Yaw: s.Yaw,
		Source: s.Source,
	}
}

// Metrics summarizes tracking quality over a window of samples.
type Metrics struct {
	// RMSErrorM is the 3D RMS setpoint error, meters.
	RMSErrorM float64 `json:"rms_error_m"`
	// MaxDeviationM is the worst 3D setpoint error, meters.
	MaxDeviationM float64 `json:"max_deviation_m"`
	// MaxTiltRad is the worst roll/pitch magnitude, radians.
	MaxTiltRad float64 `json:"max_tilt_rad"`
	Samples    int     `json:"samples"`
}

// MaxTiltDeg returns the worst tilt in degrees.
func (m Metrics) MaxTiltDeg() float64 { return telemetry.Degrees(m.MaxTiltRad) }

func fromMetrics(m telemetry.Metrics) Metrics {
	return Metrics{
		RMSErrorM:     m.RMSError,
		MaxDeviationM: m.MaxDeviation,
		MaxTiltRad:    m.MaxTilt,
		Samples:       m.Samples,
	}
}

// Violation records one security-rule firing.
type Violation struct {
	Rule  string  `json:"rule"`
	TimeS float64 `json:"t_s"`
	Info  string  `json:"info,omitempty"`
}

func fromViolation(v monitor.Violation) Violation {
	return Violation{Rule: string(v.Rule), TimeS: v.Time.Seconds(), Info: v.Info}
}

// StreamStat counts one HCE↔CCE data stream (Table I).
type StreamStat struct {
	Name       string `json:"name"`
	Port       int    `json:"port"`
	FrameSizeB int    `json:"frame_size_b"`
	Packets    int64  `json:"packets"`
}

// TaskReport is one task's scheduling outcome over the run.
type TaskReport struct {
	Name        string  `json:"name"`
	Core        int     `json:"core"`
	Priority    int     `json:"priority"`
	Released    int64   `json:"released"`
	Completed   int64   `json:"completed"`
	Missed      int64   `json:"missed"`
	MissRate    float64 `json:"miss_rate"`
	AvgLatencyS float64 `json:"avg_latency_s"`
	MaxLatencyS float64 `json:"max_latency_s"`
}

// AvgLatency returns the mean job latency as a duration.
func (t TaskReport) AvgLatency() time.Duration { return durFromS(t.AvgLatencyS) }

// MaxLatency returns the worst job latency as a duration.
func (t TaskReport) MaxLatency() time.Duration { return durFromS(t.MaxLatencyS) }

// Result is the serializable outcome of one run. It is self-contained:
// everything the reporting helpers need (summary, sparklines, plots,
// window metrics, trajectory CSV, blackbox) is derived from the
// serialized fields, so a Result collected from a remote worker via
// JSON behaves exactly like one produced locally.
type Result struct {
	SchemaVersion int `json:"schema_version"`
	// Config is the request that produced this result.
	Config Config `json:"config"`
	// DurationS is the resolved flight length, seconds.
	DurationS float64 `json:"duration_s"`
	// Attack is the resolved adversary plan ("none" when attack-free).
	Attack Attack `json:"attack"`
	// Faults is the resolved fault plan with kind-specific defaults
	// filled in (empty when the flight is fault-free).
	Faults []Fault `json:"faults,omitempty"`

	Crashed bool    `json:"crashed"`
	CrashS  float64 `json:"crash_s,omitempty"`

	Switched   bool        `json:"switched"`
	SwitchS    float64     `json:"switch_s,omitempty"`
	SwitchRule string      `json:"switch_rule,omitempty"`
	Violations []Violation `json:"violations,omitempty"`

	// Canceled marks a partial result from a context-canceled run.
	Canceled bool `json:"canceled,omitempty"`

	GarbagePkts     int64 `json:"garbage_pkts,omitempty"`
	MissionComplete bool  `json:"mission_complete,omitempty"`

	Metrics       Metrics `json:"metrics"`
	AttackMetrics Metrics `json:"attack_metrics"`

	Streams   []StreamStat `json:"streams,omitempty"`
	IdleRates []float64    `json:"idle_rates,omitempty"`
	Tasks     []TaskReport `json:"tasks,omitempty"`

	// Members carries per-member outcomes for fleet runs (leader
	// included), empty for a single drone. The top-level fields then
	// aggregate: Crashed/Switched report the earliest event across the
	// fleet, GarbagePkts sums, Violations concatenate in member order,
	// and the flight-shape fields describe the leader.
	Members []MemberResult `json:"members,omitempty"`

	// Samples is the full telemetry trajectory at the configured
	// telemetry rate.
	Samples []Sample `json:"samples,omitempty"`
	// Trace is the run's event log, one rendered line per event.
	Trace []string `json:"trace,omitempty"`

	// log caches the reconstructed flight log for the reporting
	// helpers; it is rebuilt from Samples after a JSON round trip.
	log *telemetry.FlightLog
}

// MemberResult is one fleet member's own outcome within a swarm
// Result. Apart from Member and Host its fields are Result's outcome
// fields (crash, switch, violations, garbage, mission, metrics,
// streams, idle rates, tasks), with the same names, tags and meaning,
// each for this member alone.
type MemberResult struct {
	Member int    `json:"member"`
	Host   string `json:"host"`

	Crashed bool    `json:"crashed"`
	CrashS  float64 `json:"crash_s,omitempty"`

	Switched   bool        `json:"switched"`
	SwitchS    float64     `json:"switch_s,omitempty"`
	SwitchRule string      `json:"switch_rule,omitempty"`
	Violations []Violation `json:"violations,omitempty"`

	GarbagePkts     int64 `json:"garbage_pkts,omitempty"`
	MissionComplete bool  `json:"mission_complete,omitempty"`

	Metrics   Metrics      `json:"metrics"`
	Streams   []StreamStat `json:"streams,omitempty"`
	IdleRates []float64    `json:"idle_rates,omitempty"`
	Tasks     []TaskReport `json:"tasks,omitempty"`
}

// fromOutcome converts one vehicle's outcome into the public schema,
// leaving Member and Host unset.
func fromOutcome(o *core.Outcome) MemberResult {
	out := MemberResult{
		Crashed:         o.Crashed,
		Switched:        o.Switched,
		GarbagePkts:     o.GarbagePkts,
		MissionComplete: o.MissionComplete,
		Metrics:         fromMetrics(o.Metrics),
	}
	if o.Crashed {
		out.CrashS = o.CrashTime.Seconds()
	}
	if o.Switched {
		out.SwitchS = o.SwitchTime.Seconds()
		out.SwitchRule = string(o.SwitchRule)
	}
	for _, v := range o.Violations {
		out.Violations = append(out.Violations, fromViolation(v))
	}
	for _, st := range o.Streams {
		out.Streams = append(out.Streams, StreamStat{
			Name: st.Name, Port: st.Port, FrameSizeB: st.FrameSize, Packets: st.Packets,
		})
	}
	out.IdleRates = make([]float64, len(o.IdleRates))
	copy(out.IdleRates, o.IdleRates[:])
	for _, t := range o.Tasks {
		out.Tasks = append(out.Tasks, TaskReport{
			Name: t.Name, Core: t.Core, Priority: t.Priority,
			Released: t.Released, Completed: t.Completed, Missed: t.Missed,
			MissRate:    t.MissRate,
			AvgLatencyS: t.AvgLatency.Seconds(),
			MaxLatencyS: t.MaxLatency.Seconds(),
		})
	}
	return out
}

// fromResult converts an internal run outcome into the public schema.
func fromResult(cfg Config, res *core.Result) *Result {
	o := fromOutcome(&res.Outcome)
	r := &Result{
		SchemaVersion: SchemaVersion,
		Config:        cfg,
		DurationS:     res.Cfg.Duration.Seconds(),
		Attack: Attack{
			Kind:   res.Cfg.Attack.Kind.String(),
			StartS: res.Cfg.Attack.Start.Seconds(),
			Rate:   res.Cfg.Attack.Rate,
			Member: res.Cfg.Attack.Member,
			Target: res.Cfg.Attack.Target,
		},
		Crashed:         o.Crashed,
		CrashS:          o.CrashS,
		Switched:        o.Switched,
		SwitchS:         o.SwitchS,
		SwitchRule:      o.SwitchRule,
		Violations:      o.Violations,
		GarbagePkts:     o.GarbagePkts,
		MissionComplete: o.MissionComplete,
		Metrics:         o.Metrics,
		AttackMetrics:   fromMetrics(res.AttackMetrics),
		Streams:         o.Streams,
		IdleRates:       o.IdleRates,
		Tasks:           o.Tasks,
	}
	for _, sp := range res.Cfg.Faults.Specs {
		r.Faults = append(r.Faults, fromFaultSpec(sp.WithDefaults()))
	}
	for i := range res.Members {
		m := &res.Members[i]
		mr := fromOutcome(&m.Outcome)
		mr.Member, mr.Host = m.Member, m.Host
		r.Members = append(r.Members, mr)
	}
	if res.Log != nil {
		for _, s := range res.Log.Samples() {
			r.Samples = append(r.Samples, fromSample(s))
		}
		r.log = res.Log
	}
	if res.Trace != nil {
		for _, ev := range res.Trace.Events() {
			r.Trace = append(r.Trace, ev.String())
		}
	}
	return r
}

// durFromS converts float seconds back to a duration, rounding to the
// nearest nanosecond so values that crossed a JSON boundary print
// cleanly (152µs, not 151.999µs).
func durFromS(s float64) time.Duration {
	return time.Duration(math.Round(s * float64(time.Second)))
}
