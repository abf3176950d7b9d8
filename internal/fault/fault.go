// Package fault implements the fault-injection layer of the
// framework: physical and infrastructural failure modes the paper's
// threat model does not cover but a fielded ContainerDrone must
// survive. Where package attack models an adversary *inside* the
// container (the paper's §III-B smuggled-code threat), package fault
// models everything else that goes wrong around it — sensors that
// lie, links that partition or jitter, a network adversary replaying
// captured MAVLink frames, a misconfigured host task inverting
// priorities, and hardware that degrades mid-flight.
//
// A fault.Plan is a list of timed Specs, mirroring attack.Plan but
// composable: several faults can overlap in one flight. Each Spec is
// armed on the simulation engine as an Injector — Begin fires at
// Spec.Start, Step runs at a fixed cadence while the fault is active,
// and End fires when the window closes (a zero Duration keeps the
// fault active to the end of the run). The injectors themselves are
// wired by the core package, which owns the surfaces they corrupt
// (sensor suite, network fabric, scheduler, rotors).
package fault

import (
	"fmt"
	"strings"
	"time"

	"containerdrone/internal/sched"
	"containerdrone/internal/sim"
)

// Kind enumerates the implemented fault modes.
type Kind int

// Fault kinds. Each corrupts a different layer of the stack: sensors
// (GPSSpoof, IMUBias, BaroDrop), the network fabric (NetSplit,
// Jitter, MAVReplay), the scheduler (PrioInv), or the airframe
// (RotorDecay).
const (
	KindNone Kind = iota
	KindGPSSpoof
	KindIMUBias
	KindBaroDrop
	KindNetSplit
	KindMAVReplay
	KindJitter
	KindPrioInv
	KindRotorDecay
	// KindFleetSplit partitions one fleet member from the ground
	// control station coordinating the formation, so the member flies
	// its last-heard formation slot until the link heals. Requires a
	// multi-drone scenario.
	KindFleetSplit
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindGPSSpoof:
		return "gps-spoof"
	case KindIMUBias:
		return "imu-bias"
	case KindBaroDrop:
		return "baro-drop"
	case KindNetSplit:
		return "netsplit"
	case KindMAVReplay:
		return "mav-replay"
	case KindJitter:
		return "jitter"
	case KindPrioInv:
		return "prio-inv"
	case KindRotorDecay:
		return "rotor-decay"
	case KindFleetSplit:
		return "fleet-split"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Kinds lists every real fault kind (KindNone excluded).
func Kinds() []Kind {
	return []Kind{
		KindGPSSpoof, KindIMUBias, KindBaroDrop, KindNetSplit,
		KindMAVReplay, KindJitter, KindPrioInv, KindRotorDecay,
		KindFleetSplit,
	}
}

// ParseKind resolves a kind from its string name ("none" included).
func ParseKind(s string) (Kind, error) {
	if s == KindNone.String() {
		return KindNone, nil
	}
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return KindNone, fmt.Errorf("fault: unknown kind %q", s)
}

// Spec is one timed fault: what goes wrong, when, for how long, and
// how hard. Magnitude and Rate are kind-specific; zero selects the
// kind's default (see WithDefaults).
type Spec struct {
	Kind  Kind
	Start time.Duration
	// Duration bounds the fault window; zero means the fault persists
	// to the end of the run.
	Duration time.Duration
	// Magnitude is the kind-specific severity:
	//   gps-spoof:   initial position offset, m
	//   imu-bias:    injected gyro bias, rad/s
	//   jitter:      1-sigma extra link latency, s
	//   mav-replay:  capture-window size, frames
	//   prio-inv:    FIFO priority of the inverting spinner
	//   rotor-decay: total fractional thrust-efficiency loss, [0,1)
	Magnitude float64
	// Rate is the kind-specific intensity:
	//   gps-spoof:   spoofed-position drift rate, m/s
	//   jitter:      independent packet-loss probability, [0,1)
	//   mav-replay:  replay injection rate, frames/s
	//   rotor-decay: efficiency loss per second, 1/s
	Rate float64
	// Member selects which fleet member the fault strikes (index into
	// the fleet, 0 = the leader — the only member of a single-drone
	// scenario). Jitter degrades the shared fabric regardless.
	Member int
	// FromMember selects, for mav-replay only, the member whose motor
	// frames the on-path adversary captures; the replay is then
	// injected at Member. Equal values reproduce the single-drone
	// replay; different values model a cross-drone replay on the
	// shared medium.
	FromMember int
}

// Kind-specific defaults, applied by WithDefaults when the Spec field
// is zero.
const (
	DefaultGPSDriftRate     = 0.5  // m/s
	DefaultIMUBias          = 0.08 // rad/s
	DefaultJitterSigma      = 0.02 // s
	DefaultJitterLoss       = 0.2  // probability
	DefaultReplayCapture    = 64   // frames
	DefaultReplayRate       = 4000 // frames/s
	DefaultPrioInvPriority  = 95   // above the FIFO-90 drivers
	DefaultRotorDecayLoss   = 0.35 // fraction of thrust efficiency
	DefaultRotorDecayPerSec = 0.08 // 1/s
)

// WithDefaults returns the spec with zero Magnitude/Rate fields
// replaced by the kind's defaults, so scenario presets and sweeps can
// set only what they mean to vary.
func (s Spec) WithDefaults() Spec {
	switch s.Kind {
	case KindGPSSpoof:
		if s.Rate == 0 {
			s.Rate = DefaultGPSDriftRate
		}
	case KindIMUBias:
		if s.Magnitude == 0 {
			s.Magnitude = DefaultIMUBias
		}
	case KindJitter:
		if s.Magnitude == 0 {
			s.Magnitude = DefaultJitterSigma
		}
		if s.Rate == 0 {
			s.Rate = DefaultJitterLoss
		}
	case KindMAVReplay:
		if s.Magnitude == 0 {
			s.Magnitude = DefaultReplayCapture
		}
		if s.Rate == 0 {
			s.Rate = DefaultReplayRate
		}
	case KindPrioInv:
		if s.Magnitude == 0 {
			s.Magnitude = DefaultPrioInvPriority
		}
	case KindRotorDecay:
		if s.Magnitude == 0 {
			s.Magnitude = DefaultRotorDecayLoss
		}
		if s.Rate == 0 {
			s.Rate = DefaultRotorDecayPerSec
		}
	}
	return s
}

// Validate rejects specs no injector can act on sensibly: negative
// times or severities (WithDefaults fills only zero fields, so a
// negative value would otherwise pass through and silently disable
// the fault — a replay with Rate -1 never sends a frame), and a
// jitter loss probability above 1.
func (s Spec) Validate() error {
	if s.Kind == KindNone {
		return nil
	}
	if s.Start < 0 || s.Duration < 0 {
		return fmt.Errorf("fault: %s window start %v / duration %v must not be negative", s.Kind, s.Start, s.Duration)
	}
	if s.Magnitude < 0 || s.Rate < 0 {
		return fmt.Errorf("fault: %s magnitude %v / rate %v must not be negative", s.Kind, s.Magnitude, s.Rate)
	}
	if s.Member < 0 || s.FromMember < 0 {
		return fmt.Errorf("fault: %s member %d / from-member %d must not be negative", s.Kind, s.Member, s.FromMember)
	}
	if s.Kind == KindJitter && s.Rate > 1 {
		return fmt.Errorf("fault: jitter loss probability %v exceeds 1", s.Rate)
	}
	if s.Kind == KindPrioInv && s.Magnitude != 0 && s.Magnitude < 1 {
		return fmt.Errorf("fault: prio-inv priority %v truncates to 0; use 0 for the default or a value >= 1", s.Magnitude)
	}
	if s.Kind == KindRotorDecay && s.Magnitude > 1 {
		return fmt.Errorf("fault: rotor-decay efficiency loss %v exceeds 1", s.Magnitude)
	}
	if s.Kind == KindMAVReplay && (s.Magnitude > maxReplayCapture || s.Rate > float64(maxReplayRate)) {
		return fmt.Errorf("fault: mav-replay capture %v frames / rate %v frames/s exceeds %d / %d",
			s.Magnitude, s.Rate, maxReplayCapture, maxReplayRate)
	}
	return nil
}

// maxReplayCapture and maxReplayRate bound a mav-replay: the capture
// buffer is allocated when the scenario is built, and the replay
// injects at most one frame per engine tick.
const (
	maxReplayCapture = 1 << 16
	maxReplayRate    = time.Second / sim.Tick
)

// Validate checks every spec in the plan.
func (p Plan) Validate() error {
	for _, s := range p.Specs {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// End returns the absolute end of the fault window and whether one
// exists inside a run of the given length (a zero Duration, or a
// window reaching past the run, has no end event).
func (s Spec) End(runDur time.Duration) (time.Duration, bool) {
	if s.Duration <= 0 {
		return 0, false
	}
	end := s.Start + s.Duration
	if end >= runDur {
		return 0, false
	}
	return end, true
}

// Plan is a composable set of timed faults — the fault analog of
// attack.Plan, except several faults may be active at once.
type Plan struct {
	Specs []Spec
}

// Active reports whether the plan injects any fault.
func (p Plan) Active() bool {
	for _, s := range p.Specs {
		if s.Kind != KindNone {
			return true
		}
	}
	return false
}

// Has reports whether the plan contains a fault of the given kind.
func (p Plan) Has(k Kind) bool {
	for _, s := range p.Specs {
		if s.Kind == k {
			return true
		}
	}
	return false
}

// String joins the plan's kind names ("gps-spoof+jitter"), or "none".
func (p Plan) String() string {
	var names []string
	for _, s := range p.Specs {
		if s.Kind != KindNone {
			names = append(names, s.Kind.String())
		}
	}
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, "+")
}

// Injector is one armed fault: Begin fires at the window start, Step
// runs at the injector's cadence while the window is open, End fires
// at the window close. Implementations close over the surface they
// corrupt (sensor suite, network, scheduler, rotors).
type Injector interface {
	Begin(now time.Duration)
	Step(now time.Duration)
	End(now time.Duration)
}

// FuncInjector adapts closures to Injector; nil members are skipped.
type FuncInjector struct {
	BeginF func(now time.Duration)
	StepF  func(now time.Duration)
	EndF   func(now time.Duration)
}

// Begin runs BeginF if set.
func (f FuncInjector) Begin(now time.Duration) {
	if f.BeginF != nil {
		f.BeginF(now)
	}
}

// Step runs StepF if set.
func (f FuncInjector) Step(now time.Duration) {
	if f.StepF != nil {
		f.StepF(now)
	}
}

// End runs EndF if set.
func (f FuncInjector) End(now time.Duration) {
	if f.EndF != nil {
		f.EndF(now)
	}
}

// stepProcPriority orders injector Step procs within an engine tick:
// after network delivery (0), before the scheduler (10), so corrupted
// sensor/link state is in place before any driver samples it.
const stepProcPriority = 5

// Arm schedules one injector on the engine for the spec's window. A
// positive stepPeriod registers a periodic Step process that is
// enabled only while the window is open, and returns its handle; zero
// arms Begin/End alone and returns the zero Handle. Arm must be called
// at build time (the engine's registration phase).
func Arm(e *sim.Engine, name string, runDur time.Duration, sp Spec, inj Injector, stepPeriod time.Duration) sim.Handle {
	var h sim.Handle
	stepping := stepPeriod > 0
	if stepping {
		h = e.Register(name, stepPeriod, stepProcPriority, sim.ProcFunc(inj.Step))
		h.SetEnabled(false)
	}
	e.At(sp.Start, func(now time.Duration) {
		inj.Begin(now)
		if stepping {
			h.SetEnabled(true)
		}
	})
	if end, ok := sp.End(runDur); ok {
		e.At(end, func(now time.Duration) {
			if stepping {
				h.SetEnabled(false)
			}
			inj.End(now)
		})
	}
	return h
}

// PrioInversion returns the scheduler-starvation injector's task: a
// busy-loop spinner at the given FIFO priority. Pinned to a host core
// above the flight-critical priorities, it models a misconfigured (or
// compromised) host process inverting the priority design of §IV-C —
// the one starvation mode the container's cpuset/priority caps cannot
// contain, because it does not run in the container.
func PrioInversion(core, priority int) *sched.Task {
	return &sched.Task{
		Name:     "fault-prio-inv",
		Core:     core,
		Priority: priority,
		// Spins on cached state: negligible memory traffic.
		AccessRate: 1e6, MemBound: 0.1,
	}
}
