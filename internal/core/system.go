package core

import (
	"fmt"
	"time"

	"containerdrone/internal/attack"
	"containerdrone/internal/container"
	"containerdrone/internal/fault"
	"containerdrone/internal/membw"
	"containerdrone/internal/memguard"
	"containerdrone/internal/monitor"
	"containerdrone/internal/netsim"
	"containerdrone/internal/physics"
	"containerdrone/internal/sched"
	"containerdrone/internal/sim"
	"containerdrone/internal/telemetry"
)

// physDT is the physics integration step (one engine tick).
const physDT = 0.0001

// hceHost is the leader host's identity on the simulated bridge (and
// the only host of a single-drone System).
const hceHost = "hce"

// StreamStat counts one Table-I stream.
type StreamStat struct {
	Name      string
	Port      int
	FrameSize int
	Packets   int64
}

// Hooks are optional run-time observer taps. Set them after New and
// before the run starts; nil members are skipped. They exist so the
// public SDK can stream a run live (ticks, violations, Simplex
// switches, crashes) without the deterministic kernel knowing about
// its consumers. Hooks are invoked synchronously from the engine
// loop, on the run's goroutine, in simulated-time order; with an
// airframe helper the engine syncs with it before each call, so a
// crash lands among the other calls exactly where an inline run puts
// it. In a swarm, OnSample fires for the leader's telemetry only;
// OnViolation/OnSwitch/OnCrash fire for every member.
type Hooks struct {
	// OnSample fires at the telemetry rate with each recorded sample.
	OnSample func(now time.Duration, s telemetry.Sample)
	// OnViolation fires for every security-rule violation, before the
	// resulting Simplex switch side effects.
	OnViolation func(v monitor.Violation)
	// OnSwitch fires once when the monitor fails over.
	OnSwitch func(now time.Duration, rule monitor.Rule)
	// OnCrash fires once when the vehicle crashes.
	OnCrash func(at time.Duration)
}

// System is one fully wired scenario instance hosting one or more
// drones on a single shared network fabric.
//
// Each member drone owns its full stack — quad-core FIFO scheduler,
// DRAM bus, MemGuard, container runtime and CCE, airframe, sensors,
// estimators, controllers, security monitor, flight log — while the
// System owns exactly what is physically shared: the simulation
// engine, the radio/bridge fabric, the event trace, and (for fleets)
// the ground-control station coordinating the formation. The exported
// CPU/Bus/Guard/Runtime/CCE/Quad/Monitor/Log fields alias member 0
// (the leader), so single-drone callers read the System exactly as
// before the fleet refactor.
//
// A run is deterministic: the engine runs the flight computer on the
// calling goroutine, and the only concurrency inside a run is one
// optional airframe helper (airframe.go) that RunContext starts when a
// spare P exists. It integrates the airframes and meets the engine at
// the sensor/actuator boundary, so the run is byte-identical to an
// inline one. Distinct Systems share no mutable state: every substrate
// (engine, CPUs, buses, network, RNG streams, logs) is owned by the
// instance, and the only package-level data in the dependency graph
// (MAVLink message registry, scenario registry, physics geometry
// tables) is written at init time only; the one process-wide counter
// is the helpers' P budget. Concurrent core.New(cfg).Run() calls on
// separate Systems are therefore safe; the campaign runner's worker
// pool relies on this, and the campaign tests enforce it under the
// race detector.
//
// RestoreFrom is the only way a System rewinds. A warm-pool run
// restores a Snapshot captured at tick 0 right after New; a fork
// restores one captured mid-run.
type System struct {
	Cfg    Config
	Engine *sim.Engine
	Net    *netsim.Network
	Trace  *sim.Trace
	Hooks  Hooks

	// Member-0 (leader) aliases; see the type comment.
	CPU     *sched.CPU
	Bus     *membw.Bus
	Guard   *memguard.Guard
	Runtime *container.Runtime
	CCE     *container.Container
	Quad    *physics.Quad
	Monitor *monitor.Monitor
	Log     *telemetry.FlightLog

	drones []*Drone

	// jitterStack holds the link parameters of every open jitter
	// window, in Begin order; the link runs the newest open window's
	// parameters and heals to baseLink when the stack empties. The
	// link model is fabric-global, so jitter state lives here, not on
	// a member.
	jitterStack []*netsim.LinkParams
	baseLink    netsim.LinkParams

	// netRNG drives the shared fabric; per-member streams live on the
	// drones. Held so a tick-0 restore can re-derive the whole tree
	// under a new seed in the exact Split order New used.
	netRNG *sim.RNG

	// Fleet coordinator state (wired only when the fleet has >1
	// member); see fleet.go.
	gcsEP      *netsim.Endpoint
	downRoutes []*netsim.Route
	leaderSP   physics.Vec3
	fleetSeq   uint32
	gcsPayload []byte
	gcsFrame   []byte

	// violScratch backs the aggregated top-level Violations slice of
	// swarm results, reused across warm-pool runs.
	violScratch []monitor.Violation

	// helper is set while a pipelined RunContext (see airframe.go) steps
	// the airframes on its helper goroutine, and nil otherwise.
	helper *airframeHelper
}

// Members returns the fleet, leader first. The slice is owned by the
// System; do not mutate.
func (s *System) Members() []*Drone { return s.drones }

// Member returns the i-th fleet member (0 = leader).
func (s *System) Member(i int) *Drone { return s.drones[i] }

// New builds and wires a system from the config.
func New(cfg Config) (*System, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("core: non-positive duration %v", cfg.Duration)
	}
	if cfg.BusCapacity <= 0 {
		return nil, fmt.Errorf("core: non-positive bus capacity %v", cfg.BusCapacity)
	}
	if cfg.Drones < 0 || cfg.Drones > MaxDrones {
		return nil, fmt.Errorf("core: drone count %d outside [1, %d]", cfg.Drones, MaxDrones)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validateMembers(); err != nil {
		return nil, err
	}
	n := cfg.DroneCount()
	s := &System{
		Cfg:    cfg,
		Engine: sim.NewEngine(),
		Trace:  sim.NewTrace(4096),
	}
	rng := sim.NewRNG(cfg.Seed)

	// The fabric is the one physically shared substrate, so its RNG
	// stream splits off first — before any member's — keeping the
	// single-drone derivation order byte-identical to the pre-fleet
	// kernel.
	s.netRNG = rng.Split()
	s.Net = netsim.New(s.netRNG.Norm, s.netRNG.Float64)
	s.Engine.Register("net", sim.Tick, 0, sim.ProcFunc(func(now time.Duration) {
		s.Net.Step(now)
	}))

	s.drones = make([]*Drone, 0, n)
	for i := 0; i < n; i++ {
		d, err := newDrone(s, i, rng)
		if err != nil {
			return nil, err
		}
		s.drones = append(s.drones, d)
	}
	d0 := s.drones[0]
	s.CPU, s.Bus, s.Guard = d0.CPU, d0.Bus, d0.Guard
	s.Runtime, s.CCE = d0.Runtime, d0.CCE
	s.Quad, s.Monitor, s.Log = d0.Quad, d0.Monitor, d0.Log
	s.leaderSP = cfg.Setpoint

	if n > 1 {
		s.buildFleet()
	}
	s.scheduleAttack()
	s.scheduleFaults()

	if cfg.MonitorEnabled {
		s.Engine.At(cfg.ArmDelay, func(now time.Duration) {
			for _, d := range s.drones {
				d.Monitor.Arm(now)
			}
			s.tracef(now, "monitor", "armed")
		})
	}

	// Record the build-time structure every restore re-seats: the
	// engine's one-shot schedule (attack launches, fault windows,
	// monitor arming), every scheduler's task set, and the containers'
	// bookkeeping.
	s.Engine.Checkpoint()
	for _, d := range s.drones {
		d.CPU.Checkpoint()
		d.CCE.Checkpoint()
	}
	return s, nil
}

// nowUS converts engine time to the microsecond timestamps sensors use.
func nowUS(now time.Duration) uint64 { return uint64(now / time.Microsecond) }

// scheduleAttack arms the configured attack plan on the compromised
// member's container (Plan.Member; 0 — the leader — by default). A
// flood may additionally aim at another member's motor port via
// Plan.Target, modeling one compromised swarm member attacking a peer
// across the shared fabric.
func (s *System) scheduleAttack() {
	plan := s.Cfg.Attack
	if plan.Kind == attack.KindNone {
		return
	}
	a := s.drones[plan.Member]
	victim := s.drones[plan.Target]
	switch plan.Kind {
	case attack.KindBandwidth:
		s.Engine.At(plan.Start, func(now time.Duration) {
			t := attack.Bandwidth(CoreContainer, plan.Rate)
			if err := a.CCE.StartTask(t); err != nil {
				s.tracef(now, a.compAttack, "bandwidth launch failed: %v", err)
				return
			}
			s.tracef(now, a.compAttack, "bandwidth attack launched (%.0f acc/s)", t.AccessRate)
		})
	case attack.KindFlood:
		s.Engine.At(plan.Start, func(now time.Duration) {
			send := func(p []byte) {
				_ = a.CCE.Send(40000, PortMotor, p)
			}
			if victim != a {
				// Peer flood: the compromised member sprays a sibling's
				// motor port across the shared fabric. The task still
				// burns the attacker's container core; only the
				// destination differs.
				route := s.Net.Route(
					netsim.Addr{Host: a.hostName, Port: 40000},
					netsim.Addr{Host: victim.hostName, Port: PortMotor})
				send = func(p []byte) { route.Send(p) }
			}
			a.flood = attack.NewFlood(send, plan.Rate, 64)
			if err := a.CCE.StartTask(a.flood.Task(CoreContainer)); err != nil {
				s.tracef(now, a.compAttack, "flood launch failed: %v", err)
				return
			}
			if victim != a {
				s.tracef(now, a.compAttack, "UDP flood launched against member %d (%.0f pkt/s)",
					victim.idx, a.flood.PacketsPerSecond)
			} else {
				s.tracef(now, a.compAttack, "UDP flood launched (%.0f pkt/s)", a.flood.PacketsPerSecond)
			}
		})
	case attack.KindKill:
		s.Engine.At(plan.Start, func(now time.Duration) {
			if a.complexTask != nil {
				a.CCE.StopTask(a.complexTask)
				s.tracef(now, a.compAttack, "complex controller killed")
			}
		})
	case attack.KindCPUHog:
		s.Engine.At(plan.Start, func(now time.Duration) {
			t := attack.CPUHog(CoreContainer, sched.PrioContainer)
			if err := a.CCE.StartTask(t); err != nil {
				s.tracef(now, a.compAttack, "cpu hog launch failed: %v", err)
				return
			}
			s.tracef(now, a.compAttack, "CPU hog launched")
		})
	}
}

// Schedulability runs fixed-priority response-time analysis over the
// leader's current task set — the paper's §VII future work ("provide
// hard real-time proof and schedulability analysis"). Call it on a
// freshly built System to audit the flight-critical task set before
// any attack task is admitted. Fleet members carry identical task
// sets, so the leader's analysis speaks for all of them.
func (s *System) Schedulability() []sched.AnalysisResult {
	return sched.Analyze(s.CPU)
}

// AddSystemBaseline registers the idle OS load present in every
// Table-II case: kernel threads and interrupt handling, ~5% on core 0
// and ~1% on the others (calibrated to the paper's native row).
func AddSystemBaseline(cpu *sched.CPU) {
	utils := []float64{0.05, 0.01, 0.01, 0.01}
	const period = 10 * time.Millisecond
	for core, u := range utils {
		cpu.Add(&sched.Task{
			Name:     fmt.Sprintf("sys-core%d", core),
			Core:     core,
			Priority: sched.PrioInterrupt,
			Period:   period,
			WCET:     time.Duration(u * float64(period)),
			// Kernel housekeeping touches memory lightly.
			AccessRate: 1e6, MemBound: 0.3,
		})
	}
}

// validateMembers rejects member selectors outside the fleet and
// fleet-only faults on a single drone, so a bad sweep fails at build
// time instead of silently targeting the leader.
func (c Config) validateMembers() error {
	n := c.DroneCount()
	if c.Attack.Kind != attack.KindNone {
		if c.Attack.Member < 0 || c.Attack.Member >= n {
			return fmt.Errorf("core: attack member %d outside fleet of %d", c.Attack.Member, n)
		}
		if c.Attack.Target < 0 || c.Attack.Target >= n {
			return fmt.Errorf("core: attack target member %d outside fleet of %d", c.Attack.Target, n)
		}
	}
	for _, sp := range c.Faults.Specs {
		if sp.Kind == fault.KindNone {
			continue
		}
		if sp.Member < 0 || sp.Member >= n {
			return fmt.Errorf("core: %s fault member %d outside fleet of %d", sp.Kind, sp.Member, n)
		}
		if sp.Kind == fault.KindMAVReplay {
			if sp.FromMember < 0 || sp.FromMember >= n {
				return fmt.Errorf("core: mav-replay capture member %d outside fleet of %d", sp.FromMember, n)
			}
		}
		if sp.Kind == fault.KindFleetSplit && n < 2 {
			return fmt.Errorf("core: fleet-split needs a fleet (drones >= 2), got %d", n)
		}
	}
	return nil
}
