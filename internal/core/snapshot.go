package core

import (
	"fmt"
	"time"

	"containerdrone/internal/control"
	"containerdrone/internal/estimate"
	"containerdrone/internal/membw"
	"containerdrone/internal/memguard"
	"containerdrone/internal/monitor"
	"containerdrone/internal/netsim"
	"containerdrone/internal/physics"
	"containerdrone/internal/sched"
	"containerdrone/internal/sensors"
	"containerdrone/internal/sim"
	"containerdrone/internal/telemetry"
)

// memberSnap is one fleet member's share of a Snapshot: the member's
// computer (scheduler, memory system, NAT), vehicle, sensors,
// estimators, controllers, mission, monitor, flight log, and per-run
// caches.
type memberSnap struct {
	cpu   sched.CPUState
	bus   membw.BusState
	guard memguard.GuardState
	nat   netsim.NATState

	quad       physics.Quad
	wind       physics.WindState
	haveWind   bool
	suite      sensors.SuiteState
	hostEst    estimate.Filter
	cceEst     estimate.Filter
	safetyCtl  control.Cascade
	complexCtl control.Cascade

	mission     control.MissionState
	haveMission bool
	mon         monitor.State
	log         telemetry.LogState

	curSetpoint physics.Vec3
	holdSP      physics.Vec3
	fleetSP     physics.Vec3

	lastIMU  sensors.IMUReading
	lastGPS  sensors.GPSReading
	lastBaro sensors.BaroReading
	lastRC   sensors.RCReading

	complexCmd   [4]float64
	complexCmdAt time.Duration
	safetyCmd    [4]float64
	hostCmd      [4]float64

	cceIn   control.Inputs
	cceSeq  uint32
	seqOut  uint32
	garbage int64

	replayFrames [][]byte

	// Stream packet counters, in the fixed resolved-pointer order:
	// IMU, Barometer, GPS, RC, Motor Output.
	streamPackets [5]int64

	sensorRNG sim.RNG
	windRNG   sim.RNG
}

// Snapshot is a deep capture of a System between ticks: at tick 0
// right after New (the warm pool's rewind point) or mid-run (a fork
// point). It holds everything a run's future depends on — the engine
// clock and schedule position, the shared network fabric (queued and
// in-flight packets, token buckets, link parameters), the trace, the
// fleet coordinator, and per member every task's scheduling state, the
// vehicle, both estimators, both controllers, the mission, the
// monitor, the flight log, the memory system, and all RNG stream
// states.
//
// Ownership contract: a Snapshot shares no memory with the System it
// was taken from or any System it is restored onto. The source may
// keep running (and a restored fork may run to completion) without
// invalidating the Snapshot or perturbing sibling forks — the fork
// campaign restores K variants from one capture and the aliasing
// regression test pins this. The zero value is ready for SnapshotInto,
// which reuses the Snapshot's buffers across captures.
//
// Snapshots restore only onto Systems built from the same scenario
// shape: identical fleet size, process registrations, task sets,
// endpoints, and mission/wind presence. Config values that only act
// after the capture tick (attack parameters, fault magnitudes, monitor
// thresholds) may differ — that is exactly what prefix-sharing
// campaigns exploit.
type Snapshot struct {
	engine sim.EngineState
	net    netsim.NetworkState
	trace  sim.Trace

	netRNG sim.RNG

	leaderSP physics.Vec3
	fleetSeq uint32

	members []memberSnap
}

// Tick returns the engine clock position the snapshot was taken at.
func (sn *Snapshot) Tick() int64 { return sn.engine.Tick() }

// Snapshotable reports whether the System is currently in a state a
// mid-run Snapshot can capture, returning a descriptive error when it
// is not. The snapshot machinery covers exactly the pre-onset regime:
// no attack launched, no fault window open, no dynamic schedule or
// task-set changes since the build checkpoint, on any member. The fork
// campaign probes this before committing a group to prefix sharing,
// falling back to full flights when it fails.
func (s *System) Snapshotable() error {
	if !s.Engine.ScheduleAtCheckpoint() {
		return fmt.Errorf("core: one-shots were scheduled dynamically mid-run")
	}
	if len(s.jitterStack) != 0 {
		return fmt.Errorf("core: a jitter fault window is open")
	}
	for _, d := range s.drones {
		switch {
		case !d.CPU.TaskSetAtCheckpoint():
			return fmt.Errorf("core: member %d's scheduler task set changed since the checkpoint", d.idx)
		case !d.CCE.AtCheckpoint():
			return fmt.Errorf("core: member %d's container task or process bookkeeping changed since the checkpoint", d.idx)
		case d.flood != nil:
			return fmt.Errorf("core: a UDP flood attack is live on member %d", d.idx)
		case d.splitDepth != 0 || d.baroDropDepth != 0 || d.gyroBiasDepth != 0 || d.gpsSpoofDepth != 0 || d.fleetSplitDepth != 0:
			return fmt.Errorf("core: a sensor or network fault window is open on member %d", d.idx)
		}
	}
	return nil
}

// SnapshotInto captures the System's full state into snap, reusing
// snap's buffers. It must be called between engine ticks (right after
// New, or after RunToTickContext returns) and panics if the System is not
// Snapshotable — probe that first when falling back is an option.
//
// Two injectors keep pre-onset state outside the System's view and are
// still safe to snapshot: rotor-decay holds only its healed baseline
// (re-read at Begin), and mav-replay's captured frames live in the
// tapped member's replayFrames, which IS part of the snapshot.
func (s *System) SnapshotInto(snap *Snapshot) {
	if err := s.Snapshotable(); err != nil {
		panic(fmt.Sprintf("core: SnapshotInto: %v", err))
	}

	s.Engine.StateInto(&snap.engine)
	s.Net.SnapshotInto(&snap.net)
	s.Trace.CopyInto(&snap.trace)
	snap.netRNG = *s.netRNG
	snap.leaderSP = s.leaderSP
	snap.fleetSeq = s.fleetSeq

	for len(snap.members) < len(s.drones) {
		snap.members = append(snap.members, memberSnap{})
	}
	snap.members = snap.members[:len(s.drones)]
	for i, d := range s.drones {
		d.snapshotInto(&snap.members[i])
	}
}

func (d *Drone) snapshotInto(ms *memberSnap) {
	d.CPU.SnapshotInto(&ms.cpu)
	d.Bus.SnapshotInto(&ms.bus)
	d.Guard.SnapshotInto(&ms.guard)
	d.Runtime.NAT().SnapshotInto(&ms.nat)

	ms.quad = *d.quad()
	ms.haveWind = d.wind != nil
	if d.wind != nil {
		d.wind.SnapshotInto(&ms.wind)
	}
	d.suite.SnapshotInto(&ms.suite)
	ms.hostEst = *d.hostEst
	ms.cceEst = *d.cceEst
	ms.safetyCtl = *d.safetyCtl
	ms.complexCtl = *d.complexCtl

	ms.haveMission = d.mission != nil
	if d.mission != nil {
		d.mission.SnapshotInto(&ms.mission)
	}
	d.Monitor.SnapshotInto(&ms.mon)
	d.Log.SnapshotInto(&ms.log)

	ms.curSetpoint = d.curSetpoint
	ms.holdSP = d.holdSP
	ms.fleetSP = d.fleetSP
	ms.lastIMU = d.lastIMU
	ms.lastGPS = d.lastGPS
	ms.lastBaro = d.lastBaro
	ms.lastRC = d.lastRC
	ms.complexCmd = d.complexCmd
	ms.complexCmdAt = d.complexCmdAt
	ms.safetyCmd = d.safetyCmd
	ms.hostCmd = d.hostCmd
	ms.cceIn = d.cceIn
	ms.cceSeq = d.cceSeq
	ms.seqOut = d.seqOut
	ms.garbage = d.garbage

	ms.replayFrames = ms.replayFrames[:0]
	for _, f := range d.replayFrames {
		ms.replayFrames = append(ms.replayFrames, append([]byte(nil), f...))
	}

	ms.streamPackets = [5]int64{
		d.imuStream.Packets, d.baroStream.Packets, d.gpsStream.Packets,
		d.rcStream.Packets, d.motorStream.Packets,
	}

	ms.sensorRNG = *d.sensorRNG
	if d.windRNG != nil {
		ms.windRNG = *d.windRNG
	}
}

// Snapshot captures the System's full mid-run state into a fresh
// Snapshot. See SnapshotInto for the preconditions and the ownership
// contract.
func (s *System) Snapshot() *Snapshot {
	snap := &Snapshot{}
	s.SnapshotInto(snap)
	return snap
}

// RestoreFrom rewinds the System onto a captured state under the given
// seed, reusing the System's allocations. It is the only rewind: every
// subsystem overlays the snapshot's state and re-seats its build-time
// structure (task sets, container bookkeeping, the engine's one-shot
// schedule), and the engine is sought to the capture tick.
//
// A snapshot taken at tick 0, right after New, is a warm-pool rewind:
// the build-time state depends on the seed only through the RNG tree,
// so the tree is re-derived from seed exactly as New derives it, and
// the restored System runs byte-identically to a cold New at that seed
// (TestResetEquivalence). A mid-run snapshot restores its captured RNG
// stream positions instead, and a restored System resumed with
// ResumeContextInto runs byte-identically to a cold run of its own
// Config at that seed, provided the Configs agree on everything that
// acts before the capture tick (TestForkEquivalence).
//
// The System must be built from the same scenario shape as the capture
// source; structural mismatches (fleet size, task sets, endpoints,
// wind or mission presence) panic. The Snapshot is read-only here and
// remains valid for further restores. Results produced before the
// restore share buffers (flight logs, trace, violations) with the
// System: consume or serialize them first.
func (s *System) RestoreFrom(seed uint64, snap *Snapshot) {
	if len(snap.members) != len(s.drones) {
		panic(fmt.Sprintf("core: RestoreFrom across fleet sizes (%d members captured, %d built); source and target must share a scenario",
			len(snap.members), len(s.drones)))
	}
	s.Cfg.Seed = seed

	s.Engine.Seek(&snap.engine)
	s.Net.RestoreFrom(&snap.net)
	s.Trace.RestoreFrom(&snap.trace)
	s.leaderSP = snap.leaderSP
	s.fleetSeq = snap.fleetSeq
	// Snapshotable guarantees no jitter window was open at capture.
	clear(s.jitterStack)
	s.jitterStack = s.jitterStack[:0]

	for i, d := range s.drones {
		d.restoreFrom(&snap.members[i])
	}

	if snap.Tick() == 0 {
		// Re-derive the RNG tree exactly as New does: one root
		// generator, the fabric stream first, then each member's
		// streams (sensors, wind) in member order.
		var rng sim.RNG
		rng.Reseed(seed)
		rng.SplitInto(s.netRNG)
		for _, d := range s.drones {
			rng.SplitInto(d.sensorRNG)
			if d.windRNG != nil {
				rng.SplitInto(d.windRNG)
			}
		}
		return
	}
	*s.netRNG = snap.netRNG
	for i, d := range s.drones {
		*d.sensorRNG = snap.members[i].sensorRNG
		if d.windRNG != nil {
			*d.windRNG = snap.members[i].windRNG
		}
	}
}

func (d *Drone) restoreFrom(ms *memberSnap) {
	d.CPU.RestoreFrom(&ms.cpu)
	d.CCE.RestoreCheckpoint()
	d.Bus.RestoreFrom(&ms.bus)
	d.Guard.RestoreFrom(&ms.guard)
	d.Runtime.NAT().RestoreFrom(&ms.nat)

	*d.Quad = ms.quad
	if ms.haveWind != (d.wind != nil) {
		panic("core: RestoreFrom across wind-model presence; source and target must share a scenario")
	}
	if d.wind != nil {
		d.wind.RestoreFrom(&ms.wind)
	}
	d.suite.RestoreFrom(&ms.suite)
	*d.hostEst = ms.hostEst
	*d.cceEst = ms.cceEst
	*d.safetyCtl = ms.safetyCtl
	*d.complexCtl = ms.complexCtl

	if ms.haveMission != (d.mission != nil) {
		panic("core: RestoreFrom across mission presence; source and target must share a scenario")
	}
	if d.mission != nil {
		d.mission.RestoreFrom(&ms.mission)
	}
	d.Monitor.RestoreFrom(&ms.mon)
	d.Log.RestoreFrom(&ms.log)

	d.curSetpoint = ms.curSetpoint
	d.holdSP = ms.holdSP
	d.fleetSP = ms.fleetSP
	d.lastIMU = ms.lastIMU
	d.lastGPS = ms.lastGPS
	d.lastBaro = ms.lastBaro
	d.lastRC = ms.lastRC
	d.complexCmd = ms.complexCmd
	d.complexCmdAt = ms.complexCmdAt
	d.safetyCmd = ms.safetyCmd
	d.hostCmd = ms.hostCmd
	d.cceIn = ms.cceIn
	d.cceSeq = ms.cceSeq
	d.seqOut = ms.seqOut
	d.garbage = ms.garbage

	// Snapshotable guarantees no flood was live and no fault window
	// open at capture.
	d.flood = nil
	d.splitDepth, d.baroDropDepth, d.gyroBiasDepth, d.gpsSpoofDepth, d.fleetSplitDepth = 0, 0, 0, 0, 0

	clear(d.replayFrames)
	d.replayFrames = d.replayFrames[:0]
	for _, f := range ms.replayFrames {
		d.replayFrames = append(d.replayFrames, append([]byte(nil), f...))
	}

	d.imuStream.Packets = ms.streamPackets[0]
	d.baroStream.Packets = ms.streamPackets[1]
	d.gpsStream.Packets = ms.streamPackets[2]
	d.rcStream.Packets = ms.streamPackets[3]
	d.motorStream.Packets = ms.streamPackets[4]
}
