package core

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"containerdrone/internal/physics"
	"containerdrone/internal/sim"
)

// The airframe helper flies every member's quadrotor on a second
// goroutine while the engine runs the flight computer, mirroring the
// paper's split: the vehicle and the computer touch only through
// sensors and actuators. The engine issues one physics step per tick
// and queues every actuator write (PWM motor commands, wind
// disturbance, rotor efficiency) stamped with the first step that must
// see it; the helper trails the engine, applying each write just
// before its step exactly as the inline physics proc would have seen
// it. Before the engine reads an airframe (sensor samples, telemetry,
// snapshots) it waits until the helper has flown every issued step.
// It also waits before every trace event and hook call, and reports
// any crash the helper flew first, at the tick it happened, so traces,
// logs and observer callbacks keep the inline order byte for byte.
//
// Only System.RunContext pipelines, and only while the process has a
// spare P for the helper: every flight in progress holds one P and
// every helper another, and a helper starts only if that leaves the
// total within GOMAXPROCS. Campaign and service workers fly through
// RunContextInto/ResumeContextInto, already keep every core busy, and
// step the airframe inline. A pipelined flight that later finds the
// process oversubscribed (other flights started after it) stops its
// helper and finishes inline, so its spinning never takes a core from
// another flight.

// flightPs counts the Ps that flights hold: one per System in flight
// plus one per airframe helper.
var flightPs atomic.Int32

// fly advances the System to the absolute tick end (or Stop, or
// cancellation). With withHelper set it may fly the airframes on a
// helper goroutine, if a spare P is free.
func (s *System) fly(ctx context.Context, end int64, withHelper bool) error {
	flightPs.Add(1)
	defer flightPs.Add(-1)
	if withHelper && end-s.Engine.Clock().Ticks() < math.MaxUint32 && takeSpareP() {
		return s.runWithHelper(ctx, end)
	}
	return s.Engine.RunToTickContext(ctx, end)
}

// takeSpareP claims a P for one airframe helper if flights leave one
// free.
func takeSpareP() bool {
	for {
		n := flightPs.Load()
		if int(n) >= runtime.GOMAXPROCS(0) {
			return false
		}
		if flightPs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// oversubscribed reports whether flights hold more Ps than exist, so a
// helper's spinning would steal a core from another flight.
func oversubscribed() bool {
	return int(flightPs.Load()) > runtime.GOMAXPROCS(0)
}

// budgetCheckEvery is how often, in issued steps, a pipelined flight
// checks the process for oversubscription: about 3 ms of wall time,
// small against a flight and long enough that the check costs nothing.
const budgetCheckEvery = 1 << 14

// Airframe write kinds.
const (
	inMotors = iota
	inDisturbance
	inRotorEfficiency
)

// airframeInput is one queued write to a member's airframe.
type airframeInput struct {
	step   uint32 // run-relative index of the first step that sees it
	member uint8
	kind   uint8
	rotor  uint8
	v      [6]float64
}

// inputSlots bounds the write queue; a full queue makes the engine wait
// for the helper. A power of two, so indices may wrap.
const inputSlots = 64

// publishEvery is how many issued steps the engine batches before it
// hands them to the helper. Each hand-off is a cross-core store, so
// handing off every tick costs more than the helper trailing a few
// ticks further behind.
const publishEvery = 4

// waitSpins is how many times a waiting side polls before it starts
// yielding its P; with a single P, polling cannot see the other side
// progress, so it yields at once. idleYields bounds the yields of an
// idle helper before it sleeps until the engine publishes.
const (
	waitSpins  = 1 << 14
	idleYields = 1 << 16
)

// cacheLine separates the words the two goroutines write, so one
// side's stores do not evict the other side's hot data.
type cacheLine [64]byte

// airframeHelper is the shared state of one pipelined run. Progress is
// exchanged as packed words, steps in the high half and queued inputs
// in the low half, so one atomic store publishes both.
type airframeHelper struct {
	_ cacheLine
	// req is the engine's published progress: steps issued, inputs queued.
	req atomic.Uint64
	_   cacheLine
	// rep is the helper's: the req it has fully flown.
	rep atomic.Uint64
	_   cacheLine
	// sleeping is set by an idle helper about to block on wake; stop
	// tells it to exit.
	sleeping atomic.Bool
	stop     atomic.Bool
	_        cacheLine

	// Engine side.
	issued, tail uint32
	published    uint64 // the last req stored
	synced       uint64 // the last req the helper was seen to have flown
	_            cacheLine

	inputs [inputSlots]airframeInput

	// Written by the helper, read and cleared by the engine after a
	// sync: per member, the step it crashed at, or -1.
	crashStep []int64

	quads  []*physics.Quad
	start  int64 // engine tick step 0 is issued at
	spins  int   // waitSpins, or 0 with a single P
	wake   chan struct{}
	exited chan struct{}
}

// runWithHelper flies to the absolute tick end with the airframes on
// a helper goroutine, which holds a P the caller claimed in flightPs
// and releases when the helper stops. s.helper is set while the
// airframes step on the helper and is nil once the run returns.
func (s *System) runWithHelper(ctx context.Context, end int64) error {
	h := &airframeHelper{
		crashStep: make([]int64, len(s.drones)),
		quads:     make([]*physics.Quad, len(s.drones)),
		start:     s.Engine.Clock().Ticks(),
		spins:     waitSpins,
		wake:      make(chan struct{}, 1),
		exited:    make(chan struct{}),
	}
	if runtime.GOMAXPROCS(0) == 1 {
		h.spins = 0
	}
	for i, d := range s.drones {
		h.quads[i] = d.Quad
		h.crashStep[i] = -1
	}
	s.helper = h
	go h.loop()
	defer s.dropHelper()
	err := s.Engine.RunToTickContext(ctx, end)
	s.syncAirframe()
	return err
}

// issueStep runs in the leader's physics proc, which the members'
// procs follow back to back in every tick, and hands an airframe
// helper the whole fleet's step for this tick. A run that finds the
// process oversubscribed first gives its helper up, and this tick and
// every later one step inline.
func (s *System) issueStep() {
	h := s.helper
	if h == nil {
		return
	}
	if h.issued%budgetCheckEvery == 0 && oversubscribed() {
		s.syncAirframe()
		s.dropHelper()
		return
	}
	h.issue()
}

// dropHelper stops the run's airframe helper, if it still has one,
// once it has flown every issued step, and releases the helper's P;
// the airframes step inline from then on. It reports no crash: callers
// sync first unless unwinding a panic.
func (s *System) dropHelper() {
	h := s.helper
	if h == nil {
		return
	}
	h.close()
	s.helper = nil
	flightPs.Add(-1)
}

// syncAirframe waits for a pipelined run's helper to fly every issued
// step and apply every queued write, then reports the crashes it flew
// in (step, member) order — the order the inline physics procs report
// them. Outside a pipelined run it does nothing.
func (s *System) syncAirframe() {
	h := s.helper
	if h == nil {
		return
	}
	h.wait()
	for {
		first := -1
		for i, st := range h.crashStep {
			if st >= 0 && (first < 0 || st < h.crashStep[first]) {
				first = i
			}
		}
		if first < 0 {
			return
		}
		st := h.crashStep[first]
		h.crashStep[first] = -1
		s.drones[first].noteCrash(time.Duration(h.start+st) * sim.Tick)
	}
}

// tracef records a trace event after syncAirframe, so a crash the
// helper has flown is traced first, as an inline run traces it.
func (s *System) tracef(now time.Duration, source, format string, args ...any) {
	s.syncAirframe()
	s.Trace.Add(now, source, format, args...)
}

// issue hands the current tick's physics step to the helper.
func (h *airframeHelper) issue() {
	h.issued++
	if h.issued%publishEvery == 0 {
		h.publish()
	}
}

// push queues a write for the next step to be issued.
func (h *airframeHelper) push(in airframeInput) {
	if h.tail-uint32(h.synced) == inputSlots {
		h.wait()
	}
	in.step = h.issued
	h.inputs[h.tail%inputSlots] = in
	h.tail++
}

// publish hands everything issued and queued so far to the helper,
// waking it if it has gone to sleep.
func (h *airframeHelper) publish() {
	v := uint64(h.issued)<<32 | uint64(h.tail)
	if v == h.published {
		return
	}
	h.published = v
	h.req.Store(v)
	if h.sleeping.Load() {
		h.nudge()
	}
}

// nudge wakes the helper if it sleeps; a spare token only costs it one
// more look at req.
func (h *airframeHelper) nudge() {
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// wait publishes and spins until the helper has flown it all.
func (h *airframeHelper) wait() {
	h.publish()
	if h.synced == h.published {
		return
	}
	for spins := 0; h.rep.Load() != h.published; spins++ {
		if spins >= h.spins {
			runtime.Gosched()
		}
	}
	h.synced = h.published
}

// close waits for the helper to finish the issued work, stops it and
// waits for it to exit.
func (h *airframeHelper) close() {
	h.wait()
	h.stop.Store(true)
	h.nudge()
	<-h.exited
}

// loop is the helper goroutine: it flies every published step, applying
// each queued write before the first step stamped to see it, and
// reports the req it has caught up with.
func (h *airframeHelper) loop() {
	defer close(h.exited)
	var done, head uint32
	for {
		req := h.req.Load()
		issued, tail := uint32(req>>32), uint32(req)
		for {
			for head != tail && h.inputs[head%inputSlots].step <= done {
				h.apply(&h.inputs[head%inputSlots])
				head++
			}
			if done == issued {
				break
			}
			h.step(done)
			done++
		}
		h.rep.Store(req)
		if !h.idle(req) {
			return
		}
	}
}

// idle waits for a req other than seen: spinning first, then yielding
// the P, and after a long quiet spell (the engine in a slow observer
// callback, say) sleeping until the engine publishes. It returns false
// when told to stop.
func (h *airframeHelper) idle(seen uint64) bool {
	for spins := 0; ; spins++ {
		if h.req.Load() != seen {
			return true
		}
		if h.stop.Load() {
			return false
		}
		switch {
		case spins >= 4*h.spins+idleYields:
			h.sleeping.Store(true)
			if h.req.Load() == seen && !h.stop.Load() {
				<-h.wake
			}
			h.sleeping.Store(false)
			spins = 0
		case spins >= 4*h.spins:
			runtime.Gosched()
		}
	}
}

// apply performs one queued write.
func (h *airframeHelper) apply(in *airframeInput) {
	q := h.quads[in.member]
	switch in.kind {
	case inMotors:
		q.SetMotors([4]float64(in.v[:4]))
	case inDisturbance:
		q.SetDisturbance(physics.Vec3{X: in.v[0], Y: in.v[1], Z: in.v[2]},
			physics.Vec3{X: in.v[3], Y: in.v[4], Z: in.v[5]})
	case inRotorEfficiency:
		q.SetRotorEfficiency(int(in.rotor), in.v[0])
	}
}

// step flies run step k on every member, in member order.
func (h *airframeHelper) step(k uint32) {
	for i, q := range h.quads {
		was, _ := q.Crashed()
		q.Step(physDT)
		if now, _ := q.Crashed(); now && !was {
			h.crashStep[i] = int64(k)
		}
	}
}

// quad returns the member's airframe for reading, synced first in a
// pipelined run.
func (d *Drone) quad() *physics.Quad {
	d.sys.syncAirframe()
	return d.Quad
}

// setMotors applies a PWM command to the member's rotors.
func (d *Drone) setMotors(u [4]float64) {
	if h := d.sys.helper; h != nil {
		h.push(airframeInput{member: uint8(d.idx), kind: inMotors, v: [6]float64{u[0], u[1], u[2], u[3]}})
		return
	}
	d.Quad.SetMotors(u)
}

// setDisturbance applies an external force and torque to the airframe.
func (d *Drone) setDisturbance(force, torque physics.Vec3) {
	if h := d.sys.helper; h != nil {
		h.push(airframeInput{member: uint8(d.idx), kind: inDisturbance,
			v: [6]float64{force.X, force.Y, force.Z, torque.X, torque.Y, torque.Z}})
		return
	}
	d.Quad.SetDisturbance(force, torque)
}

// setRotorEfficiency degrades one rotor's thrust efficiency.
func (d *Drone) setRotorEfficiency(rotor int, e float64) {
	if h := d.sys.helper; h != nil {
		h.push(airframeInput{member: uint8(d.idx), kind: inRotorEfficiency, rotor: uint8(rotor), v: [6]float64{e}})
		return
	}
	d.Quad.SetRotorEfficiency(rotor, e)
}

// noteCrash reports a crash of the member's airframe flown at engine
// time now — flight-log mark, trace event, OnCrash hook — once per
// flight.
func (d *Drone) noteCrash(now time.Duration) {
	crashed, at := d.Quad.Crashed()
	if !crashed {
		return
	}
	if already, _ := d.Log.Crashed(); already {
		return
	}
	crashAt := time.Duration(at * float64(time.Second))
	d.Log.MarkCrash(crashAt)
	d.sys.Trace.Add(now, d.compPhysics, "vehicle crashed")
	if h := d.sys.Hooks.OnCrash; h != nil {
		h(crashAt)
	}
}
