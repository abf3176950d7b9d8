package core

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"containerdrone/internal/physics"
	"containerdrone/internal/sim"
)

// The airframe helper flies every member's quadrotor on a second
// goroutine while the engine runs the flight computer, mirroring the
// paper's split: the vehicle and the computer touch only through
// sensors and actuators. The helper flies ahead of the engine up to a
// fence, the first step an airframe write could still land on: the
// earliest possible completion of any member's PWM driver job, the
// next fire of any proc that writes an airframe (wind, rotor decay),
// the next one-shot, the next context poll or oversubscription check
// and the run's end — the conservative lookahead of parallel
// discrete-event simulation. Every write (PWM motor commands, wind
// disturbance, rotor efficiency) is queued stamped with the first step
// that must see it, and the helper applies it just before that step,
// exactly as the inline physics proc would have seen it. The helper records each flown step's rigid-body
// state in a small ring, so a reader (sensor samples, telemetry) waits
// only until the helper has flown every step the engine has reached
// and then reads the state of that step. The engine also syncs before
// every trace event and hook call, and reports a crash the helper flew
// only once its tick has passed the crash step, so traces, logs and
// observer callbacks keep the inline order byte for byte.
//
// Only System.RunContext pipelines, and only while the process has a
// spare P for the helper: every flight in progress holds one P and
// every helper another, and a helper starts only if that leaves the
// total within GOMAXPROCS. Campaign and service workers fly through
// ResumeContextInto, already keep every core busy, and step the
// airframe inline. A pipelined flight that later finds the
// process oversubscribed (other flights started after it) drops its
// helper at the check, where the fence has held it, and finishes
// inline, so its spinning never takes a core from another flight.

// flightPs counts the Ps that flights hold: one per System in flight
// plus one per airframe helper.
var flightPs atomic.Int32

// fly advances the System to the absolute tick end (or cancellation).
// With withHelper set it may fly the airframes on a helper goroutine,
// if a spare P is free.
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

// stateSlots is the length of the ring of flown states, and so bounds
// how far the helper may lead the engine. A power of two, so step
// counts may wrap.
const stateSlots = 64

// stateSlot is one ring entry: a member's state after some number of
// flown steps, and that number, stored after the state, so an engine
// waiting for a step polls the memory it then reads. Each slot fills
// two cache lines of its own.
type stateSlot struct {
	state physics.State
	flown atomic.Uint32
	_     [128 - unsafe.Sizeof(physics.State{}) - 4]byte
}

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

// helperCrash is one member's crash as the helper flew it.
type helperCrash struct {
	// step is the run step the airframe crashed in, or -1; the helper
	// stores it after at.
	step atomic.Int64
	// at is the airframe's crash time in seconds.
	at float64
	// reported is engine side: the crash has been reported.
	reported bool
}

// airframeHelper is the shared state of one pipelined run. The engine
// publishes the fence and the inputs queued as one packed word; the
// helper reports each flown step in the state ring and the inputs it
// has applied whenever it reaches the fence.
type airframeHelper struct {
	_ cacheLine
	// req is the engine's published word: the fence in the high half,
	// the inputs queued in the low half.
	req atomic.Uint64
	_   cacheLine
	// applied is the helper's count of inputs applied.
	applied atomic.Uint32
	_       cacheLine
	// sleeping is set by an idle helper about to block on wake; stop
	// tells it to exit.
	sleeping atomic.Bool
	stop     atomic.Bool
	_        cacheLine

	// Engine side.
	issued, tail uint32
	fence        uint32 // the fence last published
	end          uint32 // the run's length in steps
	published    uint64 // the last req stored
	flown        uint32 // steps the helper was last seen to have flown
	consumed     uint32 // inputs it was last seen to have applied
	// waits and publishes count the reads that had to wait for the
	// helper and the fences handed to it; only tests read them.
	waits, publishes int
	_                cacheLine

	inputs [inputSlots]airframeInput

	// states[(k%stateSlots)*len(quads)+i] is member i's state after k
	// flown steps; the helper writes it, the engine reads it.
	states []stateSlot
	crash  []helperCrash

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
	n := len(s.drones)
	h := &airframeHelper{
		states: make([]stateSlot, stateSlots*n),
		crash:  make([]helperCrash, n),
		quads:  make([]*physics.Quad, n),
		start:  s.Engine.Clock().Ticks(),
		spins:  waitSpins,
		wake:   make(chan struct{}, 1),
		exited: make(chan struct{}),
	}
	h.end = uint32(end - h.start)
	if runtime.GOMAXPROCS(0) == 1 {
		h.spins = 0
	}
	for i, d := range s.drones {
		h.quads[i] = d.Quad
		h.states[i].state = d.Quad.State
		h.crash[i].step.Store(-1)
	}
	s.helper = h
	h.publish(s.airframeFence(h.start-1, prioPhysics, n))
	go h.loop()
	defer s.dropHelper()
	err := s.Engine.RunToTickContext(ctx, end)
	s.syncAirframe()
	return err
}

// issueStep runs in the leader's physics proc, which the members'
// procs follow back to back in every tick, and hands an airframe
// helper the whole fleet's step for this tick, raising the fence once
// the engine reaches it. A run that finds the process oversubscribed
// gives its helper up, and this tick and every later one step inline;
// the fence holds the helper to exactly the steps issued at the check.
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
	h.issued++
	if h.issued > h.fence {
		s.raiseFence(h.start+int64(h.issued)-1, prioPhysics, len(s.drones))
	}
}

// raiseFence publishes a new fence if it lies past the current one.
// The arguments are airframeFence's.
func (s *System) raiseFence(tick int64, ran, ticked int) {
	if f := s.airframeFence(tick, ran, ticked); f > s.helper.fence {
		s.helper.publish(f)
	}
}

// airframeFence returns the first step the helper may not fly yet:
// the earliest step an airframe write could still land on, or at which
// the engine may stop. It is computed in engine tick tick once every
// proc of priority below ran and the schedulers of the first ticked
// members have run in it: before a pipelined run (the tick before its
// first), in the leader's physics proc, and right after a member's PWM
// write. The result is never below the tick's step.
func (s *System) airframeFence(tick int64, ran, ticked int) uint32 {
	h := s.helper
	step := tick - h.start
	f := min(int64(h.end), int64(h.issued)+stateSlots-1)
	// The airframes stop where the engine may: at the next context poll
	// (this tick's has passed), where a canceled run ends, and at the
	// next oversubscription check, where the helper may be dropped.
	f = min(f, roundUp(step+1, sim.CtxCheckTicks), roundUp(int64(h.issued), budgetCheckEvery))
	// A one-shot runs after the tick's physics.
	if at, ok := s.Engine.NextOneShot(); ok {
		f = min(f, at+1-h.start)
	}
	for _, p := range s.airframeProcs {
		at := p.NextFire()
		switch {
		case p.Priority() >= prioPhysics:
			at++ // its writes land on the next tick's step
		case at <= tick && p.Priority() < ran:
			at = max(at+p.Period(), tick+1) // due this tick and run already
		}
		f = min(f, at-h.start)
	}
	for i, d := range s.drones {
		next := tick
		if i < ticked {
			next++
		}
		at := d.CPU.EarliestCompletion(d.pwmTask, time.Duration(next)*sim.Tick)
		f = min(f, int64(at/sim.Tick)-h.start)
	}
	return uint32(f)
}

// roundUp rounds n up to a multiple of m.
func roundUp(n, m int64) int64 { return (n + m - 1) / m * m }

// dropHelper stops the run's airframe helper, if it still has one,
// once it has flown up to the fence, and releases the helper's P; the
// airframes step inline from then on. It reports no crash: callers
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
// step, then reports the crashes it flew in them in (step, member)
// order — the order the inline physics procs report them. Outside a
// pipelined run it does nothing.
func (s *System) syncAirframe() {
	h := s.helper
	if h == nil {
		return
	}
	h.await(h.issued)
	for {
		first, step := -1, int64(h.issued)
		for i := range h.crash {
			c := &h.crash[i]
			if st := c.step.Load(); !c.reported && st >= 0 && st < step {
				first, step = i, st
			}
		}
		if first < 0 {
			return
		}
		h.crash[first].reported = true
		s.drones[first].noteCrash(time.Duration(h.start+step)*sim.Tick, h.crash[first].at)
	}
}

// tracef records a trace event after syncAirframe, so a crash the
// helper has flown is traced first, as an inline run traces it.
func (s *System) tracef(now time.Duration, source, format string, args ...any) {
	s.syncAirframe()
	s.Trace.Add(now, source, format, args...)
}

// await waits until the helper has flown n steps, polling the ring
// slot of the last member, which it writes after the others. The
// engine syncs only for the steps issued, which the fence never lies
// below.
func (h *airframeHelper) await(n uint32) {
	if h.flown >= n {
		return
	}
	slot := &h.states[int(n%stateSlots+1)*len(h.quads)-1]
	if slot.flown.Load() != n {
		h.waits++
		h.spin(func() bool { return slot.flown.Load() == n })
	}
	h.flown = n
}

// push queues a write for the next step to be issued. The fence
// guarantees the helper has not flown that step yet.
func (h *airframeHelper) push(in airframeInput) {
	in.step = h.issued
	if in.step < h.fence {
		panic("core: airframe write behind the helper's fence")
	}
	if h.tail-h.consumed == inputSlots {
		h.publish(h.fence)
		h.spin(func() bool {
			h.consumed = h.applied.Load()
			return h.tail-h.consumed < inputSlots
		})
	}
	h.inputs[h.tail%inputSlots] = in
	h.tail++
}

// publish hands the helper a fence and every input queued so far,
// waking it if it has gone to sleep.
func (h *airframeHelper) publish(fence uint32) {
	h.fence = fence
	v := uint64(fence)<<32 | uint64(h.tail)
	if v == h.published {
		return
	}
	h.published = v
	h.req.Store(v)
	h.publishes++
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

// spin polls done until it holds, yielding the P after h.spins polls.
func (h *airframeHelper) spin(done func() bool) {
	for spins := 0; !done(); spins++ {
		if spins >= h.spins {
			runtime.Gosched()
		}
	}
}

// close stops the helper once it has flown to the fence and applied
// every queued input, and waits for it to exit.
func (h *airframeHelper) close() {
	h.publish(h.fence)
	h.stop.Store(true)
	h.nudge()
	<-h.exited
}

// loop is the helper goroutine: it flies every step below the
// published fence, applying each queued write before the first step
// stamped to see it.
func (h *airframeHelper) loop() {
	defer close(h.exited)
	var done, head uint32
	for {
		req := h.req.Load()
		fence, tail := uint32(req>>32), uint32(req)
		for {
			for head != tail && h.inputs[head%inputSlots].step <= done {
				h.apply(&h.inputs[head%inputSlots])
				head++
			}
			if done == fence {
				break
			}
			h.step(done)
			done++
		}
		h.applied.Store(head)
		if !h.idle(req) {
			return
		}
	}
}

// idle waits for a req other than seen: spinning first, then yielding
// the P, and after a long quiet spell (the engine in a slow observer
// callback, say) sleeping until the engine publishes. It returns false
// when told to stop, once no req the engine stored before stopping it
// is left unseen.
func (h *airframeHelper) idle(seen uint64) bool {
	for spins := 0; ; spins++ {
		if h.req.Load() != seen {
			return true
		}
		if h.stop.Load() {
			return h.req.Load() != seen
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

// step flies run step k on every member, in member order, and records
// the states in the ring slots for k+1 flown steps.
func (h *airframeHelper) step(k uint32) {
	row := h.states[int((k+1)%stateSlots)*len(h.quads):]
	for i, q := range h.quads {
		was, _ := q.Crashed()
		q.Step(physDT)
		if now, at := q.Crashed(); now && !was {
			c := &h.crash[i]
			c.at = at
			c.step.Store(int64(k))
		}
		row[i].state = q.State
		row[i].flown.Store(k + 1)
	}
}

// state returns the member's airframe state at the engine's current
// step: the live state inline, or the helper's record of it in a
// pipelined run, synced first.
func (d *Drone) state() physics.State {
	h := d.sys.helper
	if h == nil {
		return d.Quad.State
	}
	d.sys.syncAirframe()
	return h.states[int(h.issued%stateSlots)*len(h.quads)+d.idx].state
}

// setMotors applies a PWM command to the member's rotors. Only the
// member's PWM driver calls it, in its scheduler's tick; a pipelined
// run then raises the fence at once, so the helper flies on while the
// rest of the tick runs.
func (d *Drone) setMotors(u [4]float64) {
	if h := d.sys.helper; h != nil {
		h.push(airframeInput{member: uint8(d.idx), kind: inMotors, v: [6]float64{u[0], u[1], u[2], u[3]}})
		d.sys.raiseFence(h.start+int64(h.issued), prioSched, d.idx+1)
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
// time now, with the airframe's crash time at in seconds — flight-log
// mark, trace event, OnCrash hook — once per flight.
func (d *Drone) noteCrash(now time.Duration, at float64) {
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
