package sim

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"time"
)

// Proc is a periodic simulation process. Tick is called at the
// process's registered period with the current simulated time.
type Proc interface {
	Tick(now time.Duration)
}

// ProcFunc adapts a plain function to the Proc interface.
type ProcFunc func(now time.Duration)

// Tick calls f(now).
func (f ProcFunc) Tick(now time.Duration) { f(now) }

type procEntry struct {
	name     string
	proc     Proc
	period   int64 // ticks
	next     int64 // next fire tick; advances even while disabled, preserving phase
	priority int   // lower runs first within a tick
	order    int   // registration order, ties broken stably
	enabled  bool
}

// procLess orders invocations within one tick.
func procLess(a, b *procEntry) bool {
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.order < b.order
}

// procHeap is a min-heap of slow (period > 1 tick) processes keyed by
// (next fire tick, priority, order), so popping the due entries of a
// tick yields them already in execution order.
type procHeap []*procEntry

func (h procHeap) Len() int { return len(h) }
func (h procHeap) Less(i, j int) bool {
	if h[i].next != h[j].next {
		return h[i].next < h[j].next
	}
	return procLess(h[i], h[j])
}
func (h procHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *procHeap) Push(x interface{}) { *h = append(*h, x.(*procEntry)) }
func (h *procHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// oneShot is a scheduled callback; seq keeps same-tick callbacks in
// insertion order.
type oneShot struct {
	tick int64
	seq  int64
	fn   func(now time.Duration)
}

type oneShotHeap []oneShot

func (h oneShotHeap) Len() int { return len(h) }
func (h oneShotHeap) Less(i, j int) bool {
	if h[i].tick != h[j].tick {
		return h[i].tick < h[j].tick
	}
	return h[i].seq < h[j].seq
}
func (h oneShotHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oneShotHeap) Push(x interface{}) { *h = append(*h, x.(oneShot)) }
func (h *oneShotHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1].fn = nil
	*h = old[:n-1]
	return x
}

// Engine drives the simulation: it owns the clock and invokes every
// registered periodic process at its period, in deterministic order
// (priority, then registration order) within a tick.
//
// The hot loop is schedule-driven rather than scan-driven: every-tick
// processes live in a dedicated slice that runs unconditionally, and
// slower processes wait in a min-heap keyed by their precomputed next
// fire tick — so a tick costs O(every-tick procs + procs actually
// due), with no per-proc modulo arithmetic and no map lookup for
// one-shot callbacks (they wait in their own min-heap). At campaign
// scale (thousands of 10 kHz runs) this is the single hottest loop in
// the codebase.
type Engine struct {
	clock     Clock
	procs     []*procEntry // every registration, in registration order
	everyTick []*procEntry // period == 1, sorted (priority, order)
	slow      procHeap     // period > 1, keyed by next fire tick
	due       []*procEntry // per-Step scratch, reused across ticks
	oneShots  oneShotHeap
	seq       int64
	stopped   bool

	// The build-time one-shot schedule recorded by Checkpoint, which
	// Seek re-arms: one-shots are consumed as they fire, so the pending
	// set at any tick is this schedule filtered to ticks not yet
	// reached.
	chkOneShots oneShotHeap
	chkSeq      int64
	chkValid    bool
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() time.Duration { return e.clock.Now() }

// Clock exposes the engine clock (read-only use expected).
func (e *Engine) Clock() *Clock { return &e.clock }

// Handle identifies a registered process so it can be enabled,
// disabled, or inspected later (e.g. the monitor killing the HCE
// receiver thread disables its process).
type Handle struct {
	ent *procEntry
}

// Register adds a periodic process. Priority orders invocations within
// one tick: lower priority values run first. Names are for traces.
func (e *Engine) Register(name string, period time.Duration, priority int, p Proc) Handle {
	ticks := TicksFor(period)
	tick := e.clock.Ticks()
	ent := &procEntry{
		name:     name,
		proc:     p,
		period:   ticks,
		priority: priority,
		order:    len(e.procs),
		enabled:  true,
		// First fire at the next multiple of the period, matching the
		// zero-phase schedule (tick % period == 0).
		next: ((tick + ticks - 1) / ticks) * ticks,
	}
	e.procs = append(e.procs, ent)
	if ticks == 1 {
		e.everyTick = append(e.everyTick, ent)
		// Registration is setup-time only, so re-sorting is cheap.
		sort.SliceStable(e.everyTick, func(i, j int) bool {
			return procLess(e.everyTick[i], e.everyTick[j])
		})
	} else {
		heap.Push(&e.slow, ent)
	}
	return Handle{ent: ent}
}

// RegisterRate is Register with a frequency in hertz.
func (e *Engine) RegisterRate(name string, hz float64, priority int, p Proc) Handle {
	period := time.Duration(float64(time.Second) / hz)
	return e.Register(name, period, priority, p)
}

// SetEnabled switches a process on or off. Disabled processes are
// skipped but keep their phase.
func (h Handle) SetEnabled(on bool) { h.ent.enabled = on }

// Enabled reports whether the process currently runs.
func (h Handle) Enabled() bool { return h.ent.enabled }

// Name returns the registered process name.
func (h Handle) Name() string { return h.ent.name }

// After schedules f to run once when the clock reaches now+d,
// at the end of that tick (after all periodic processes).
func (e *Engine) After(d time.Duration, f func(now time.Duration)) {
	e.pushOneShot(e.clock.Ticks()+TicksFor(d), f)
}

// At schedules f at an absolute simulated time. Times in the past (or
// now) run at the end of the current tick's step.
func (e *Engine) At(t time.Duration, f func(now time.Duration)) {
	at := int64((t + Tick/2) / Tick)
	if at < e.clock.Ticks() {
		at = e.clock.Ticks()
	}
	e.pushOneShot(at, f)
}

func (e *Engine) pushOneShot(tick int64, f func(now time.Duration)) {
	e.seq++
	heap.Push(&e.oneShots, oneShot{tick: tick, seq: e.seq, fn: f})
}

// Stop ends the run at the end of the current tick.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Step advances the simulation by one tick: runs every periodic
// process due at this tick, then any one-shots due, then advances
// the clock.
func (e *Engine) Step() {
	now := e.clock.Now()
	tick := e.clock.Ticks()

	// Collect the slow processes due this tick. Heap pops arrive in
	// (priority, order) order because their next-fire keys are equal.
	// The <= guards against a process registered mid-tick whose first
	// fire landed on the tick being stepped: it runs one tick late
	// instead of stalling the heap head forever.
	e.due = e.due[:0]
	for len(e.slow) > 0 && e.slow[0].next <= tick {
		e.due = append(e.due, heap.Pop(&e.slow).(*procEntry))
	}

	// Merge the always-due fast list with the due slow list, both
	// sorted by (priority, order), preserving the global invocation
	// order of the scan-based engine. Most ticks have no slow process
	// due, so that case skips the merge bookkeeping entirely.
	fast := e.everyTick
	if len(e.due) == 0 {
		for _, p := range fast {
			if p.enabled {
				p.proc.Tick(now)
			}
		}
	} else {
		i, j := 0, 0
		for i < len(fast) || j < len(e.due) {
			var p *procEntry
			if j >= len(e.due) || (i < len(fast) && procLess(fast[i], e.due[j])) {
				p = fast[i]
				i++
			} else {
				p = e.due[j]
				j++
			}
			if p.enabled {
				p.proc.Tick(now)
			}
		}
	}

	// Reschedule the slow processes that fired (or were skipped while
	// disabled — their phase advances either way). Catch-up keeps the
	// zero-phase schedule for entries that ran late.
	for _, p := range e.due {
		for p.next += p.period; p.next <= tick; p.next += p.period {
		}
		heap.Push(&e.slow, p)
	}

	// One-shots due now, including any scheduled for this tick by the
	// processes (or one-shots) above.
	for len(e.oneShots) > 0 && e.oneShots[0].tick <= tick {
		f := heap.Pop(&e.oneShots).(oneShot)
		f.fn(now)
	}
	e.clock.Advance()
}

// Checkpoint records the engine's one-shot schedule so Seek can
// re-arm it. Call it once at the end of scenario construction, after
// every Register/At of the build phase; the clock must still be at
// zero.
//
// Checkpoint is what makes an Engine reusable across campaign runs:
// one-shots are consumed as they fire, so without a recorded schedule
// a rewound run would fly with no attack, no faults, and no monitor
// arming.
func (e *Engine) Checkpoint() {
	if e.clock.Ticks() != 0 {
		panic("sim: Checkpoint after the clock advanced")
	}
	e.chkOneShots = append(e.chkOneShots[:0], e.oneShots...)
	e.chkSeq = e.seq
	e.chkValid = true
}

// EngineState is the engine's contribution to a mid-run snapshot: the
// clock position, the stop flag, and every process's enabled flag at
// the moment of capture. Together with the schedule Checkpoint recorded
// at build time it is enough to Seek an identically built engine to the
// same point — the pending one-shot set at any tick T is exactly the
// checkpointed schedule filtered to fire ticks >= T, and every periodic
// process's next fire is a pure function of (T, period).
//
// The zero value is ready to use; StateInto reuses its buffers across
// captures.
type EngineState struct {
	tick    int64
	stopped bool
	enabled []bool
}

// Tick returns the captured clock position.
func (st *EngineState) Tick() int64 { return st.tick }

// ScheduleAtCheckpoint reports whether the engine's pending one-shot
// schedule is exactly the checkpointed schedule filtered to ticks not
// yet reached — that is, no one-shots were added dynamically mid-run.
// It is the non-panicking form of the StateInto precondition; fork
// campaigns probe it to decide whether a mid-run snapshot is possible
// before committing to one.
func (e *Engine) ScheduleAtCheckpoint() bool {
	if !e.chkValid {
		return false
	}
	tick := e.clock.Ticks()
	pending := 0
	for _, os := range e.chkOneShots {
		if os.tick >= tick {
			pending++
		}
	}
	return pending == len(e.oneShots)
}

// StateInto captures the engine's mid-run state into st, reusing st's
// buffers. It requires a Checkpoint and verifies the core snapshot
// premise — that every pending one-shot is part of the checkpointed
// schedule (none were added dynamically mid-run) — and panics
// otherwise, because Seek reconstructs the pending set from the
// checkpoint alone.
func (e *Engine) StateInto(st *EngineState) {
	if !e.chkValid {
		panic("sim: StateInto without Checkpoint")
	}
	tick := e.clock.Ticks()
	pending := 0
	for _, os := range e.chkOneShots {
		if os.tick >= tick {
			pending++
		}
	}
	if pending != len(e.oneShots) {
		panic("sim: StateInto with dynamically scheduled one-shots pending; snapshots must be taken before any run-time After/At")
	}
	st.tick = tick
	st.stopped = e.stopped
	st.enabled = st.enabled[:0]
	for _, ent := range e.procs {
		st.enabled = append(st.enabled, ent.enabled)
	}
}

// Seek moves an engine built identically to the capture source to the
// captured state: clock at st's tick, the checkpointed one-shots not
// yet due re-armed, every process re-phased to its zero-phase next fire
// at that tick and restored to its captured enabled flag. The effects
// of everything that fired before the captured tick are NOT replayed —
// the caller restores the rest of the system state separately
// (core.System.RestoreFrom does both halves).
//
// Seek reuses the engine's own checkpointed one-shot closures, so they
// keep binding the engine's own system — snapshots never transfer
// callbacks between engines.
func (e *Engine) Seek(st *EngineState) {
	if !e.chkValid {
		panic("sim: Seek without Checkpoint")
	}
	if len(st.enabled) != len(e.procs) {
		panic("sim: Seek with mismatched process set; source and target must be built from the same scenario")
	}
	e.clock = Clock{ticks: st.tick}
	e.stopped = st.stopped
	// Re-arm the not-yet-due one-shots. The filtered subset of a heap is
	// not itself heap-ordered, so re-init.
	e.oneShots = e.oneShots[:0]
	for _, os := range e.chkOneShots {
		if os.tick >= st.tick {
			e.oneShots = append(e.oneShots, os)
		}
	}
	heap.Init(&e.oneShots)
	e.seq = e.chkSeq
	// Re-phase every slow process: after stepping ticks [0, T), the next
	// fire of a period-p process is the smallest multiple of p that is
	// >= T (phase advances even while disabled, so this holds for
	// disabled processes too). Every-tick processes never read their
	// next fire. Pushing in registration order rebuilds the heap exactly
	// as Register built it, so a tick-0 seek leaves the engine identical
	// to a fresh build.
	e.slow = e.slow[:0]
	for i, ent := range e.procs {
		ent.enabled = st.enabled[i]
		if ent.period > 1 {
			ent.next = ((st.tick + ent.period - 1) / ent.period) * ent.period
			heap.Push(&e.slow, ent)
		}
	}
	e.due = e.due[:0]
}

// RunToTickContext advances the simulation until the clock reaches the
// absolute tick end, Stop is called, or the context is done. On
// cancellation the engine halts at a tick boundary and returns the
// context's error, leaving the system in a consistent mid-run state
// that can still be snapshotted. Every run of a core.System goes
// through it: a whole flight, the fork campaign's shared prefix up to
// the snapshot tick, and a restored run's resumption to the flight's
// end.
func (e *Engine) RunToTickContext(ctx context.Context, end int64) error {
	countdown := 0
	for e.clock.Ticks() < end && !e.stopped {
		if countdown == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			countdown = ctxCheckTicks
		}
		countdown--
		e.Step()
	}
	return nil
}

// ctxCheckTicks is how often RunToTickContext polls the context: every
// 1024 ticks (~0.1 s simulated) keeps the poll off the per-tick hot
// path while bounding cancellation latency to a fraction of a
// simulated second.
const ctxCheckTicks = 1024

// Run advances the simulation for the given duration or until Stop.
func (e *Engine) Run(d time.Duration) {
	end := e.clock.Ticks() + TicksFor(d)
	for e.clock.Ticks() < end && !e.stopped {
		e.Step()
	}
}

// RunUntil advances until the absolute simulated time t or Stop.
func (e *Engine) RunUntil(t time.Duration) {
	for e.clock.Now() < t && !e.stopped {
		e.Step()
	}
}

// String summarizes the engine state for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{t=%v procs=%d}", e.clock.Now(), len(e.procs))
}
