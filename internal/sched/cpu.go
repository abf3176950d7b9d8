package sched

import (
	"fmt"
	"math"
	"time"

	"containerdrone/internal/membw"
	"containerdrone/internal/memguard"
)

// neverDue is a release time beyond any simulated horizon, used when
// no periodic task is registered.
const neverDue = time.Duration(math.MaxInt64)

// CPU is the multicore fixed-priority FIFO scheduler. It advances in
// engine ticks: each tick every core runs its highest-priority ready
// task, with progress scaled by memory-bus contention and gated by
// MemGuard throttling.
//
// The tick loop is structured for the 10 kHz hot path: the earliest
// pending release time is cached, so ticks with no release due (the
// overwhelming majority at 10 kHz) skip the task scan entirely, and
// the per-core winner is recomputed only when that core's ready set
// changed (release, completion, task add/remove) — both bit-identical
// to the full per-tick rescan they replace.
type CPU struct {
	cores    int
	tick     time.Duration
	tickSec  float64 // tick.Seconds(), cached off the 10 kHz hot path
	tasks    []*Task
	byCore   [][]*Task
	busy     []*Task         // busy-loop tasks, always ready
	periodic []*Task         // periodic tasks, registration order
	nextDue  time.Duration   // earliest nextRelease across periodic tasks
	dirty    []bool          // per-core: ready set changed, re-pick
	bus      *membw.Bus      // optional
	guard    *memguard.Guard // optional
	idle     []int64         // idle ticks per core
	busyT    []int64         // busy ticks per core
	running  []*Task         // chosen task per core this tick
	demand   []float64       // full-speed demand per core this tick
	now      time.Duration   // time of the most recent Tick

	// activeCount and dirtyCount gate the idle fast path in Tick: when
	// no task is ready, no ready set changed, and no release is due,
	// the tick is pure idle accounting.
	activeCount int
	dirtyCount  int

	// base is the build-time task set recorded by Checkpoint, which
	// RestoreFrom re-seats — the rewind's way of undoing mid-run task
	// arrivals (attack tasks, fault spinners) and removals (the killed
	// receiver thread).
	base []*Task
}

// NewCPU builds a scheduler for the given core count and tick. The
// bus and guard are optional; nil disables memory modeling.
func NewCPU(cores int, tick time.Duration, bus *membw.Bus, guard *memguard.Guard) *CPU {
	if cores <= 0 {
		panic("sched: cores must be positive")
	}
	if tick <= 0 {
		panic("sched: tick must be positive")
	}
	if bus != nil && bus.Cores() != cores {
		panic("sched: bus core count mismatch")
	}
	return &CPU{
		cores:   cores,
		tick:    tick,
		tickSec: tick.Seconds(),
		nextDue: neverDue,
		bus:     bus,
		guard:   guard,
		byCore:  make([][]*Task, cores),
		dirty:   make([]bool, cores),
		idle:    make([]int64, cores),
		busyT:   make([]int64, cores),
		running: make([]*Task, cores),
		demand:  make([]float64, cores),
	}
}

// Cores returns the core count.
func (c *CPU) Cores() int { return c.cores }

// Add registers a task; it panics on invalid configuration (task sets
// are static program configuration, not runtime input).
func (c *CPU) Add(t *Task) *Task {
	if err := t.validate(c.cores); err != nil {
		panic(err)
	}
	// A task spawned mid-run releases from now, not from time zero.
	if !t.Busy() && t.nextRelease < c.now {
		t.nextRelease = c.now
	}
	t.seq = len(c.tasks)
	c.tasks = append(c.tasks, t)
	c.byCore[t.Core] = append(c.byCore[t.Core], t)
	if t.Busy() {
		c.busy = append(c.busy, t)
	} else {
		c.periodic = append(c.periodic, t)
		if t.nextRelease < c.nextDue {
			c.nextDue = t.nextRelease
		}
	}
	c.markDirty(t.Core)
	return t
}

// markDirty flags a core for re-pick, keeping the dirty-core count
// that gates the idle fast path.
func (c *CPU) markDirty(core int) {
	if !c.dirty[core] {
		c.dirty[core] = true
		c.dirtyCount++
	}
}

// Remove deregisters a task (e.g. the attacker killing the complex
// controller, or the monitor killing the receiver thread). The task's
// current job is abandoned.
func (c *CPU) Remove(t *Task) {
	c.tasks = removeTask(c.tasks, t)
	c.byCore[t.Core] = removeTask(c.byCore[t.Core], t)
	if t.Busy() {
		c.busy = removeTask(c.busy, t)
	} else {
		// nextDue may now be earlier than any remaining task's release;
		// that only costs one spurious scan, which recomputes it.
		c.periodic = removeTask(c.periodic, t)
	}
	if t.active {
		c.activeCount--
	}
	t.active = false
	c.markDirty(t.Core)
}

func removeTask(s []*Task, t *Task) []*Task {
	for i, x := range s {
		if x == t {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// Tasks returns the registered tasks (shared slice; do not mutate).
func (c *CPU) Tasks() []*Task { return c.tasks }

// IdleRate returns the fraction of observed ticks a core spent idle —
// the "CPU idle rate" measurement of the paper's Table II.
func (c *CPU) IdleRate(core int) float64 {
	total := c.idle[core] + c.busyT[core]
	if total == 0 {
		return 1
	}
	return float64(c.idle[core]) / float64(total)
}

// ResetIdleStats clears idle accounting (used to skip warm-up).
func (c *CPU) ResetIdleStats() {
	for i := range c.idle {
		c.idle[i] = 0
		c.busyT[i] = 0
	}
}

// Tick advances the scheduler by one tick ending at time now+tick.
// The sequence per tick: release jobs, pick per-core winners, gather
// memory demand, resolve contention, apply progress, fire completions.
func (c *CPU) Tick(now time.Duration) {
	c.now = now
	if c.guard != nil {
		c.guard.Tick(now)
	}

	// Idle fast path: no ready task anywhere, no ready set changed, and
	// no release due this tick — the overwhelming majority of 10 kHz
	// ticks in a lightly loaded flight. Pure idle accounting, nothing
	// else. This is observably identical to the full path: with no
	// ready task the previous full tick already resolved the bus at
	// zero demand, every running slot is nil, and no statistics besides
	// idle ticks can change.
	if c.activeCount == 0 && c.dirtyCount == 0 && now < c.nextDue && len(c.busy) == 0 {
		for i := range c.idle {
			c.idle[i]++
		}
		return
	}

	// Phase 1: job releases. Busy-loop tasks are always ready; the
	// periodic scan runs only on ticks where some release is due and
	// recomputes the earliest upcoming release as it goes.
	for _, t := range c.busy {
		if !t.active {
			t.active = true
			t.releaseTime = now
			c.activeCount++
			c.markDirty(t.Core)
		}
	}
	if now >= c.nextDue {
		next := neverDue
		for _, t := range c.periodic {
			for t.nextRelease <= now {
				t.stats.Released++
				if t.active {
					// Previous job still running: skip this release.
					t.stats.Missed++
				} else {
					t.active = true
					t.remaining = t.WCET
					t.releaseTime = t.nextRelease
					c.activeCount++
					c.markDirty(t.Core)
				}
				t.nextRelease += t.Period
			}
			if t.nextRelease < next {
				next = t.nextRelease
			}
		}
		c.nextDue = next
	}

	// Phase 2: pick the highest-priority active task per core,
	// rescanning only cores whose ready set changed since their last
	// pick (the winner is stable otherwise).
	for core := 0; core < c.cores; core++ {
		if !c.dirty[core] {
			continue
		}
		c.dirty[core] = false
		c.dirtyCount--
		var best *Task
		for _, t := range c.byCore[core] {
			if !t.active {
				continue
			}
			if best == nil || t.Priority > best.Priority ||
				(t.Priority == best.Priority && t.seq < best.seq) {
				best = t
			}
		}
		c.running[core] = best
	}

	// Phase 3: declare memory demand for non-throttled running tasks.
	lambda := 1.0
	if c.bus != nil {
		c.bus.BeginTick()
		for core := 0; core < c.cores; core++ {
			t := c.running[core]
			c.demand[core] = 0
			if t == nil {
				continue
			}
			if c.guard != nil && c.guard.Throttled(core) {
				continue
			}
			d := t.AccessRate * c.tickSec
			c.demand[core] = d
			c.bus.AddDemand(core, d)
		}
		lambda = c.bus.Resolve()
	}

	// Phase 4: apply progress and completions.
	for core := 0; core < c.cores; core++ {
		t := c.running[core]
		if t == nil {
			c.idle[core]++
			continue
		}
		c.busyT[core]++
		if c.guard != nil && c.guard.Throttled(core) {
			c.guard.NoteThrottledTick(core)
			continue // core stalled: no progress, no accesses
		}
		frac := membw.Slowdown(lambda, t.MemBound)
		progress := c.tick
		if frac != 1 {
			progress = time.Duration(float64(c.tick) * frac)
		}
		t.stats.RunTicks++
		if c.bus != nil && c.demand[core] > 0 {
			issued := c.demand[core] * frac
			c.bus.Charge(core, issued)
			if c.guard != nil {
				c.guard.Charge(core, issued)
			}
		}
		if t.Busy() {
			continue // busy tasks never complete
		}
		t.remaining -= progress
		if t.remaining <= 0 {
			t.active = false
			c.activeCount--
			t.stats.Completed++
			c.markDirty(core)
			latency := now + c.tick - t.releaseTime
			t.stats.SumLatency += latency
			if latency > t.stats.MaxLatency {
				t.stats.MaxLatency = latency
			}
			if t.Work != nil {
				t.Work(now)
			}
		}
	}
}

// EarliestCompletion returns a lower bound on the time of the tick at
// which t's Work runs next, given that the CPU's next Tick is at next.
// A job progresses at most one tick of work per tick, so an active job
// needs at least ceil(remaining/tick) more ticks and a pending one
// ceil(WCET/tick) from its release. Preemption, bus contention and
// MemGuard throttling only delay a job, so the bound holds whatever
// else runs. A busy-loop task never completes.
func (c *CPU) EarliestCompletion(t *Task, next time.Duration) time.Duration {
	if t.Busy() {
		return neverDue
	}
	start, work := next, t.remaining
	if !t.active {
		start, work = max(t.nextRelease, next), t.WCET
	}
	ticks := (work + c.tick - 1) / c.tick
	return start + (max(ticks, 1)-1)*c.tick
}

// Running returns the task currently occupying a core, or nil.
func (c *CPU) Running(core int) *Task { return c.running[core] }

// Checkpoint records the current task set as the base RestoreFrom
// re-seats. Call it once when scenario construction completes, before
// the first Tick.
func (c *CPU) Checkpoint() {
	c.base = append(c.base[:0], c.tasks...)
}

// String summarizes scheduler state.
func (c *CPU) String() string {
	return fmt.Sprintf("sched.CPU{cores=%d tasks=%d}", c.cores, len(c.tasks))
}
