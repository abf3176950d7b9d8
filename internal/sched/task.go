// Package sched models the quad-core real-time scheduler of the
// paper's RPi3B: fixed-priority FIFO tasks pinned to cores (cgroup
// cpuset), with execution progress modulated by shared-memory
// contention (membw) and MemGuard throttling. The paper's CPU DoS
// protection (§III-C) is exactly this mechanism: the container's tasks
// are pinned to one core at a priority below every host-critical task,
// so they cannot steal cycles from drivers (prio 90) or the safety
// controller (prio 20).
package sched

import (
	"fmt"
	"time"
)

// Priorities used by the paper's deployment (§IV-C): kernel drivers
// run at FIFO 90, system interrupts around 40 (assigned by Linux), the
// safety controller at 20, and everything in the container below that.
const (
	PrioDriver    = 90
	PrioInterrupt = 40
	PrioSafety    = 20
	PrioContainer = 10
	PrioIdle      = 0
)

// Task is a periodic (or busy-loop) real-time task. Functional work is
// attached via the Work callback, which runs when a job completes —
// so everything downstream of a starved task is late exactly when the
// schedule says it is.
type Task struct {
	Name     string
	Core     int
	Priority int // FIFO priority, higher preempts lower

	// Period is the release period; zero means a busy-loop task that
	// is always ready (the Bandwidth attack, a CPU hog).
	Period time.Duration
	// WCET is the nominal per-job execution time at full memory speed.
	// Ignored for busy-loop tasks.
	WCET time.Duration

	// AccessRate is memory accesses issued per second of execution.
	AccessRate float64
	// MemBound is the fraction of execution stalled on memory at
	// saturation, in [0,1]; it converts bus contention into slowdown.
	MemBound float64

	// Work runs (at most once per job) when the job completes.
	Work func(now time.Duration)

	taskState
}

// taskState is a task's per-run scheduling state, captured and
// restored whole by CPU.SnapshotInto and CPU.RestoreFrom.
type taskState struct {
	active      bool
	remaining   time.Duration
	releaseTime time.Duration
	nextRelease time.Duration
	stats       TaskStats
	seq         int // registration order for FIFO tie-break
}

// TaskStats accumulates per-task scheduling outcomes.
type TaskStats struct {
	Released   int64
	Completed  int64
	Missed     int64 // releases skipped because the previous job still ran
	RunTicks   int64 // ticks this task occupied its core
	MaxLatency time.Duration
	SumLatency time.Duration
}

// AvgLatency returns mean release-to-completion latency.
func (s TaskStats) AvgLatency() time.Duration {
	if s.Completed == 0 {
		return 0
	}
	return s.SumLatency / time.Duration(s.Completed)
}

// MissRate returns the fraction of releases that were skipped.
func (s TaskStats) MissRate() float64 {
	if s.Released == 0 {
		return 0
	}
	return float64(s.Missed) / float64(s.Released)
}

// Stats returns a copy of the task's counters.
func (t *Task) Stats() TaskStats { return t.stats }

// Busy reports whether this is a busy-loop task.
func (t *Task) Busy() bool { return t.Period <= 0 }

// Utilization returns WCET/Period for periodic tasks and 1 for
// busy-loop tasks.
func (t *Task) Utilization() float64 {
	if t.Busy() {
		return 1
	}
	return float64(t.WCET) / float64(t.Period)
}

func (t *Task) validate(cores int) error {
	if t.Name == "" {
		return fmt.Errorf("sched: task with empty name")
	}
	if t.Core < 0 || t.Core >= cores {
		return fmt.Errorf("sched: task %q pinned to core %d of %d", t.Name, t.Core, cores)
	}
	if !t.Busy() && t.WCET <= 0 {
		return fmt.Errorf("sched: periodic task %q has non-positive WCET", t.Name)
	}
	if !t.Busy() && t.WCET > t.Period {
		return fmt.Errorf("sched: task %q WCET %v exceeds period %v", t.Name, t.WCET, t.Period)
	}
	if t.MemBound < 0 || t.MemBound > 1 {
		return fmt.Errorf("sched: task %q MemBound %v outside [0,1]", t.Name, t.MemBound)
	}
	if t.AccessRate < 0 {
		return fmt.Errorf("sched: task %q negative AccessRate", t.Name)
	}
	return nil
}
