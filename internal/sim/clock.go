// Package sim provides the deterministic fixed-step simulation kernel
// that every other ContainerDrone subsystem runs on: a microsecond
// clock, a seeded random number generator, a periodic-callback
// scheduler and a bounded trace buffer.
//
// The kernel is deterministic by design. The paper's testbed is a
// real-time system whose behaviour must be reproducible in analysis;
// all simulated concurrency (cores, network queues, sensor streams) is
// expressed as work performed inside a tick on the engine's goroutine,
// so a run is a pure function of (scenario, seed). The one real
// concurrency a run may have lives above this package: an optional
// airframe helper (internal/core) that integrates the vehicle on a
// second goroutine and is synchronized with the engine at the
// sensor/actuator boundary, without changing any result.
package sim

import (
	"fmt"
	"time"
)

// Tick is the base simulation step: 100 µs (10 kHz). All periodic
// activity in the framework (400 Hz motor output, 250 Hz IMU, MemGuard
// 1 ms regulation periods, scheduler quanta) divides evenly into it.
const Tick = 100 * time.Microsecond

// Clock is a discrete simulation clock advancing in whole Ticks.
// The zero value is a clock at time zero, ready to use.
type Clock struct {
	ticks int64
}

// Now returns the current simulated time.
func (c *Clock) Now() time.Duration { return time.Duration(c.ticks) * Tick }

// Ticks returns the number of whole ticks elapsed.
func (c *Clock) Ticks() int64 { return c.ticks }

// Advance moves the clock forward by exactly one tick.
func (c *Clock) Advance() { c.ticks++ }

// Seconds returns the current simulated time in seconds.
func (c *Clock) Seconds() float64 { return float64(c.ticks) * Tick.Seconds() }

// TicksPerSecond is the number of base ticks in one simulated second.
const TicksPerSecond = int64(time.Second / Tick)

// TicksFor converts a duration to a whole number of ticks, rounding to
// the nearest tick and never returning less than 1 for a positive
// duration. It panics on non-positive durations: a zero-period
// activity is always a configuration bug.
func TicksFor(d time.Duration) int64 {
	if d <= 0 {
		panic(fmt.Sprintf("sim: non-positive duration %v", d))
	}
	n := int64((d + Tick/2) / Tick)
	if n < 1 {
		n = 1
	}
	return n
}

// RateTicks returns the tick period of an activity that runs at the
// given frequency in hertz, e.g. RateTicks(400) = 25 ticks.
func RateTicks(hz float64) int64 {
	if hz <= 0 {
		panic(fmt.Sprintf("sim: non-positive rate %v Hz", hz))
	}
	period := time.Duration(float64(time.Second) / hz)
	return TicksFor(period)
}
