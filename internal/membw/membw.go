// Package membw models the shared DRAM bandwidth of the quad-core
// board. All cores draw from one bus; when aggregate demand exceeds
// capacity, every access takes proportionally longer, which slows
// tasks on *other* cores — the cross-core interference channel the
// memory-bandwidth DoS attack (IsolBench Bandwidth, paper §V-B)
// exploits and MemGuard closes.
//
// The model is deliberately simple and monotone: within one scheduler
// tick, each running task declares the number of memory accesses it
// would issue at full speed; the bus computes a latency-inflation
// factor λ = max(1, totalDemand/capacity). A task whose
// memory-boundedness is m then progresses at rate 1/(1+(λ−1)·m).
// Per-core performance counters record the accesses actually issued,
// exactly the signal MemGuard's regulator consumes.
package membw

import (
	"fmt"
	"time"
)

// Bus is the shared memory system. It is re-armed every scheduler tick
// with BeginTick, filled with per-core demand, then Resolve computes
// the inflation factor for that tick.
type Bus struct {
	cores       int
	capPerSec   float64 // accesses per second the DRAM can serve
	demand      []float64
	counters    []uint64 // lifetime accesses issued, per core (the PMC)
	lastLambda  float64
	tickSeconds float64
	capPerTick  float64 // capPerSec * tickSeconds, cached for Resolve
}

// NewBus builds a bus for the given core count and capacity in
// accesses/second. tick is the scheduler tick the bus is resolved at.
func NewBus(cores int, capPerSec float64, tick time.Duration) *Bus {
	if cores <= 0 {
		panic("membw: cores must be positive")
	}
	if capPerSec <= 0 {
		panic("membw: capacity must be positive")
	}
	return &Bus{
		cores:       cores,
		capPerSec:   capPerSec,
		demand:      make([]float64, cores),
		counters:    make([]uint64, cores),
		lastLambda:  1,
		tickSeconds: tick.Seconds(),
		capPerTick:  capPerSec * tick.Seconds(),
	}
}

// Cores returns the number of cores the bus serves.
func (b *Bus) Cores() int { return b.cores }

// CapacityPerTick returns how many accesses the bus serves per tick.
func (b *Bus) CapacityPerTick() float64 { return b.capPerTick }

// BeginTick clears per-tick demand.
func (b *Bus) BeginTick() {
	for i := range b.demand {
		b.demand[i] = 0
	}
}

// AddDemand declares that core would issue the given number of
// accesses this tick at full speed.
func (b *Bus) AddDemand(core int, accesses float64) {
	if accesses < 0 {
		panic(fmt.Sprintf("membw: negative demand %v", accesses))
	}
	b.demand[core] += accesses
}

// Demand returns the declared demand for a core this tick.
func (b *Bus) Demand(core int) float64 { return b.demand[core] }

// Resolve computes the latency-inflation factor λ for this tick:
// λ = max(1, totalDemand/capacityPerTick).
func (b *Bus) Resolve() float64 {
	total := 0.0
	for _, d := range b.demand {
		total += d
	}
	cap := b.CapacityPerTick()
	lambda := 1.0
	if total > cap {
		lambda = total / cap
	}
	b.lastLambda = lambda
	return lambda
}

// Lambda returns the inflation factor from the last Resolve.
func (b *Bus) Lambda() float64 { return b.lastLambda }

// Slowdown converts λ into the execution-progress fraction of a task
// with memory-boundedness m ∈ [0,1]: progress = 1/(1+(λ−1)·m).
func Slowdown(lambda, memBound float64) float64 {
	if lambda <= 1 || memBound <= 0 {
		return 1
	}
	if memBound > 1 {
		memBound = 1
	}
	return 1 / (1 + (lambda-1)*memBound)
}

// Charge records accesses actually issued by a core into its
// performance counter and returns the new count.
func (b *Bus) Charge(core int, accesses float64) uint64 {
	if accesses < 0 {
		panic("membw: negative charge")
	}
	b.counters[core] += uint64(accesses + 0.5)
	return b.counters[core]
}

// Counter reads a core's lifetime access count (the PMC MemGuard
// programs its overflow interrupt on).
func (b *Bus) Counter(core int) uint64 { return b.counters[core] }

// BusState is a snapshot of the bus's dynamic state: the per-core
// performance counters, the per-tick demand, and the last resolved λ.
// Capacity configuration stays with its owner.
type BusState struct {
	demand     []float64
	counters   []uint64
	lastLambda float64
}

// SnapshotInto captures the bus's dynamic state into st, reusing st's
// buffers.
func (b *Bus) SnapshotInto(st *BusState) {
	st.demand = append(st.demand[:0], b.demand...)
	st.counters = append(st.counters[:0], b.counters...)
	st.lastLambda = b.lastLambda
}

// RestoreFrom rewinds the bus to a captured state, keeping its own
// capacity configuration. The core counts must match.
func (b *Bus) RestoreFrom(st *BusState) {
	if len(st.demand) != len(b.demand) || len(st.counters) != len(b.counters) {
		panic("membw: RestoreFrom with mismatched core count")
	}
	copy(b.demand, st.demand)
	copy(b.counters, st.counters)
	b.lastLambda = st.lastLambda
}

// ResetCounter zeroes one core's counter, returning the old value.
func (b *Bus) ResetCounter(core int) uint64 {
	old := b.counters[core]
	b.counters[core] = 0
	return old
}
