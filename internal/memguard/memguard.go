// Package memguard reimplements the MemGuard memory-bandwidth
// reservation system (Yun et al., RTAS 2013) on top of the membw bus
// model. Each CPU core gets a budget of memory accesses per regulation
// period; a core that exhausts its budget is throttled — its tasks
// make no progress and issue no accesses — until the budget is
// replenished at the next period boundary.
//
// This is the paper's defense for the memory-bandwidth DoS (§III-D):
// the container core's budget is set to just what the complex
// controller needs, so the Bandwidth attack cannot saturate the shared
// bus and starve host-side drivers and the safety controller.
package memguard

import (
	"fmt"
	"time"
)

// DefaultPeriod is the regulation period used by MemGuard (1 ms).
const DefaultPeriod = time.Millisecond

// Guard regulates per-core memory bandwidth.
type Guard struct {
	enabled   bool
	period    time.Duration
	budgets   []float64 // accesses per period; <=0 = unregulated core
	used      []float64 // accesses charged this period
	throttled []bool
	nextReset time.Duration
	stats     []CoreStats
}

// CoreStats counts regulation activity for one core.
type CoreStats struct {
	Periods        int64   // regulation periods observed
	ThrottleEvents int64   // times the core hit its budget
	ThrottledTicks int64   // ticks spent throttled
	TotalCharged   float64 // lifetime accesses charged
}

// New builds a guard for the given core count with the default 1 ms
// regulation period. All cores start unregulated; set budgets with
// SetBudget. The guard starts disabled (the paper's baseline).
func New(cores int) *Guard {
	if cores <= 0 {
		panic("memguard: cores must be positive")
	}
	return &Guard{
		period:    DefaultPeriod,
		budgets:   make([]float64, cores),
		used:      make([]float64, cores),
		throttled: make([]bool, cores),
		stats:     make([]CoreStats, cores),
	}
}

// SetPeriod changes the regulation period (must be positive).
func (g *Guard) SetPeriod(p time.Duration) {
	if p <= 0 {
		panic(fmt.Sprintf("memguard: non-positive period %v", p))
	}
	g.period = p
}

// Period returns the regulation period.
func (g *Guard) Period() time.Duration { return g.period }

// SetEnabled turns regulation on or off; disabling also clears any
// active throttle.
func (g *Guard) SetEnabled(on bool) {
	g.enabled = on
	if !on {
		for i := range g.throttled {
			g.throttled[i] = false
		}
	}
}

// Enabled reports whether regulation is active.
func (g *Guard) Enabled() bool { return g.enabled }

// SetBudget assigns a per-period access budget to a core. A budget of
// zero or less leaves the core unregulated (host cores in the paper
// keep full bandwidth; only the container core is capped).
func (g *Guard) SetBudget(core int, accessesPerPeriod float64) {
	g.budgets[core] = accessesPerPeriod
}

// Budget returns a core's per-period budget.
func (g *Guard) Budget(core int) float64 { return g.budgets[core] }

// GuardState is a snapshot of the regulator's dynamic state: per-core
// usage, throttles, statistics, and the next replenish time. The
// enabled flag, period, and budgets are configuration and stay with
// their owner.
type GuardState struct {
	used      []float64
	throttled []bool
	stats     []CoreStats
	nextReset time.Duration
}

// SnapshotInto captures the regulator's dynamic state into st, reusing
// st's buffers.
func (g *Guard) SnapshotInto(st *GuardState) {
	st.used = append(st.used[:0], g.used...)
	st.throttled = append(st.throttled[:0], g.throttled...)
	st.stats = append(st.stats[:0], g.stats...)
	st.nextReset = g.nextReset
}

// RestoreFrom rewinds the regulator to a captured state, keeping its
// own configuration. The core counts must match.
func (g *Guard) RestoreFrom(st *GuardState) {
	if len(st.used) != len(g.used) {
		panic("memguard: RestoreFrom with mismatched core count")
	}
	copy(g.used, st.used)
	copy(g.throttled, st.throttled)
	copy(g.stats, st.stats)
	g.nextReset = st.nextReset
}

// Tick advances the regulator to the given time: at each period
// boundary budgets replenish and throttles lift.
func (g *Guard) Tick(now time.Duration) {
	if now < g.nextReset {
		return
	}
	for i := range g.used {
		g.used[i] = 0
		g.throttled[i] = false
		if g.enabled {
			g.stats[i].Periods++
		}
	}
	g.nextReset = now + g.period
}

// Throttled reports whether the core is currently stalled by the
// regulator. Callers should count a throttled tick via NoteThrottledTick
// so stats reflect actual stall time.
func (g *Guard) Throttled(core int) bool {
	return g.enabled && g.throttled[core]
}

// NoteThrottledTick records one tick of stall time for a core.
func (g *Guard) NoteThrottledTick(core int) { g.stats[core].ThrottledTicks++ }

// Charge records accesses issued by a core this period. When the
// budget is exhausted the core becomes throttled until the next
// replenish. Charging an unregulated core only updates statistics.
func (g *Guard) Charge(core int, accesses float64) {
	g.stats[core].TotalCharged += accesses
	if !g.enabled || g.budgets[core] <= 0 {
		return
	}
	g.used[core] += accesses
	if g.used[core] >= g.budgets[core] && !g.throttled[core] {
		g.throttled[core] = true
		g.stats[core].ThrottleEvents++
	}
}

// Used returns accesses charged to the core in the current period.
func (g *Guard) Used(core int) float64 { return g.used[core] }

// Remaining returns the budget left this period for a regulated core,
// or +Inf semantics via a negative value for unregulated cores.
func (g *Guard) Remaining(core int) float64 {
	if g.budgets[core] <= 0 {
		return -1
	}
	rem := g.budgets[core] - g.used[core]
	if rem < 0 {
		return 0
	}
	return rem
}

// Stats returns a copy of a core's regulation statistics.
func (g *Guard) Stats(core int) CoreStats { return g.stats[core] }
