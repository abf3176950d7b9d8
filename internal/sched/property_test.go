package sched

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"containerdrone/internal/membw"
	"containerdrone/internal/memguard"
)

// Property: work conservation — over any horizon, a core's busy ticks
// plus idle ticks equals the elapsed ticks, and a core with a ready
// busy-loop task is never idle.
func TestWorkConservationProperty(t *testing.T) {
	f := func(periodMS, wcetFrac uint8, horizon16 uint16) bool {
		period := time.Duration(int(periodMS)%20+2) * time.Millisecond
		wcet := time.Duration(float64(period) * (float64(wcetFrac%90+5) / 100))
		steps := int64(horizon16%5000) + 3000

		c := NewCPU(2, tick, nil, nil)
		c.Add(&Task{Name: "p", Core: 0, Priority: 50, Period: period, WCET: wcet})
		c.Add(&Task{Name: "hog", Core: 1, Priority: 10})
		for i := int64(0); i < steps; i++ {
			c.Tick(time.Duration(i) * tick)
		}
		// Core 1 runs the hog every tick: zero idle.
		if c.IdleRate(1) != 0 {
			return false
		}
		// Core 0 busy fraction ≈ utilization, within the tick
		// quantization and the partial-period boundary effect (at most
		// one extra job's worth of work inside the horizon).
		util := float64(wcet) / float64(period)
		got := 1 - c.IdleRate(0)
		horizonSec := float64(steps) * tick.Seconds()
		slack := tick.Seconds()/period.Seconds() + // one tick per job
			wcet.Seconds()/horizonSec + // boundary job
			0.01
		return got >= util-slack && got <= util+slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: completions never exceed releases, and releases match the
// horizon/period for a lone task.
func TestReleaseAccountingProperty(t *testing.T) {
	f := func(periodMS uint8, horizon16 uint16) bool {
		period := time.Duration(int(periodMS)%20+1) * time.Millisecond
		steps := int64(horizon16%8000) + 1000
		c := NewCPU(1, tick, nil, nil)
		task := c.Add(&Task{Name: "p", Core: 0, Priority: 50, Period: period, WCET: period / 4})
		for i := int64(0); i < steps; i++ {
			c.Tick(time.Duration(i) * tick)
		}
		st := task.Stats()
		if st.Completed > st.Released {
			return false
		}
		expected := int64(time.Duration(steps)*tick/period) + 1
		return st.Released >= expected-1 && st.Released <= expected+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a higher-priority task's latency is unaffected by any
// lower-priority load on the same core (priority isolation — the
// paper's CPU defense).
func TestPriorityIsolationProperty(t *testing.T) {
	f := func(lowWCETFrac uint8) bool {
		mk := func(withLoad bool) time.Duration {
			c := NewCPU(1, tick, nil, nil)
			hi := c.Add(&Task{Name: "hi", Core: 0, Priority: 90,
				Period: 4 * time.Millisecond, WCET: time.Millisecond})
			if withLoad {
				frac := float64(lowWCETFrac%95+5) / 100
				c.Add(&Task{Name: "lo", Core: 0, Priority: 10,
					Period: 10 * time.Millisecond,
					WCET:   time.Duration(frac * float64(10*time.Millisecond))})
			}
			for i := int64(0); i < 4000; i++ {
				c.Tick(time.Duration(i) * tick)
			}
			return hi.Stats().MaxLatency
		}
		return mk(true) == mk(false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: EarliestCompletion is a true lower bound. Over random task
// sets with equal-priority FIFO ties, bus contention, MemGuard
// throttling and higher-priority tasks arriving mid-run, every bound
// computed before a tick is no later than the task's next completion.
func TestEarliestCompletionBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const cores = 2
		bus := membw.NewBus(cores, 2e4+rng.Float64()*4e4, tick)
		guard := memguard.New(cores)
		guard.SetEnabled(true)
		guard.SetBudget(1, 50+rng.Float64()*400)
		c := NewCPU(cores, tick, bus, guard)

		// bound[t] is the latest bound computed since t last completed.
		bound := map[*Task]time.Duration{}
		ok := true
		var now time.Duration
		add := func(name string, prio int) {
			period := time.Duration(rng.Intn(40)+2) * tick
			task := &Task{
				Name: name, Core: rng.Intn(cores), Priority: prio,
				Period:     period,
				WCET:       time.Duration(1 + rng.Int63n(int64(period))),
				AccessRate: rng.Float64() * 4e7, MemBound: rng.Float64(),
			}
			task.Work = func(at time.Duration) {
				if b, seen := bound[task]; seen && at < b {
					ok = false
				}
				delete(bound, task)
			}
			c.Add(task)
		}
		for i := 0; i < 3+rng.Intn(4); i++ {
			add(fmt.Sprintf("t%d", i), 10*(1+rng.Intn(3))) // equal priorities are common
		}
		if rng.Intn(2) == 0 {
			c.Add(&Task{Name: "hog", Core: rng.Intn(cores), Priority: 5, AccessRate: 3e7, MemBound: 0.8})
		}
		arrival := int64(500 + rng.Intn(1000))
		for i := int64(0); i < 3000 && ok; i++ {
			now = time.Duration(i) * tick
			if i == arrival {
				add("late", 90) // preempts everything already there
			}
			for _, task := range c.Tasks() {
				if b := c.EarliestCompletion(task, now); b > bound[task] {
					bound[task] = b
				}
			}
			c.Tick(now)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
