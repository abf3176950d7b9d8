package main

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestSlowdownAtTakesMedianOfNearbyProbes(t *testing.T) {
	ms := time.Millisecond
	if probeSpan != 100*ms {
		t.Fatalf("the cases below assume a probeSpan of 100 ms, not %v", probeSpan)
	}
	probes := []probeResult{
		{at: 0, slowdown: 1.0},
		{at: 50 * ms, slowdown: 1.25},
		{at: 150 * ms, slowdown: 1.5},
		{at: 500 * ms, slowdown: 2.0},
	}
	for _, c := range []struct {
		at   time.Duration
		want float64
	}{
		{100 * ms, 1.25}, // three within probeSpan: their median
		{25 * ms, 1.125}, // two within probeSpan
		{250 * ms, 1.5},  // exactly probeSpan after a probe counts
		{400 * ms, 2.0},  // exactly probeSpan before one counts
		{320 * ms, 1.5},  // none within probeSpan: the nearest
		{330 * ms, 2.0},
		{time.Second, 2.0}, // past the last probe
		{-200 * ms, 1.0},   // before the first
	} {
		if got := slowdownAt(probes, c.at); got != c.want {
			t.Errorf("slowdownAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	if got := slowdownAt(nil, time.Second); got != 1 {
		t.Errorf("slowdownAt with no probes = %v, want the reference speed 1", got)
	}
}

func TestProbeAllocatesNothing(t *testing.T) {
	p := newProber()
	p.run() // the map reaches its size once
	var slowdown float64
	var cpu time.Duration
	if allocs := testing.AllocsPerRun(3, func() { slowdown, cpu = p.run() }); allocs != 0 {
		t.Errorf("a probe allocates %v times; it must not add to alloc_bytes_per_op", allocs)
	}
	if slowdown <= 0 || cpu <= 0 {
		t.Errorf("probe took %v, slowdown %v", cpu, slowdown)
	}
}

func TestInProbeLeavesSystemSamples(t *testing.T) {
	probe := profSample{frames: []string{"math.sin", "main.(*prober).integrate", "main.(*prober).run", "main.measure.func1"}}
	system := profSample{frames: []string{"containerdrone/internal/physics.(*Body).Step", "main.measure.func1"}}
	if !inProbe(probe) || inProbe(system) {
		t.Errorf("inProbe(probe) = %v, inProbe(system) = %v", inProbe(probe), inProbe(system))
	}
}

// sleeper is an instance whose operations sleep for a fixed time.
type sleeper struct{ d time.Duration }

func (s sleeper) op(int, int, *tracer, int64) (opResult, error) {
	start := time.Now()
	time.Sleep(s.d)
	return opResult{dur: time.Since(start), ticks: 10, units: 1}, nil
}
func (sleeper) layer(bool) (map[string]float64, error) { return nil, nil }
func (sleeper) close() error                           { return nil }

func TestMeasureDividesEveryOperationBySlowdown(t *testing.T) {
	w, err := measure(sleeper{2 * time.Millisecond}, 2, 0.3, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * int(300*time.Millisecond/probeEvery); len(w.probes) < want {
		t.Errorf("%d probes in 0.3 s on 2 clients, want at least %d, one per client per %v", len(w.probes), want, probeEvery)
	}
	for i := 1; i < len(w.probes); i++ {
		if w.probes[i].at < w.probes[i-1].at {
			t.Fatalf("probes out of order at %d", i)
		}
	}
	if len(w.recs) == 0 {
		t.Fatal("no operations")
	}
	for _, r := range w.recs {
		if r.slowdown <= 0 || r.norm() != time.Duration(float64(r.dur)/r.slowdown) {
			t.Fatalf("operation %+v: slowdown %v, norm %v", r, r.slowdown, r.norm())
		}
	}
	if w.probeCPU <= 0 || w.probeCPU > w.cpu {
		t.Errorf("probe CPU %v of %v in the window", w.probeCPU, w.cpu)
	}
}

// counter is an instance that counts its operations per client and
// fails the ones numbered failAt.
type counter struct {
	calls  [2]atomic.Int64
	failAt int
}

func (c *counter) op(client, i int, _ *tracer, _ int64) (opResult, error) {
	c.calls[client].Add(1)
	if i == c.failAt {
		return opResult{}, errors.New("boom")
	}
	return opResult{dur: time.Microsecond, units: 1}, nil
}
func (*counter) layer(bool) (map[string]float64, error) { return nil, nil }
func (*counter) close() error                           { return nil }

func TestHeapAfterRunsAFixedCountOverClients(t *testing.T) {
	c := &counter{failAt: -1}
	heap, err := heapAfter(c, 2, 10)
	if err != nil || heap == 0 {
		t.Fatalf("heapAfter = %d, %v", heap, err)
	}
	if a, b := c.calls[0].Load(), c.calls[1].Load(); a != 5 || b != 5 {
		t.Errorf("clients ran %d and %d operations, want 5 each", a, b)
	}
	if _, err := heapAfter(&counter{failAt: 3}, 2, 10); err == nil {
		t.Error("a failed operation before the heap is taken must fail the run")
	}
}
