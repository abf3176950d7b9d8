package main

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a share of a larger machine, and
// the machine's other tenants slow every instruction stream in phases
// lasting from under a second to minutes: a flight that takes 50 ms in
// a quiet phase takes 80 ms in a busy one, in CPU time as much as in
// wall time, so neither steal accounting nor longer runs removes it.
// The benchmark therefore times a fixed probe between operations, four
// small kernels of the kinds of work the simulator does (float
// integration, an array sweep, a sort, map updates), and reports every
// time at the probe's reference speed: an operation timed while the
// probe ran 1.3 times slower than probeRefNS counts 1/1.3 of its
// measured time. The probe is code of the benchmark, never of the
// system, so a change to the system moves the reported times and leaves
// the probe alone. On that machine, over 150 s of serial flights, the
// quartiles of 20-second medians of flight time lay 38% apart as
// measured and 2% apart once divided by the probe's slowdown.

// probeRefNS is the probe's CPU time on the machine the benchmark was
// defined on (a 2-vCPU Intel Xeon KVM guest, Emerald Rapids) in a quiet
// phase.
const probeRefNS = 1.4e6

// probeEvery is how long a load client runs operations between probes.
const probeEvery = 50 * time.Millisecond

// probeSpan is the half-width of the interval around an operation whose
// probes set the slowdown its time is divided by. The host's speed can
// change within a second, so a narrow interval tracks it better than a
// wide one averages the probe's own noise away.
const probeSpan = 100 * time.Millisecond

// probeResult is one timed probe.
type probeResult struct {
	at       time.Duration // since the window's start, at the probe's middle
	slowdown float64       // probe time / probeRefNS
}

// prober runs the probe. Its kernels keep their buffers between runs,
// so a probe allocates nothing; one prober serves one goroutine.
type prober struct {
	bodies []body
	grid   []float64
	keys   []int32
	sorted []int32
	counts map[uint32]uint32
	sink   float64
}

type body struct{ p, v [3]float64 }

func newProber() *prober {
	p := &prober{
		bodies: make([]body, 64),
		grid:   make([]float64, 32<<10),
		keys:   make([]int32, 8<<10),
		sorted: make([]int32, 8<<10),
		counts: make(map[uint32]uint32, 4<<10),
	}
	x := uint32(7)
	for i := range p.keys {
		x = x*1664525 + 1013904223
		p.keys[i] = int32(x >> 1)
	}
	return p
}

// run times one probe on the calling goroutine's thread and returns its
// slowdown against probeRefNS and the CPU time it took.
func (p *prober) run() (slowdown float64, cpu time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	p.integrate()
	p.sweep()
	p.sort()
	p.count()
	cpu = threadCPU() - c0
	return float64(cpu.Nanoseconds()) / probeRefNS, cpu
}

// integrate steps 64 bodies through a sine potential, the shape of the
// simulator's physics.
func (p *prober) integrate() {
	for i := range p.bodies {
		p.bodies[i] = body{p: [3]float64{float64(i), 1, 2}}
	}
	for range 250 {
		for i := range p.bodies {
			b := &p.bodies[i]
			for k := range 3 {
				a := -math.Sin(b.p[k]) * 0.1
				b.v[k] += a * 0.01
				b.p[k] += b.v[k] * 0.01
			}
		}
	}
	p.sink += p.bodies[0].p[0]
}

// sweep reads and writes a 256 KB array with independent chains and a
// data-dependent branch.
func (p *prober) sweep() {
	g := p.grid
	n := len(g)
	a, b, c, d := 1.0, 2.0, 3.0, 4.0
	for range 8 {
		for i := 0; i < n; i += 4 {
			a += g[i] * 1.0001
			b += g[i+1] * 0.9999
			c = c*0.5 + g[i+2]
			d = d*0.25 + g[(i*7)%n]
			g[i+3] = a - b
			if g[i] > c {
				d++
			}
		}
	}
	p.sink += a + b + c + d
	clear(g)
}

// sort sorts a fixed shuffle of 8192 keys.
func (p *prober) sort() {
	copy(p.sorted, p.keys)
	slices.Sort(p.sorted)
	p.sink += float64(p.sorted[100])
}

// count updates a map of 4096 keys 10000 times.
func (p *prober) count() {
	clear(p.counts)
	x := uint32(1)
	for range 10000 {
		x = x*1664525 + 1013904223
		p.counts[x&0xfff] += x
	}
	p.sink += float64(len(p.counts))
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPU returns the CPU time of the calling thread, which excludes
// the time the thread waited for a processor.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + e.Error()) // Linux always has this clock
	}
	return time.Duration(ts.Nano())
}

// slowdownAt returns the median slowdown of the probes within probeSpan
// of t, or of the nearest probe when none is that close; probes must be
// sorted by time. With no probes it returns 1, the reference speed.
func slowdownAt(probes []probeResult, t time.Duration) float64 {
	if len(probes) == 0 {
		return 1
	}
	lo, _ := slices.BinarySearchFunc(probes, t-probeSpan, func(p probeResult, t time.Duration) int { return cmp.Compare(p.at, t) })
	hi, _ := slices.BinarySearchFunc(probes, t+probeSpan+1, func(p probeResult, t time.Duration) int { return cmp.Compare(p.at, t) })
	if lo == hi {
		i := min(lo, len(probes)-1)
		if i > 0 && t-probes[i-1].at < probes[i].at-t {
			i--
		}
		return probes[i].slowdown
	}
	near := make([]float64, 0, hi-lo)
	for _, p := range probes[lo:hi] {
		near = append(near, p.slowdown)
	}
	return median(near)
}

// inProbe reports whether a profile sample is the probe's, which the
// attribution leaves out: it is the benchmark's work, not the system's.
func inProbe(s profSample) bool {
	return slices.ContainsFunc(s.frames, func(f string) bool { return strings.HasPrefix(f, "main.(*prober).") })
}
