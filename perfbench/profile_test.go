package main

import (
	"bytes"
	"compress/gzip"
	"testing"
)

// pbuf encodes the protobuf subset a pprof profile uses.
type pbuf struct{ b []byte }

func (p *pbuf) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pbuf) uint(num int, x uint64) { p.varint(uint64(num) << 3); p.varint(x) }

func (p *pbuf) bytes(num int, b []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pbuf) packed(num int, xs ...uint64) {
	var q pbuf
	for _, x := range xs {
		q.varint(x)
	}
	p.bytes(num, q.b)
}

// synthStack is one sample of a synthetic profile: locations leaf
// first, each a list of function names innermost first.
type synthStack struct {
	locs    [][]string
	samples uint64
}

// synthProfile encodes a gzipped CPU profile of the stacks at 10 ms
// per sample, alternating packed and unpacked repeated fields as the Go
// runtime's encoder does for short and long lists.
func synthProfile(t *testing.T, stacks []synthStack) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	str := map[string]uint64{}
	intern := func(s string) uint64 {
		if i, ok := str[s]; ok {
			return i
		}
		str[s] = uint64(len(strs))
		strs = append(strs, s)
		return str[s]
	}
	var p pbuf
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var q pbuf
		q.uint(1, intern(vt[0]))
		q.uint(2, intern(vt[1]))
		p.bytes(1, q.b)
	}
	funcID := map[string]uint64{}
	var locID uint64
	for si, st := range stacks {
		var ids []uint64
		for _, fns := range st.locs {
			locID++
			var loc pbuf
			loc.uint(1, locID)
			for _, fn := range fns {
				id, ok := funcID[fn]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[fn] = id
					var f pbuf
					f.uint(1, id)
					f.uint(2, intern(fn))
					p.bytes(5, f.b)
				}
				var line pbuf
				line.uint(1, id)
				loc.bytes(4, line.b)
			}
			p.bytes(4, loc.b)
			ids = append(ids, locID)
		}
		var s pbuf
		if si%2 == 0 {
			s.packed(1, ids...)
			s.packed(2, st.samples, st.samples*10_000_000)
		} else {
			for _, id := range ids {
				s.uint(1, id)
			}
			s.uint(2, st.samples)
			s.uint(2, st.samples*10_000_000)
		}
		p.bytes(2, s.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

const (
	runCtx    = "containerdrone/internal/sim.(*Engine).RunContext"
	engStep   = "containerdrone/internal/sim.(*Engine).Step"
	journalFn = "containerdrone/service.(*Journal).append"
)

func TestProfileBucketing(t *testing.T) {
	raw := synthProfile(t, []synthStack{
		// math inlined into physics: charged to physics.
		{[][]string{{"math.Sqrt", "containerdrone/internal/physics.(*Quad).Step"}, {engStep}, {runCtx}}, 60},
		// the allocator under netsim: charged to the runtime.
		{[][]string{{"runtime.mallocgc"}, {"containerdrone/internal/netsim.(*Network).Step"}, {engStep}, {runCtx}}, 5},
		// an fsync under the journal under an HTTP handler.
		{[][]string{{"syscall.Syscall6"}, {journalFn}, {"containerdrone/service.(*Journal).Accept"}, {"net/http.HandlerFunc.ServeHTTP"}}, 3},
		{[][]string{{"containerdrone/internal/cgroup.(*Group).Charge"}}, 2},
		{[][]string{{"net/http.(*conn).serve"}}, 4},
		{[][]string{{"containerdrone/internal/core.New.func1"}, {"containerdrone.NewFromConfig"}}, 1},
		// a generic function whose type argument holds another path.
		{[][]string{{"slices.SortFunc[go.shape.struct { containerdrone/internal/mavlink.X int }]"}, {"containerdrone/internal/core.(*System).resultInto"}}, 1},
		{[][]string{{"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}}, 7},
		{[][]string{{"main.main"}}, 2},
	})
	samples, err := parseProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 9 || len(samples[0].frames) != 4 || samples[0].frames[0] != "math.Sqrt" {
		t.Fatalf("parsed %d samples, first %+v", len(samples), samples[0])
	}
	a := attribute(samples)
	if a.TotalSamples != 85 {
		t.Errorf("total samples %d, want 85", a.TotalSamples)
	}
	for layer, want := range map[string]int64{
		"physics": 60, "runtime": 12, "service": 3, "container": 2, "other": 6, "core": 2, "netsim": 0, "sim": 0,
	} {
		if got := a.TickSamples[layer]; got != want {
			t.Errorf("tick samples[%s] = %d, want %d", layer, got, want)
		}
	}
	for stage, want := range map[string]int64{
		"fly": 65, "journal": 3, "http": 7, "build": 1, "result": 1, "gc": 7, "reset": 0,
	} {
		if got := a.StageSamples[stage]; got != want {
			t.Errorf("stage samples[%s] = %d, want %d", stage, got, want)
		}
	}

	values, unresolved := profileMetrics(a, 1000, 4)
	if got := values["tick_ns.physics"]; got != 60*10_000_000/1000 {
		t.Errorf("tick_ns.physics = %v, want 600000 ns per tick", got)
	}
	if got := values["stage_ns.fly"]; got != 65*10_000_000/4 {
		t.Errorf("stage_ns.fly = %v, want 162500000 ns per run", got)
	}
	if got := values["profile.samples.tick.runtime"]; got != 12 {
		t.Errorf("profile.samples.tick.runtime = %v, want 12", got)
	}
	// 60 and 65 samples resolve; everything under 50 does not.
	for metric, want := range map[string]bool{
		"tick_ns.physics": false, "stage_ns.fly": false, "tick_ns.runtime": true, "stage_ns.gc": true, "tick_ns.sim": true,
	} {
		if unresolved[metric] != want {
			t.Errorf("unresolved[%s] = %v, want %v", metric, unresolved[metric], want)
		}
	}
	if _, ok := values["profile.samples.total"]; !ok || len(values) != 2*(len(tickLayers)+len(stagePatterns))+1 {
		t.Errorf("profileMetrics returned %d values", len(values))
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, raw := range [][]byte{{0x0a, 0x05, 0x01}, {0xff}, {}} {
		if _, err := parseProfile(raw); err == nil {
			t.Errorf("parseProfile(%x) succeeded", raw)
		}
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"containerdrone/internal/sched.(*CPU).Step":        "containerdrone/internal/sched",
		"containerdrone.(*Campaign).Run.func1":             "containerdrone",
		"runtime.mallocgc":                                 "runtime",
		"internal/runtime/maps.(*Map).getWithKey":          "internal/runtime/maps",
		"slices.SortFunc[go.shape.struct { a/b.C int }]":   "slices",
		"net/http.(*conn).serve":                           "net/http",
		"containerdrone/service.(*Journal).append":         "containerdrone/service",
		"containerdrone/internal/core.(*System).Reset":     "containerdrone/internal/core",
		"vendor/golang.org/x/net/http2/hpack.(*Decoder).x": "vendor/golang.org/x/net/http2/hpack",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
