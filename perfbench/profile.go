package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// A CPU profile is decoded here with a minimal protobuf reader instead
// of an external pprof library: the benchmark imports nothing beyond
// the standard library and the repository's public packages.

// profSample is one stack of a CPU profile: its function names, leaf
// first (inlined callees before their callers), with the sample count
// and the CPU time it stands for.
type profSample struct {
	frames []string
	count  int64
	ns     int64
}

// parseProfile decodes a (gzipped) pprof CPU profile into its samples.
func parseProfile(raw []byte) ([]profSample, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		strs        []string
		sampleTypes []uint64 // string index of each value's type
		funcName    = map[uint64]uint64{}
		locFuncs    = map[uint64][]uint64{}
		samples     []rawSample
	)
	err := walkProto(raw, func(num int, v uint64, sub []byte) error {
		switch num {
		case 1: // sample_type
			return walkProto(sub, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walkProto(sub, func(n int, v uint64, b []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = appendVarints(s.locs, v, b)
				case 2:
					s.values, err = appendVarints(s.values, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := walkProto(sub, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return walkProto(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id, name uint64
			err := walkProto(sub, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	countIdx, nsIdx := -1, -1
	for i, t := range sampleTypes {
		switch str(t) {
		case "samples":
			countIdx = i
		case "cpu":
			nsIdx = i
		}
	}
	if countIdx < 0 || nsIdx < 0 {
		return nil, errors.New("profile: not a CPU profile (no samples/cpu value types)")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) != len(sampleTypes) {
			return nil, errors.New("profile: sample value count does not match sample types")
		}
		ps := profSample{count: int64(s.values[countIdx]), ns: int64(s.values[nsIdx])}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				ps.frames = append(ps.frames, str(funcName[f]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// walkProto calls fn for every field of one protobuf message: v holds
// a varint field's value, sub a length-delimited field's bytes. Fixed-
// width fields, which a pprof profile does not use, are skipped.
func walkProto(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var sub []byte
		switch key & 7 {
		case 0:
			if v, n = uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: a single
// value (v) when unpacked, every varint in packed when packed.
func appendVarints(dst []uint64, v uint64, packed []byte) ([]uint64, error) {
	if packed == nil {
		return append(dst, v), nil
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst, nil
}

// uvarint decodes one base-128 varint, returning its length (0 when b
// is truncated or the value overflows).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, 0
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// tickLayers are the buckets of per-tick self time: the simulator's
// packages under internal/ (the container, cgroup and vm packages
// together as the paper's container layer), the public SDK ("sdk"),
// the service, the Go runtime, and "other" for time with no repository
// frame on the stack (the HTTP server's connection loop, the
// benchmark's own checks).
var tickLayers = []string{
	"sim", "physics", "sensors", "estimate", "control", "sched", "membw",
	"memguard", "netsim", "mavlink", "monitor", "telemetry", "core",
	"attack", "fault", "container", "campaign", "sdk", "service",
	"runtime", "other",
}

// stagePatterns name the functions whose stacks make up each stage of a
// run or job. A pattern ending in "*" matches every function with that
// prefix; any other matches the function itself and its closures.
var stagePatterns = []struct {
	name     string
	patterns []string
}{
	{"build", []string{"containerdrone/internal/core.New"}},
	{"reset", []string{"containerdrone/internal/core.(*System).Reset"}},
	{"snapshot", []string{"containerdrone/internal/core.(*System).SnapshotInto"}},
	{"restore", []string{"containerdrone/internal/core.(*System).RestoreFrom"}},
	{"fly", []string{"containerdrone/internal/sim.(*Engine).Run*"}},
	{"result", []string{"containerdrone/internal/core.(*System).resultInto", "containerdrone.fromResult"}},
	{"aggregate", []string{"containerdrone/internal/campaign.(*Shard).*", "containerdrone/internal/campaign.MergeShards", "containerdrone.fromAggregate"}},
	{"emit", []string{"containerdrone.(*Campaign).Run.func*", "containerdrone/service.(*job).emit"}},
	{"http", []string{"net/http.*"}},
	{"json", []string{"encoding/json.*"}},
	{"journal", []string{"containerdrone/service.(*Journal).*"}},
	{"gc", []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}},
}

// minResolvedSamples is the sample count below which a bucket's time
// is reported as unresolved: at 100 Hz, fewer samples than this put
// the estimate's sampling error above ~15%.
const minResolvedSamples = 50

// attribution is a CPU profile bucketed by layer (self time, leaf
// attributed) and by stage (cumulative time, any frame).
type attribution struct {
	TotalSamples int64            `json:"total_samples"`
	TickNS       map[string]int64 `json:"tick_ns_total"`
	TickSamples  map[string]int64 `json:"tick_samples"`
	StageNS      map[string]int64 `json:"stage_ns_total"`
	StageSamples map[string]int64 `json:"stage_samples"`
}

// attribute buckets profile samples. Each sample's self time goes to
// one layer: the runtime when the leaf frame is in the runtime (the
// collector, the allocator, the scheduler), otherwise the innermost
// repository frame, so library code such as math or sort is charged to
// the layer that called it. Stage time is cumulative: a sample counts
// toward every stage one of its frames belongs to.
func attribute(samples []profSample) attribution {
	a := attribution{
		TickNS: map[string]int64{}, TickSamples: map[string]int64{},
		StageNS: map[string]int64{}, StageSamples: map[string]int64{},
	}
	for _, s := range samples {
		a.TotalSamples += s.count
		l := layerOf(s.frames)
		a.TickNS[l] += s.ns
		a.TickSamples[l] += s.count
		for _, st := range stagePatterns {
			if slices.ContainsFunc(s.frames, func(f string) bool { return matchesAny(f, st.patterns) }) {
				a.StageNS[st.name] += s.ns
				a.StageSamples[st.name] += s.count
			}
		}
	}
	return a
}

// profileMetrics turns an attribution into per-layer metrics: self time
// per executed tick (tick_ns.*), stage time per run or job (stage_ns.*)
// and the sample count behind each. unresolved names the time metrics
// resting on fewer than minResolvedSamples samples.
func profileMetrics(a attribution, ticks, units int64) (values map[string]float64, unresolved map[string]bool) {
	values, unresolved = map[string]float64{}, map[string]bool{}
	add := func(metric, samplesMetric string, ns, samples, per int64) {
		values[metric] = float64(ns) / float64(max(per, 1))
		values[samplesMetric] = float64(samples)
		if samples < minResolvedSamples {
			unresolved[metric] = true
		}
	}
	for _, l := range tickLayers {
		add("tick_ns."+l, "profile.samples.tick."+l, a.TickNS[l], a.TickSamples[l], ticks)
	}
	for _, s := range stagePatterns {
		add("stage_ns."+s.name, "profile.samples.stage."+s.name, a.StageNS[s.name], a.StageSamples[s.name], units)
	}
	values["profile.samples.total"] = float64(a.TotalSamples)
	return values, unresolved
}

func matchesAny(fn string, patterns []string) bool {
	for _, p := range patterns {
		if prefix, ok := strings.CutSuffix(p, "*"); ok {
			if strings.HasPrefix(fn, prefix) {
				return true
			}
		} else if fn == p || strings.HasPrefix(fn, p+".") {
			return true
		}
	}
	return false
}

// layerOf names the tick layer a stack's self time belongs to.
func layerOf(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	if pkg := pkgOf(frames[0]); pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	for _, f := range frames {
		switch pkg := pkgOf(f); {
		case pkg == "containerdrone":
			return "sdk"
		case pkg == "containerdrone/service":
			return "service"
		case strings.HasPrefix(pkg, "containerdrone/internal/"):
			name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "containerdrone/internal/"), "/")
			switch {
			case name == "cgroup" || name == "vm":
				return "container"
			case slices.Contains(tickLayers, name):
				return name
			}
			return "other"
		}
	}
	return "other"
}

// pkgOf extracts the import path from a Go symbol name such as
// "containerdrone/internal/sched.(*CPU).Step": everything before the
// first dot after the last slash. Type arguments of a generic function
// are cut first, since they may hold paths of their own.
func pkgOf(fn string) string {
	fn, _, _ = strings.Cut(fn, "[")
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
