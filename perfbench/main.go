// Command perfbench is the repository's benchmark: the measurement
// every performance claim about the simulator, the campaign engine and
// campaignd is made with. It drives four workloads through the public
// SDK (containerdrone) and the service package only, checks every
// output, and reports end-to-end metrics from an untraced run and
// per-layer metrics from a separate traced run. BENCHMARK.json at the
// repository root lists the same workloads and metrics with each
// metric's direction and regression bound.
//
// Run it from the repository root; run.sh builds it inside the
// checkout (build cache, binary and work files under .perfbench/):
//
//	bash perfbench/run.sh --workload flight-baseline --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --out bench-out
//	bash perfbench/run.sh --workload campaign-fork --trace bench-out   # traced, TRACE_*.json in bench-out
//	bash perfbench/run.sh --workload all --baseline bench-out/BENCH_<ts>.json
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics untraced, the
// per-layer metrics traced). With --workload all its metric names carry
// a "<workload>." prefix. The exit status is 1 when any check fails or
// a --baseline gate finds a regression.
//
// # Workloads
//
// Each workload is one process with at most two load goroutines or
// connections, a seed cycle of 8 values derived from --seed, and a
// window of --seconds split into sub-windows.
//
//   - flight-baseline: serial 30 s SDK flights (New + Run) of the
//     attack-free baseline. This is ticks/s of one flight; physics and
//     sched dominate and netsim idles, so an engine, physics or sched
//     change shows here and a netsim change should not.
//   - flight-flood: serial 30 s flights of udpflood, the paper's Fig. 7
//     flood from 8 s: netsim rings, the iptables token bucket, MAVLink
//     decode of garbage, the monitor rules and the Simplex switch. It is
//     the network and monitor side of the tick.
//   - campaign-fork: campaigns of gps-spoof x fault.rate {0.5, 1, 2, 4},
//     4 runs each, 12 s flights, 2 workers, prefix sharing on, records
//     streamed through StreamRecordsCSV(io.Discard). It runs the worker
//     pool, the fork planner (62.5% of ticks shared), Reset, Snapshot,
//     RestoreFrom, shard aggregation and index-ordered emit, which the
//     flights never touch, on the sensor and estimator path.
//   - service-journal: an in-process service.Server with 2 workers and a
//     fsyncing Journal, on loopback, under a closed loop of 2 clients (2
//     tenants). Their requests are, in a seeded order, three SubmitWait
//     jobs of 1 run x 0.5 s to one Submit + StreamRecords (SSE) job of
//     4 runs x 0.5 s, so per-job overhead (decode, validate probe-build,
//     two journal fsyncs, queue hand-off, a cold build, HTTP/SSE) is
//     most of the work.
//
// # Checks
//
// Flights re-fly the golden run (seed 7) and compare its FNV-64a result
// digest with testdata/golden; every timed flight's digest must equal
// the first flight with the same seed. campaign-fork checks that
// aggregates are equal with 1 and 2 workers, and every campaign must
// return 16 error-free records and the aggregates of the first campaign
// with its seed. service-journal checks that a job's aggregates equal a
// direct SDK campaign of the same request, and every request must end
// done with all its runs. A failed check counts the operation as failed.
//
// # End-to-end metrics (untraced)
//
// Every time is reported at the host speed the benchmark was defined
// at. The host's other tenants slow it by up to 1.6x in phases lasting
// from under a second to minutes, so each load client times a fixed
// probe of four small kernels every 50 ms between its operations, and
// an operation's time is divided by the median slowdown of the probes
// within 100 ms of it (probe.go). raw.op_ms_p50 and host.slowdown show
// what was measured before that division.
//
//   - setup_s: time to a ready state (checks plus one untimed warm-up
//     operation), median of 5 set-ups, each divided by the slowdown of
//     probes just before and after it.
//   - ops_per_s: flights, campaigns or requests per second, as clients x
//     operations / time spent in them; median over sub-windows.
//   - ticks_per_s: engine ticks executed per second, likewise.
//   - op_ms_p50: median operation time over every operation.
//   - alloc_bytes_per_op: bytes allocated in the window per operation,
//     less what the benchmark's own checks allocate.
//   - live_heap_mb: live heap after collection, taken after a fixed
//     number of operations run between the set-up and the window (16
//     flights or campaigns, 2048 requests).
//
// The relative spread of each across sub-windows is printed beside it.
//
// # Per-layer metrics (traced)
//
// The traced run alternates traced and untraced sub-windows. In traced
// ones it records spans around the benchmark's calls into each layer
// (sdk.new_us, sdk.run_ms, campaign.run_ms, campaign.emit_us,
// svc.submit_ms, svc.queue_ms, svc.run_ms, svc.respond_ms,
// svc.sse_first_record_ms) and a CPU profile, which is bucketed into
// tick_ns.<layer> (self time per executed tick: the internal packages,
// sdk, service, runtime, other) and stage_ns.<stage> (cumulative time per
// run or job: build, reset, snapshot, restore, fly, result, aggregate,
// emit, http, json, journal, gc), with profile.samples.* per bucket;
// samples inside the probe are left out. A bucket with fewer than 50
// samples prints as unresolved. trace_overhead_frac compares the
// throughput of the two kinds of sub-window. After the window,
// service-journal times single calls on its own request bytes:
// svc.decode_us, svc.validate_us, svc.journal_append_us,
// svc.metrics_scrape_us. Every run also reports exact counts that
// repeat for a seed (net.*, sched.*, monitor.*, campaign.*, svc.*),
// cpu_util (less the probe's CPU time), failed_frac, the tail latency
// op_ms_tail at the highest percentile with ten samples beyond it
// (op_ms_tail_pct, op_count), the median operation time as measured
// (raw.op_ms_p50) and the probe's median slowdown (host.slowdown).
// Metrics of layers a workload does not exercise print as n/a and are 0
// in the JSON.
package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// endToEnd are the metrics a user of the system sees, reported from the
// untraced run. Bounds live in BENCHMARK.json.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ticks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower"},
}

// spanMetrics maps each span the benchmark records to its per-layer
// metric, the median span duration in the metric's unit.
var spanMetrics = []struct {
	span, metric string
	unitNS       float64
}{
	{"sdk.new", "sdk.new_us", 1e3},
	{"sdk.run", "sdk.run_ms", 1e6},
	{"campaign.run", "campaign.run_ms", 1e6},
	{"campaign.emit", "campaign.emit_us", 1e3},
	{"svc.submit", "svc.submit_ms", 1e6},
	{"svc.queue", "svc.queue_ms", 1e6},
	{"svc.run", "svc.run_ms", 1e6},
	{"svc.respond", "svc.respond_ms", 1e6},
	{"svc.sse_first_record", "svc.sse_first_record_ms", 1e6},
}

// perLayer lists the per-layer metrics in report order.
func perLayer() []metricSpec {
	var out []metricSpec
	add := func(name, unit, better string) {
		out = append(out, metricSpec{Name: name, Unit: unit, Better: better})
	}
	for _, s := range spanMetrics {
		add(s.metric, s.metric[strings.LastIndexByte(s.metric, '_')+1:], "lower")
	}
	for _, n := range []string{"svc.decode_us", "svc.validate_us", "svc.journal_append_us", "svc.metrics_scrape_us"} {
		add(n, "us", "lower")
	}
	add("net.packets", "count", "higher")
	add("net.garbage_pkts", "count", "lower")
	add("sched.jobs_released", "count", "higher")
	add("sched.deadline_misses", "count", "lower")
	add("monitor.violations", "count", "lower")
	add("monitor.detect_ms", "ms", "lower")
	add("campaign.ticks_flown", "count", "lower")
	add("campaign.ticks_saved", "count", "higher")
	add("campaign.forked_runs", "count", "higher")
	add("campaign.prefix_share_ratio", "ratio", "higher")
	add("svc.accepted", "count", "higher")
	add("svc.rejected", "count", "lower")
	add("svc.jobs_retried", "count", "lower")
	add("cpu_util", "frac", "higher")
	add("trace_overhead_frac", "frac", "lower")
	add("failed_frac", "frac", "lower")
	add("op_ms_tail", "ms", "lower")
	add("op_ms_tail_pct", "pct", "higher")
	add("op_count", "count", "higher")
	add("raw.op_ms_p50", "ms", "lower")
	add("host.slowdown", "ratio", "lower")
	for _, l := range tickLayers {
		add("tick_ns."+l, "ns", "lower")
	}
	for _, s := range stagePatterns {
		add("stage_ns."+s.name, "ns", "lower")
	}
	for _, l := range tickLayers {
		add("profile.samples.tick."+l, "count", "lower")
	}
	for _, s := range stagePatterns {
		add("profile.samples.stage."+s.name, "count", "lower")
	}
	add("profile.samples.total", "count", "lower")
	return out
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 5

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed the workload inputs are derived from")
	seconds := flag.Float64("seconds", 25, "length of the measured window")
	traceArg := flag.String("trace", "0", `"1" for the traced run; a directory also writes TRACE_<ts>_<workload>.json there`)
	out := flag.String("out", "", "directory to write BENCH_<ts>.json (and a traced run's TRACE files) into")
	baseline := flag.String("baseline", "", "BENCH_*.json to gate against with BENCHMARK.json's bounds")
	flag.Parse()

	traced, traceDir := *traceArg != "0" && *traceArg != "", *out
	if traced && *traceArg != "1" {
		traceDir = *traceArg
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or non-positive --seconds\n", *name)
		return 2
	}

	ts := time.Now().UTC().Format("20060102T150405Z")
	rep := report{SchemaVersion: 1, Timestamp: ts, Seed: *seed, Seconds: *seconds, Traced: traced, env: currentEnv()}
	for _, w := range selected {
		r, tf, err := runWorkload(w, *seed, *seconds, traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		printResult(os.Stdout, r, *seed, *seconds, traced)
		rep.Workloads = append(rep.Workloads, r)
		if tf != nil && traceDir != "" {
			if err := writeJSON(traceDir, "TRACE_"+ts+"_"+w.name+".json", tf); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
		}
	}
	if *out != "" {
		if err := writeJSON(*out, "BENCH_"+ts+".json", rep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	status := 0
	if *baseline != "" {
		n, err := compareBaseline(os.Stdout, *baseline, rep.Workloads)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if n > 0 {
			status = 1
		}
	}
	line := summaryLine(rep.Workloads, traced)
	if !line.Correct {
		status = 1
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(raw))
	return status
}

// workloadResult is one workload's outcome.
type workloadResult struct {
	Name      string   `json:"name"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// EndToEnd holds the end-to-end metrics; Spread the relative IQR of
	// each across sub-windows (set-ups for setup_s).
	EndToEnd map[string]float64 `json:"end_to_end"`
	Spread   map[string]float64 `json:"spread"`
	// Layer holds every per-layer metric the run measured; untraced
	// runs lack spans and profile buckets.
	Layer map[string]float64 `json:"per_layer"`
	// unresolved names profile metrics resting on too few samples.
	unresolved map[string]bool
}

// runWorkload sets a workload up setupRepeats times, takes the live
// heap of the last set-up after heapOps operations, measures it, and
// derives its metrics.
func runWorkload(w workload, seed uint64, seconds float64, traced bool) (*workloadResult, *traceFile, error) {
	setups, inst, err := setUp(w, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	heap, err := heapAfter(inst, w.clients, w.heapOps)
	var win *window
	if err == nil {
		win, err = measure(inst, w.clients, seconds, traced)
	}
	var r *workloadResult
	var tf *traceFile
	if err == nil {
		r, tf, err = derive(w.name, win, setups, seed, seconds)
	}
	if err == nil {
		r.EndToEnd["live_heap_mb"] = float64(heap) / 1e6
		var layer map[string]float64
		layer, err = inst.layer(traced)
		maps.Copy(r.Layer, layer)
	}
	if err := errors.Join(err, inst.close()); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return r, tf, nil
}

// setUp sets w up setupRepeats times and returns the last instance and
// every set-up's time at the probe's reference speed: each is divided by
// the mean slowdown of the probes run just before and just after it.
func setUp(w workload, seed uint64) (setups []float64, inst instance, err error) {
	pr := newProber()
	setups = make([]float64, setupRepeats)
	for k := range setups {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
		}
		before, _ := pr.run()
		start := time.Now()
		if inst, err = w.setup(seed); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		elapsed := time.Since(start).Seconds()
		after, _ := pr.run()
		setups[k] = elapsed / ((before + after) / 2)
	}
	return setups, inst, nil
}

// heapAfter runs n untimed operations, split over clients goroutines as
// a window's are, and returns the live heap after them. A count, not the
// window, fixes the work behind the number: a system whose heap grows
// with the requests it has served would otherwise report the host's
// speed.
func heapAfter(inst instance, clients, n int) (uint64, error) {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range n / clients {
				if _, err := inst.op(c, i, nil, 0); err != nil {
					errs[c] = fmt.Errorf("operation %d of client %d before the heap is taken: %w", i, c, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	return liveHeap(), nil
}

// derive computes a window's metrics, all but the live heap and the
// workload's own per-layer values; a traced window also yields its
// trace file.
func derive(name string, win *window, setups []float64, seed uint64, seconds float64) (*workloadResult, *traceFile, error) {
	r := &workloadResult{
		Name: name, Attempted: len(win.recs), Errors: win.errs,
		EndToEnd: map[string]float64{}, Spread: map[string]float64{}, Layer: map[string]float64{},
	}
	for _, rec := range win.recs {
		if rec.failed {
			r.Failed++
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	ops, ticks := win.rates(false)
	durs, raw := win.durationsMS(false)
	r.EndToEnd["setup_s"], r.Spread["setup_s"] = median(setups), relIQR(setups)
	r.EndToEnd["ops_per_s"], r.Spread["ops_per_s"] = median(ops), relIQR(ops)
	r.EndToEnd["ticks_per_s"], r.Spread["ticks_per_s"] = median(ticks), relIQR(ticks)
	r.EndToEnd["op_ms_p50"] = median(durs)
	r.EndToEnd["alloc_bytes_per_op"] = float64(win.allocBytes) / float64(max(r.Attempted, 1))

	pct, tail, _ := tailPercentile(durs)
	r.Layer["op_ms_tail"], r.Layer["op_ms_tail_pct"], r.Layer["op_count"] = tail, pct, float64(len(durs))
	r.Layer["raw.op_ms_p50"] = median(raw)
	slowdowns := make([]float64, len(win.probes))
	for i, p := range win.probes {
		slowdowns[i] = p.slowdown
	}
	r.Layer["host.slowdown"] = median(slowdowns)
	r.Layer["cpu_util"] = (win.cpu - win.probeCPU).Seconds() / (win.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	r.Layer["failed_frac"] = float64(r.Failed) / float64(max(r.Attempted, 1))
	if !win.traced {
		return r, nil, nil
	}

	tops, _ := win.rates(true)
	r.Layer["trace_overhead_frac"] = 1 - median(tops)/median(ops)
	stats := summarize(win.tracer.spans)
	for _, sm := range spanMetrics {
		if st, ok := stats[sm.span]; ok {
			r.Layer[sm.metric] = st.MedianNS / sm.unitNS
		}
	}
	var samples []profSample
	for _, p := range win.profiles {
		s, err := parseProfile(p)
		if err != nil {
			return nil, nil, err
		}
		samples = append(samples, s...)
	}
	attr := attribute(slices.DeleteFunc(samples, inProbe))
	var tickCount, units int64
	for _, rec := range win.recs {
		if win.tracedSub(rec.sub) && !rec.failed {
			tickCount += rec.ticks
			units += int64(rec.units)
		}
	}
	values, unresolved := profileMetrics(attr, tickCount, units)
	maps.Copy(r.Layer, values)
	r.unresolved = unresolved

	tf := &traceFile{
		Workload: name, Seed: seed, Seconds: seconds,
		TraceOverheadFrac: r.Layer["trace_overhead_frac"],
		TracedTicks:       tickCount, TracedUnits: units,
		SpanStats: stats, Attribution: attr,
		Spans: win.tracer.spans[:min(len(win.tracer.spans), maxTraceSpans)],
	}
	return r, tf, nil
}

// liveHeap returns the live heap after two collections; the second
// empties the sync.Pool victim caches the first leaves alive, so pooled
// buffers do not count as live.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// opRec is one measured operation.
type opRec struct {
	sub        int           // sub-window the operation started in
	mid        time.Duration // since the window's start, at the operation's middle
	dur        time.Duration
	slowdown   float64 // of the probes around it; dur/slowdown is the reported time
	ticks      int64
	units      int
	checkBytes uint64
	failed     bool
}

// norm returns the operation's time at the probe's reference speed.
func (r opRec) norm() time.Duration { return time.Duration(float64(r.dur) / r.slowdown) }

// window is one measured window.
type window struct {
	clients    int
	nSub       int
	traced     bool
	recs       []opRec
	errs       []string // the first few distinct failures
	wall, cpu  time.Duration
	probes     []probeResult // sorted by time
	probeCPU   time.Duration // the CPU time the probes took, in cpu
	allocBytes uint64
	tracer     *tracer
	profiles   [][]byte
}

// maxErrors bounds how many distinct failures a window keeps.
const maxErrors = 5

// measure runs closed-loop operations on clients goroutines for
// seconds, split into sub-windows: 5 untraced, or 10 alternating
// traced (even) and untraced (odd) in a traced run. Each client runs
// the probe every probeEvery between its operations, and each operation
// gets the median slowdown of the probes within probeSpan of it. The
// calling goroutine switches tracing and the CPU profile at the
// boundaries.
func measure(inst instance, clients int, seconds float64, traced bool) (*window, error) {
	w := &window{clients: clients, nSub: 5, traced: traced}
	if traced {
		w.nSub = 10
	}
	sub := time.Duration(seconds*float64(time.Second)) / time.Duration(w.nSub)
	runtime.GC() // set-up garbage is not the window's
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(sub * time.Duration(w.nSub))
	if traced {
		w.tracer = newTracer(t0)
	}
	var tracing atomic.Bool
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr := newProber()
			var recs []opRec
			var probes []probeResult
			var probeCPU time.Duration
			var lastProbe time.Time
			for i := 0; ; i++ {
				if !time.Now().Before(deadline) {
					break
				}
				if time.Since(lastProbe) >= probeEvery {
					lastProbe = time.Now()
					slowdown, cpu := pr.run()
					probes = append(probes, probeResult{at: lastProbe.Sub(t0) + time.Since(lastProbe)/2, slowdown: slowdown})
					probeCPU += cpu
				}
				start := time.Now()
				var tr *tracer
				if tracing.Load() {
					tr = w.tracer
				}
				id := tr.newID()
				r, err := inst.op(c, i, tr, id)
				tr.record(id, 0, "op", start, start.Add(r.dur))
				recs = append(recs, opRec{sub: int(start.Sub(t0) / sub), mid: start.Sub(t0) + r.dur/2, dur: r.dur,
					ticks: r.ticks, units: r.units, checkBytes: r.checkBytes, failed: err != nil})
				if err != nil {
					mu.Lock()
					if msg := err.Error(); len(w.errs) < maxErrors && !slices.Contains(w.errs, msg) {
						w.errs = append(w.errs, msg)
					}
					mu.Unlock()
				}
			}
			mu.Lock()
			w.recs = append(w.recs, recs...)
			w.probes = append(w.probes, probes...)
			w.probeCPU += probeCPU
			mu.Unlock()
		}()
	}
	var profErr error
	for k := range w.nSub {
		on := w.tracedSub(k) && profErr == nil
		var buf bytes.Buffer
		if on {
			if profErr = pprof.StartCPUProfile(&buf); profErr != nil {
				on = false
			}
		}
		tracing.Store(on)
		time.Sleep(time.Until(t0.Add(sub * time.Duration(k+1))))
		if on {
			tracing.Store(false)
			pprof.StopCPUProfile()
			w.profiles = append(w.profiles, buf.Bytes())
		}
	}
	wg.Wait()
	w.wall = time.Since(t0)
	w.cpu = cpuTime() - cpu0
	slices.SortFunc(w.probes, func(a, b probeResult) int { return cmp.Compare(a.at, b.at) })
	for i := range w.recs {
		w.recs[i].slowdown = slowdownAt(w.probes, w.recs[i].mid)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	w.allocBytes = after.TotalAlloc - before.TotalAlloc
	for _, r := range w.recs {
		w.allocBytes -= min(r.checkBytes, w.allocBytes)
	}
	return w, profErr
}

// tracedSub reports whether sub-window k was traced.
func (w *window) tracedSub(k int) bool { return w.traced && k%2 == 0 }

// rates returns per-sub-window throughput, in operations and ticks per
// second, over the traced or untraced sub-windows. Throughput is
// clients x work / time spent in operations at the probe's reference
// speed, so neither the benchmark's own checks and probes between
// operations nor the host's slow phases count against the system.
func (w *window) rates(traced bool) (ops, ticks []float64) {
	for k := range w.nSub {
		if w.tracedSub(k) != traced {
			continue
		}
		var n, t int64
		var busy time.Duration
		for _, r := range w.recs {
			if r.sub == k && !r.failed {
				n++
				t += r.ticks
				busy += r.norm()
			}
		}
		if n == 0 || busy <= 0 {
			continue
		}
		ops = append(ops, float64(w.clients)*float64(n)/busy.Seconds())
		ticks = append(ticks, float64(w.clients)*float64(t)/busy.Seconds())
	}
	return ops, ticks
}

// durationsMS returns the times of the successful operations in the
// traced or untraced sub-windows, in milliseconds: at the probe's
// reference speed, and as measured.
func (w *window) durationsMS(traced bool) (norm, raw []float64) {
	for _, r := range w.recs {
		if w.tracedSub(r.sub) == traced && !r.failed {
			norm = append(norm, float64(r.norm().Nanoseconds())/1e6)
			raw = append(raw, float64(r.dur.Nanoseconds())/1e6)
		}
	}
	return norm, raw
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object printed as the last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summaryLine folds the workload results into the result line: the
// end-to-end metrics untraced, the per-layer metrics traced (0 where a
// workload does not exercise the layer). Several workloads prefix each
// metric with the workload's name.
func summaryLine(rs []*workloadResult, traced bool) resultLine {
	line := resultLine{Correct: len(rs) > 0, Metrics: map[string]metricValue{}}
	specs, values := endToEnd, func(r *workloadResult) map[string]float64 { return r.EndToEnd }
	if traced {
		specs, values = perLayer(), func(r *workloadResult) map[string]float64 { return r.Layer }
	}
	for _, r := range rs {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		prefix := ""
		if len(rs) > 1 {
			prefix = r.Name + "."
		}
		for _, m := range specs {
			line.Metrics[prefix+m.Name] = metricValue{Value: values(r)[m.Name], Unit: m.Unit}
		}
	}
	return line
}

// printResult prints one workload's metrics as a table.
func printResult(w io.Writer, r *workloadResult, seed uint64, seconds float64, traced bool) {
	fmt.Fprintf(w, "== %s  seed %d  window %gs  traced %v\n", r.Name, seed, seconds, traced)
	fmt.Fprintf(w, "   attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "   %-34s %16.6g %-6s %-6s spread %5.1f%%\n",
			m.Name, r.EndToEnd[m.Name], m.Unit, m.Better, 100*r.Spread[m.Name])
	}
	for _, m := range perLayer() {
		v, ok := r.Layer[m.Name]
		switch {
		case !ok && !traced:
			continue // measured only by the traced run
		case !ok:
			fmt.Fprintf(w, "   %-34s %16s %s\n", m.Name, "n/a", m.Unit)
		case r.unresolved[m.Name]:
			fmt.Fprintf(w, "   %-34s %16s %s (%.4g, under %d samples)\n", m.Name, "unresolved", m.Unit, v, minResolvedSamples)
		default:
			fmt.Fprintf(w, "   %-34s %16.6g %s\n", m.Name, v, m.Unit)
		}
	}
}

// env describes the machine a report was measured on.
type env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func currentEnv() env {
	e := env{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// report is the BENCH_<ts>.json document.
type report struct {
	SchemaVersion int     `json:"schema_version"`
	Timestamp     string  `json:"timestamp"`
	Seed          uint64  `json:"seed"`
	Seconds       float64 `json:"seconds"`
	Traced        bool    `json:"traced"`
	env
	Workloads []*workloadResult `json:"workloads"`
}

// maxTraceSpans bounds the spans a TRACE file keeps; the statistics
// cover all of them.
const maxTraceSpans = 100_000

// traceFile is the TRACE_<ts>_<workload>.json document of a traced run.
type traceFile struct {
	Workload          string              `json:"workload"`
	Seed              uint64              `json:"seed"`
	Seconds           float64             `json:"seconds"`
	TraceOverheadFrac float64             `json:"trace_overhead_frac"`
	TracedTicks       int64               `json:"traced_ticks"`
	TracedUnits       int64               `json:"traced_units"`
	SpanStats         map[string]spanStat `json:"span_stats"`
	Attribution       attribution         `json:"attribution"`
	Spans             []span              `json:"spans"`
}

func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(raw, '\n'), 0o644)
}

// benchmarkSpec is the part of BENCHMARK.json the gate reads.
type benchmarkSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
}

// compareBaseline gates the results against a BENCH file: each
// end-to-end metric of each workload both hold may worsen by at most
// its BENCHMARK.json bound. It prints every comparison and returns the
// number of regressions.
func compareBaseline(w io.Writer, path string, cur []*workloadResult) (int, error) {
	var base report
	if err := readJSON(path, &base); err != nil {
		return 0, err
	}
	var spec benchmarkSpec
	if err := readJSON("BENCHMARK.json", &spec); err != nil {
		return 0, err
	}
	regressions := 0
	for _, r := range cur {
		i := slices.IndexFunc(base.Workloads, func(b *workloadResult) bool { return b.Name == r.Name })
		if i < 0 {
			fmt.Fprintf(w, "baseline %s: no %s workload\n", path, r.Name)
			continue
		}
		b := base.Workloads[i]
		for _, m := range spec.EndToEnd {
			verdict := "ok"
			if regressed(m, b.EndToEnd[m.Name], r.EndToEnd[m.Name]) {
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "   %-16s %-20s %14.6g -> %14.6g %-4s bound %3.0f%%  %s\n",
				r.Name, m.Name, b.EndToEnd[m.Name], r.EndToEnd[m.Name], m.Unit, 100*m.Bound, verdict)
		}
	}
	return regressions, nil
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
