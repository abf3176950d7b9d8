// Package campaign runs Monte-Carlo experiment campaigns over the
// scenario registry: N seeds × M scenario/parameter points, executed
// on a worker pool, reduced to per-point aggregate statistics (crash
// rate, failover rate, switch-time and deadline-miss percentiles).
//
// The paper evaluates each defense with a handful of hand-run flights
// (Figs 4–7); a campaign is the batch-sweep generalization — the same
// flights repeated across seed populations and parameter grids, the
// way MemGuard-style bandwidth regulation is evaluated across budget
// grids. Results are deterministic: a campaign is a pure function of
// (spec, base seed), independent of worker count and scheduling,
// because every run derives its seed from (base, point, run) and
// results are collected by index, not completion order.
package campaign

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"containerdrone/internal/core"
	"containerdrone/internal/sim"
)

// Point is one cell of the campaign grid: a registered scenario plus
// the parameter overrides that distinguish this cell from its
// neighbors in a sweep.
type Point struct {
	// Label names the cell in reports, e.g. "memdos/attack.rate=2e+09".
	Label string
	// Scenario is the registry name built for this cell.
	Scenario string
	// Params are applied on top of the scenario defaults (see
	// core.ApplyParam for the key set).
	Params map[string]float64
}

// Spec describes a campaign.
type Spec struct {
	// Points are the grid cells; see Expand for building them from
	// sweep definitions.
	Points []Point
	// Runs is the number of seeds per point.
	Runs int
	// Parallel is the worker count; 0 means runtime.GOMAXPROCS(0) —
	// the schedulable CPU count, which unlike NumCPU respects quota
	// and taskset restrictions.
	Parallel int
	// BaseSeed roots the deterministic per-run seed derivation.
	BaseSeed uint64
	// Duration overrides each scenario's flight length when non-zero
	// (campaigns usually run shorter flights than the paper figures).
	Duration time.Duration

	// PrefixShare enables checkpoint-fork prefix sharing: grid points
	// whose swept knobs only act after attack/fault onset (attack
	// parameters, fault severities, monitor thresholds) are grouped,
	// the common pre-onset prefix is flown once per (group, run), and
	// the variants fork from a mid-run snapshot. Grouping changes the
	// per-run seed derivation — every member of a group runs the
	// group leader's seed for a given run index, so forked variants
	// are comparable like-for-like — which is why the flag is part of
	// the spec rather than an execution hint: records differ between
	// modes by seeds, never by correctness. Non-qualifying groups (no
	// onset inside the flight, or a sweep touching pre-onset behavior)
	// transparently fall back to full flights.
	PrefixShare bool

	// Chaos, when non-nil, is the test-only fault-injection hook run
	// inside the worker's recover boundary before every cell attempt —
	// full flights, fork leaders and forked variants alike — proving
	// the campaign's crash isolation works without corrupting
	// anything. It may panic (a crash at the worker), stall (a hung
	// dependency), or return an error (Transient to exercise the retry
	// path, anything else for a permanent failure). point and run
	// identify the cell; attempt counts executions of that cell,
	// starting at 0. Production campaigns leave it nil and pay only a
	// recover() frame.
	Chaos func(point, run, attempt int) error

	// Stream, when non-nil, receives every Record exactly once, in
	// index order (point-major, then run), from Run's single emitter
	// goroutine off the workers' hot path: live CSV/JSON emit without
	// a post-pass. The emitter folds each record into its point's
	// aggregate just before the call, so a streamed records CSV is
	// byte-identical to the post-hoc WriteRecordsCSV output whatever
	// the worker or fork completion order. Cells that a cancellation
	// left unrun stream too, as error records.
	Stream func(Record)
}

// Record is the outcome of one run. Times are in simulated seconds so
// records serialize compactly and uniformly.
//
// A fleet run's Record describes its worst vehicle, field by field:
// Crashed and Switched are true when any member crashed or switched,
// with the earliest such time and its rule, and RMSError, MaxDeviation
// and MissRate are the maximum over the members. A single drone is the
// one-member fleet.
type Record struct {
	Point    string `json:"point"`
	Scenario string `json:"scenario"`
	// Faults names the run's injected fault plan ("gps-spoof",
	// "netsplit+jitter", "none"), so fault campaigns aggregate
	// detection and crash outcomes per fault mix.
	Faults   string  `json:"faults,omitempty"`
	Run      int     `json:"run"`
	Seed     uint64  `json:"seed"`
	Crashed  bool    `json:"crashed"`
	CrashS   float64 `json:"crash_s,omitempty"`
	Switched bool    `json:"switched"`
	SwitchS  float64 `json:"switch_s,omitempty"`
	Rule     string  `json:"rule,omitempty"`
	// RMSError and MaxDeviation are whole-flight tracking metrics (m).
	RMSError     float64 `json:"rms_error_m"`
	MaxDeviation float64 `json:"max_deviation_m"`
	// MissRate is the worst deadline-miss rate across the host's
	// flight-critical tasks (attack and CCE tasks excluded): the
	// scheduling health of the control pipeline under this run.
	MissRate float64 `json:"miss_rate"`
	// Err records a build or run failure; such runs carry no metrics.
	Err string `json:"err,omitempty"`
	// Panicked marks a run that died to a panic recovered at the
	// worker's crash boundary. The (scenario, seed) point is
	// quarantined: the failure record is final and never retried,
	// because a deterministic simulator panics the same way twice. Err
	// carries the panic value; Stack the goroutine stack at recovery.
	Panicked bool `json:"panicked,omitempty"`
	// Retries counts re-executions after transient failures; 0 for
	// first-attempt outcomes, healthy or failed.
	Retries int `json:"retries,omitempty"`
	// Stack is the recovered panic's goroutine stack (JSON only; the
	// records CSV omits it).
	Stack string `json:"stack,omitempty"`
}

// DeriveSeed maps (base, point, run) to the seed of one run with a
// SplitMix64-style mix. Derivation — rather than base+counter — keeps
// neighboring runs statistically independent and makes every run's
// seed reproducible in isolation (re-run cell 3 run 17 without
// executing the 50 runs before it).
func DeriveSeed(base uint64, point, run int) uint64 {
	z := base ^ (uint64(point)+1)*0x9e3779b97f4a7c15 ^ (uint64(run)+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		// Seed 0 means "keep the scenario default" to core.Build;
		// remap so every run gets an explicit seed.
		z = 0x2545f4914f6cdd1d
	}
	return z
}

// Run executes the campaign. It returns one Record per (point, run),
// ordered by point then run index regardless of worker interleaving;
// the per-point aggregates; and the execution Stats: ticks flown,
// prefix ticks saved by checkpoint forking, and how much of the grid
// qualified for sharing.
//
// When ctx is done, in-flight runs stop at the next engine checkpoint,
// every cell a worker reaches afterwards becomes an error record
// without building anything, and the partial result is returned
// together with the context's error. Every cell is present in the
// output; cells that never ran (or were interrupted) carry a non-empty
// Err.
//
// Every record takes one path: a completed cell sends its index to a
// single emitter goroutine, which takes the records in index order,
// folds each into its point's aggregate and then hands it to
// spec.Stream. The aggregates are reduced once, in point order, after
// the emitter drains.
func Run(ctx context.Context, spec Spec) ([]Record, []Aggregate, Stats, error) {
	var stats Stats
	// The planner sizes the spec and checks every cell first, so an
	// oversized grid or one bad sweep value fails before any flight.
	plan, err := planPrefixGroups(spec)
	if err != nil {
		return nil, nil, stats, err
	}
	total := len(spec.Points) * spec.Runs // sized by the planner
	for _, g := range plan.groups {
		if g.forkTick > 0 {
			stats.ForkGroups++
		}
	}
	workers := spec.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}

	// Work is dispatched as contiguous per-group run ranges rather
	// than single cells: a worker that receives runs [lo, hi) of one
	// group cold-builds each member at most once and restores between
	// the rest, so warm reuse survives even when a group's run count
	// is at or below the worker count (per-cell dispatch would hand
	// each worker a different point every pull and silently degrade
	// every run to a cold start). With prefix sharing off every point
	// is its own singleton group, reproducing the classic per-point
	// chunking exactly. Chunks are sized so each group is covered by
	// the fewest workers that still keep the whole pool busy.
	type chunk struct{ gi, lo, hi int } // runs [lo, hi) of group gi
	var chunks []chunk
	perWorker := (total + workers - 1) / workers
	for gi := range plan.groups {
		k := len(plan.groups[gi].members)
		chunkRuns := spec.Runs
		if per := perWorker / k; per < chunkRuns {
			chunkRuns = per
		}
		if chunkRuns < 1 {
			chunkRuns = 1
		}
		for lo := 0; lo < spec.Runs; lo += chunkRuns {
			hi := lo + chunkRuns
			if hi > spec.Runs {
				hi = spec.Runs
			}
			chunks = append(chunks, chunk{gi, lo, hi})
		}
	}

	// One flat preallocated record array shared by every worker: each
	// run writes its own index and then sends that index to the
	// emitter, whose receive orders the write before its read. The
	// buffer absorbs bursts so workers virtually never wait on the
	// emitter; only an observer persistently slower than the whole
	// pool backpressures it.
	records := make([]Record, total)
	folds := make([]pointAgg, len(spec.Points))
	for pi, p := range spec.Points {
		folds[pi].Point, folds[pi].Scenario = p.Label, p.Scenario
	}
	done := make(chan int, min(total, 8192))
	emitted := make(chan struct{})
	go func() {
		defer close(emitted)
		ready := make([]bool, total)
		next := 0
		for idx := range done {
			ready[idx] = true
			for ; next < total && ready[next]; next++ {
				folds[next/spec.Runs].add(&records[next])
				if spec.Stream != nil {
					spec.Stream(records[next])
				}
			}
		}
	}()

	workerStats := make([]Stats, workers)
	jobs := make(chan chunk)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := worker{spec: spec, plan: plan, gi: -1}
			for c := range jobs {
				w.runChunk(ctx, c.gi, c.lo, c.hi, records, done)
			}
			workerStats[wi] = w.stats
		}(wi)
	}
	for _, c := range chunks {
		jobs <- c
	}
	close(jobs)
	wg.Wait()
	close(done)
	<-emitted
	aggs := make([]Aggregate, len(folds))
	for pi := range folds {
		aggs[pi] = folds[pi].reduce()
	}
	for _, ws := range workerStats {
		stats.add(ws)
	}
	if demanded := stats.TicksFlown + stats.TicksSaved; demanded > 0 {
		stats.PrefixShareRatio = float64(stats.TicksSaved) / float64(demanded)
	}
	return records, aggs, stats, ctx.Err()
}

// buildPoint is the one per-cell check: it builds and validates the
// Config for one run of a point, covering all of core.New's checks. It
// refuses the seed key: a campaign derives every run's seed itself, and
// a warm restore would overrule a seed the point's params set.
func buildPoint(p Point, spec Spec, seed uint64) (core.Config, error) {
	if _, ok := p.Params["seed"]; ok {
		return core.Config{}, fmt.Errorf("campaign: point %q sets the seed key; a campaign derives each run's seed from its base seed", p.Label)
	}
	cfg, err := core.Build(p.Scenario, core.Options{
		Seed:     seed,
		Duration: spec.Duration,
		Params:   p.Params,
	})
	if err == nil {
		err = cfg.Validate()
	}
	return cfg, err
}

// Validate applies Run's gate, the planner's, without running
// anything. Prefix grouping is switched off: it decides no validity.
func Validate(spec Spec) error {
	spec.PrefixShare = false
	_, err := planPrefixGroups(spec)
	return err
}

// worker is one pool member's run state. Every cell it flies is one
// protected, retried runCell taking the same steps: acquire a System
// from the warm cache of the group it is flying (system), restored from
// the group's fork snapshot when the cell is a forked variant; fly a
// fork leader's shared prefix and capture that snapshot; and fly to the
// end of the flight into the cell's record (fly). A point without
// prefix sharing is a group of one. The cache holds one System per
// member point and is dropped when the worker moves to another group,
// bounding residency at one group's width, and after a panic (settle).
// A cached System comes back rewound from the tick-0 Snapshot captured
// right after its build instead of being rebuilt — rings, schedules,
// fault/attack plans, and telemetry buffers all survive in place, so
// the steady state of a campaign allocates nothing per run.
type worker struct {
	spec  Spec
	plan  *forkPlan
	gi    int           // group the cache belongs to (-1 none)
	cache map[int]*warm // point index → its cached System
	snap  core.Snapshot // the group's fork point
	res   core.Result
	stats Stats
}

// warm is one cached System; base is its tick-0 snapshot when it was
// cached to fly from tick 0 again (based), as a forked variant's is not.
type warm struct {
	sys   *core.System
	base  core.Snapshot
	based bool
}

// runChunk executes runs [lo, hi) of group gi — every member point at
// every run index in the range — writing each cell into
// records[pi*Runs+ri] and sending idx on done as it completes. Every
// cell is one runCell. In a group qualified for prefix sharing the
// leader captures the group's snapshot at the fork tick on its way
// through its own flight, and the other members fly from it; when the
// leader yields no snapshot they fly full flights. A cell reached after
// cancellation becomes an error record without building anything.
func (w *worker) runChunk(ctx context.Context, gi, lo, hi int, records []Record, done chan<- int) {
	if w.gi != gi {
		w.gi, w.cache = gi, nil
	}
	g := &w.plan.groups[gi]
	for ri := lo; ri < hi; ri++ {
		// A System is worth caching only if the worker flies its point
		// again in this chunk.
		again := ri+1 < hi
		forked := false
		for i, pi := range g.members {
			idx := pi*w.spec.Runs + ri
			switch err := ctx.Err(); {
			case err != nil:
				records[idx] = w.errRecord(pi, ri, err)
			case i == 0:
				records[idx], forked = w.runCell(ctx, pi, ri, again, g.forkTick, 0)
			case forked:
				records[idx], _ = w.runCell(ctx, pi, ri, again, 0, g.forkTick)
			default:
				records[idx], _ = w.runCell(ctx, pi, ri, again, 0, 0)
			}
			done <- idx
		}
	}
}

// runCell executes one (point, run) cell inside the recover boundary.
// With from > 0 the cell is a forked variant restored from the group's
// snapshot at that tick; otherwise it flies from tick 0. With capture >
// 0 it first flies the shared prefix to that tick and, when the runtime
// Snapshotable probe allows (it refuses when something acted before the
// planned onset after all, e.g. a swept monitor threshold tight enough
// to trip during the benign hover), captures the group's snapshot,
// reporting that it did. Transient failures retry with bounded
// exponential backoff; everything else settles the cell on its first
// attempt. A panic fails only this cell and drops the worker's cache,
// so one poisoned (scenario, seed) point cannot sink its group.
func (w *worker) runCell(ctx context.Context, pi, ri int, again bool, capture, from int64) (Record, bool) {
	var snap *core.Snapshot
	if from > 0 {
		snap = &w.snap
	}
	for attempt := 0; ; attempt++ {
		var rec Record
		captured := false
		err, panicked, stack := protect(func() error {
			if w.spec.Chaos != nil {
				if err := w.spec.Chaos(pi, ri, attempt); err != nil {
					return err
				}
			}
			sys, err := w.system(pi, ri, again, snap)
			if err != nil {
				return err
			}
			if capture > 0 {
				if err := sys.RunToTickContext(ctx, capture); err != nil {
					rec = w.errRecord(pi, ri, err)
					return nil
				}
				if sys.Snapshotable() == nil {
					sys.SnapshotInto(&w.snap)
					captured = true
				}
			}
			rec = w.fly(ctx, sys, pi, ri, from)
			return nil
		})
		if IsTransient(err) && attempt+1 < maxRunAttempts && ctx.Err() == nil {
			w.stats.RunsRetried++
			backoff(ctx, attempt)
			continue
		}
		rec = w.settle(ctx, pi, ri, rec, err, panicked, stack)
		rec.Retries = attempt
		return rec, captured
	}
}

// settle turns one protected cell attempt into the cell's record. A
// panic quarantines the cell — its failure record is final, since the
// simulator is deterministic and the same (scenario, seed) point would
// panic identically on retry — and drops the worker's cache, since the
// panic may have unwound mid-mutation. An error before the flight (a
// build failure, a chaos error) becomes an error record. Both count as
// failed runs, as does a flight that failed while the campaign was
// live; a flight interrupted by cancellation does not.
func (w *worker) settle(ctx context.Context, pi, ri int, rec Record, err error, panicked bool, stack []byte) Record {
	switch {
	case panicked:
		w.cache = nil
		rec = w.errRecord(pi, ri, err)
		rec.Panicked = true
		rec.Stack = string(stack)
		w.stats.RunsPanicked++
	case err != nil:
		rec = w.errRecord(pi, ri, err)
	case rec.Err == "" || ctx.Err() != nil:
		return rec
	}
	w.stats.RunsFailed++
	return rec
}

// system returns point pi's System for run index ri of the worker's
// current group. With fork nil the System stands at tick 0: the cached
// one restored from its tick-0 snapshot, or a cold build. With fork
// set it is restored from that mid-run snapshot instead. A cold build
// is cached only when the worker will fly the point again (again), and
// captured at tick 0 only when it is to fly from there.
func (w *worker) system(pi, ri int, again bool, fork *core.Snapshot) (*core.System, error) {
	seed := w.seed(pi, ri)
	if c := w.cache[pi]; c != nil && (fork != nil || c.based) {
		if fork == nil {
			fork = &c.base
		}
		c.sys.RestoreFrom(seed, fork)
		return c.sys, nil
	}
	cfg, err := buildPoint(w.spec.Points[pi], w.spec, seed)
	if err != nil {
		return nil, err
	}
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if fork != nil {
		sys.RestoreFrom(seed, fork)
	}
	if again {
		c := &warm{sys: sys, based: fork == nil}
		if c.based {
			sys.SnapshotInto(&c.base)
		}
		if w.cache == nil {
			w.cache = make(map[int]*warm, len(w.plan.groups[w.gi].members))
		}
		w.cache[pi] = c
	}
	return sys, nil
}

// seed is the seed of cell (pi, ri): derived from the point's group
// leader, so every member of a group flies the leader's seed.
func (w *worker) seed(pi, ri int) uint64 {
	return DeriveSeed(w.spec.BaseSeed, w.plan.leaderOf[pi], ri)
}

// errRecord is the shape of a cell that never ran: point identity,
// its (leader-derived) seed, and the error — no build, no metrics.
func (w *worker) errRecord(pi, ri int, err error) Record {
	p := w.spec.Points[pi]
	return Record{Point: p.Label, Scenario: p.Scenario, Run: ri, Seed: w.seed(pi, ri), Err: err.Error()}
}

// fly is every cell's fly-and-record step: it flies sys from its
// current tick to the end of its flight and records cell (pi, ri).
// from is the tick the cell's own flight began at: 0 for a full flight
// (a fork leader's shared prefix included), the fork tick for a member
// restored from the group's snapshot, whose prefix counts as saved.
func (w *worker) fly(ctx context.Context, sys *core.System, pi, ri int, from int64) Record {
	p := w.spec.Points[pi]
	rec := Record{Point: p.Label, Scenario: p.Scenario, Run: ri, Seed: w.seed(pi, ri)}
	if sys.Cfg.Faults.Active() {
		rec.Faults = sys.Cfg.Faults.String()
	}
	if err := sys.ResumeContextInto(ctx, &w.res); err != nil {
		// An interrupted flight carries no trustworthy metrics. A
		// cached System stays reusable: a restore rewinds mid-run state.
		rec.Err = err.Error()
		return rec
	}
	w.stats.TicksFlown += sim.TicksFor(sys.Cfg.Duration) - from
	if from > 0 {
		w.stats.TicksSaved += from
		w.stats.ForkedRuns++
	}
	fill(&rec, &w.res)
	return rec
}

// fill maps a Result onto a Record's outcome fields by the fleet rule
// (see Record): crash and switch from the Result's fleet aggregate,
// RMSError, MaxDeviation and MissRate the maximum over the vehicles'
// outcomes. A single drone is the one-vehicle case.
func fill(rec *Record, res *core.Result) {
	rec.Crashed = res.Crashed
	if res.Crashed {
		rec.CrashS = res.CrashTime.Seconds()
	}
	rec.Switched = res.Switched
	if res.Switched {
		rec.SwitchS = res.SwitchTime.Seconds()
		rec.Rule = string(res.SwitchRule)
	}
	for i := range max(1, len(res.Members)) {
		o := &res.Outcome
		if len(res.Members) > 0 {
			o = &res.Members[i].Outcome
		}
		rec.RMSError = max(rec.RMSError, o.Metrics.RMSError)
		rec.MaxDeviation = max(rec.MaxDeviation, o.Metrics.MaxDeviation)
		for _, t := range o.Tasks {
			if t.Core == core.CoreContainer || strings.HasPrefix(t.Name, "attack-") ||
				strings.HasPrefix(t.Name, "fault-") {
				continue // attacker/fault scheduling health is not a defense metric
			}
			if t.MissRate > rec.MissRate {
				rec.MissRate = t.MissRate
			}
		}
	}
}

// Sweep is one swept parameter: a key and its value grid.
type Sweep struct {
	Key    string    `json:"key"`
	Values []float64 `json:"values"`
}

// ParseSweep parses "key=v1,v2,v3" into a Sweep. Values accept any Go
// float syntax (so "attack.rate=1e9,4e9" works).
func ParseSweep(s string) (Sweep, error) {
	key, list, ok := strings.Cut(s, "=")
	if !ok || key == "" || list == "" {
		return Sweep{}, fmt.Errorf("campaign: bad sweep %q (want key=v1,v2,...)", s)
	}
	var sw Sweep
	sw.Key = strings.TrimSpace(key)
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return Sweep{}, fmt.Errorf("campaign: bad sweep value %q in %q: %v", f, s, err)
		}
		sw.Values = append(sw.Values, v)
	}
	return sw, nil
}

// The engine's ceilings: a grid point costs 1.5–3 KB to expand and
// check, a run one 184 B Record, so a full grid stays near 200 MB. Both
// are at or above campaignd's default cap of 65,536 runs.
const (
	MaxPoints = 1 << 16
	MaxRuns   = 1 << 20
)

// Size is the one sizing gate: points × Π len(sweep values) × runs,
// computed without expanding anything. It refuses an empty grid or
// sweep, a grid above either ceiling and, checked last, a key swept
// twice or a value repeated within a sweep, which would fly the same
// cells twice under two labels or under one. It returns the run count
// either way, saturated at math.MaxInt rather than wrapped.
func Size(points int, sweeps []Sweep, runs int) (int, error) {
	if points <= 0 || runs <= 0 {
		return 0, fmt.Errorf("campaign: grid of %d points × %d runs is empty", points, runs)
	}
	for _, sw := range sweeps {
		if len(sw.Values) == 0 {
			return 0, fmt.Errorf("campaign: sweep %q has no values", sw.Key)
		}
		points = SatMul(points, len(sw.Values))
	}
	n := SatMul(points, runs)
	switch {
	case points > MaxPoints:
		return n, fmt.Errorf("campaign: grid of %d points exceeds the engine ceiling of %d", points, MaxPoints)
	case n > MaxRuns:
		return n, fmt.Errorf("campaign: grid of %d runs exceeds the engine ceiling of %d", n, MaxRuns)
	}
	keys := make(map[string]bool, len(sweeps))
	for _, sw := range sweeps {
		if keys[sw.Key] {
			return n, fmt.Errorf("campaign: sweep key %q is repeated", sw.Key)
		}
		keys[sw.Key] = true
		seen := make(map[float64]bool, len(sw.Values))
		for _, v := range sw.Values {
			if seen[v] {
				return n, fmt.Errorf("campaign: sweep %q repeats the value %v", sw.Key, v)
			}
			seen[v] = true
		}
	}
	return n, nil
}

// SatMul is a×b for non-negative a and b, saturating at math.MaxInt, so
// a grid size can never wrap around below a cap.
func SatMul(a, b int) int {
	if b != 0 && a > math.MaxInt/b {
		return math.MaxInt
	}
	return a * b
}

// Expand builds the cartesian grid of a scenario's sweeps as campaign
// points. base params (may be nil) apply to every cell; with no
// sweeps the result is the single base point. Point labels encode the
// swept coordinates, e.g. "memdos/attack.rate=2e+09/attack.start=5".
// Expand sizes nothing: callers check the grid with Size first.
func Expand(scenario string, base map[string]float64, sweeps []Sweep) []Point {
	points := []Point{{Label: scenario, Scenario: scenario, Params: cloneParams(base)}}
	for _, sw := range sweeps {
		next := make([]Point, 0, len(points)*len(sw.Values))
		for _, p := range points {
			for _, v := range sw.Values {
				np := Point{
					Label:    fmt.Sprintf("%s/%s=%v", p.Label, sw.Key, v),
					Scenario: p.Scenario,
					Params:   cloneParams(p.Params),
				}
				if np.Params == nil {
					np.Params = make(map[string]float64, 1)
				}
				np.Params[sw.Key] = v
				next = append(next, np)
			}
		}
		points = next
	}
	return points
}

func cloneParams(m map[string]float64) map[string]float64 {
	if m == nil {
		return nil
	}
	c := make(map[string]float64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}
