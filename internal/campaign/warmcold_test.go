package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"containerdrone/internal/core"
)

// equivRuns is the seed count of an equivalence sample: def, unless
// CAMPAIGN_EQUIV_RUNS raises it. The nightly workflow sets it to run
// the warm/cold and fork/full assertions on a deeper sample.
func equivRuns(t *testing.T, def int) int {
	env := os.Getenv("CAMPAIGN_EQUIV_RUNS")
	if env == "" {
		return def
	}
	n, err := strconv.Atoi(env)
	if err != nil || n <= 0 {
		t.Fatalf("bad CAMPAIGN_EQUIV_RUNS=%q", env)
	}
	return n
}

// warmColdSpec is the fixed-seed sample the warm/cold assertion runs
// on: fault scenarios with a sweep, several runs per point, so the
// comparison exercises point switching, fault plans, and failovers.
func warmColdSpec(t *testing.T) Spec {
	runs := equivRuns(t, 4)
	points := Expand("gps-spoof", nil, []Sweep{{Key: "fault.rate", Values: []float64{0.5, 2}}})
	points = append(points, Expand("netsplit", nil, nil)...)
	points = append(points, Expand("udpflood", nil, nil)...)
	return Spec{
		Points:   points,
		Runs:     runs,
		BaseSeed: 42,
		// Long enough that the faults (start 10 s) and the flood
		// (start 8 s, switch ≈8.8 s) actually fire: warm/cold
		// equivalence over flights where nothing happened would not
		// test the rewind of fired state.
		Duration: 12 * time.Second,
	}
}

// coldRun is the equivalence tests' ground truth: every cell of spec
// flown serially on a System built fresh for it (buildPoint, core.New,
// ResumeContextInto, fill), at the plan's leader-derived seeds. It
// never touches the worker's warm cache or its fork snapshot, so the
// warm, fork and parallel paths are all compared with an engine that
// shares no state between runs.
func coldRun(t *testing.T, spec Spec) ([]Record, []Aggregate) {
	t.Helper()
	plan, err := planPrefixGroups(spec)
	if err != nil {
		t.Fatal(err)
	}
	records := make([]Record, len(spec.Points)*spec.Runs)
	aggs := make([]Aggregate, len(spec.Points))
	for pi, p := range spec.Points {
		for ri := range spec.Runs {
			seed := DeriveSeed(spec.BaseSeed, plan.leaderOf[pi], ri)
			cfg, err := buildPoint(p, spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var res core.Result
			if err := sys.ResumeContextInto(context.Background(), &res); err != nil {
				t.Fatal(err)
			}
			rec := Record{Point: p.Label, Scenario: p.Scenario, Run: ri, Seed: seed}
			if cfg.Faults.Active() {
				rec.Faults = cfg.Faults.String()
			}
			fill(&rec, &res)
			records[pi*spec.Runs+ri] = rec
		}
		aggs[pi] = fold(records[pi*spec.Runs : (pi+1)*spec.Runs])
	}
	return records, aggs
}

// TestWarmColdEquivalence pins the warm-pool path to fresh builds:
// identical records and identical aggregates for the same spec. This
// is the campaign-level reading of the per-scenario
// TestResetEquivalence byte-identity.
func TestWarmColdEquivalence(t *testing.T) {
	spec := warmColdSpec(t)

	warmRec, warmAgg, _, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	coldRec, coldAgg := coldRun(t, spec)
	if !reflect.DeepEqual(warmRec, coldRec) {
		for i := range warmRec {
			if !reflect.DeepEqual(warmRec[i], coldRec[i]) {
				t.Fatalf("record %d differs between warm and cold paths:\n warm: %+v\n cold: %+v",
					i, warmRec[i], coldRec[i])
			}
		}
		t.Fatal("record sets differ between warm and cold paths")
	}
	w, _ := json.Marshal(warmAgg)
	c, _ := json.Marshal(coldAgg)
	if string(w) != string(c) {
		t.Fatalf("aggregates differ between warm and cold paths:\n warm: %s\n cold: %s", w, c)
	}
}

// TestEmitterAggregationMatchesPostPass pins the emitter's live fold
// to a post-pass fold over the returned records: the emitter must fold
// every record exactly once, in its final form.
func TestEmitterAggregationMatchesPostPass(t *testing.T) {
	spec := warmColdSpec(t)
	records, aggs, _, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	replay := make([]Aggregate, len(spec.Points))
	for pi := range replay {
		replay[pi] = fold(records[pi*spec.Runs : (pi+1)*spec.Runs])
	}
	a, _ := json.Marshal(aggs)
	b, _ := json.Marshal(replay)
	if string(a) != string(b) {
		t.Fatalf("emitter aggregates differ from the post-pass fold:\n emitter: %s\n replay:  %s", a, b)
	}
}

// TestStreamDeliversEveryRecordOnce verifies the streaming emitter:
// every (point, run) cell arrives exactly once, off the hot path, and
// the streamed population equals the returned record slice.
func TestStreamDeliversEveryRecordOnce(t *testing.T) {
	spec := warmColdSpec(t)
	var mu sync.Mutex
	seen := make(map[string]int)
	spec.Stream = func(r Record) {
		// Single emitter goroutine by contract; the mutex guards the
		// check itself under -race.
		mu.Lock()
		seen[r.Point+"#"+strconv.Itoa(r.Run)]++
		mu.Unlock()
	}
	records, _, _, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(records) {
		t.Fatalf("streamed %d distinct cells, want %d", len(seen), len(records))
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("cell %s streamed %d times", key, n)
		}
	}
}

// TestStreamCancelMidRun cancels a forking campaign from its own
// observer on the first record. Every cell must still stream exactly
// once, in index order, equal to the returned records, and each
// point's Errors must count its unfinished cells.
func TestStreamCancelMidRun(t *testing.T) {
	for _, par := range []int{1, 2} {
		t.Run("parallel="+strconv.Itoa(par), func(t *testing.T) {
			spec := forkSpec("udpflood", 4)
			spec.Duration = 10 * time.Second
			spec.Parallel = par
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var streamed []Record // read only after Run returns
			spec.Stream = func(r Record) {
				streamed = append(streamed, r)
				cancel()
			}
			records, aggs, stats, err := Run(ctx, spec)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if stats.ForkGroups != 1 {
				t.Fatalf("stats = %+v, want one forking group", stats)
			}
			if len(records) != len(spec.Points)*spec.Runs || !reflect.DeepEqual(streamed, records) {
				t.Fatalf("streamed %d records, returned %d; want the same %d in index order",
					len(streamed), len(records), len(spec.Points)*spec.Runs)
			}
			unfinished := 0
			for pi, a := range aggs {
				want := 0
				for i, r := range records[pi*spec.Runs : (pi+1)*spec.Runs] {
					if r.Point != spec.Points[pi].Label || r.Run != i {
						t.Fatalf("record %d of point %d is %s run %d", i, pi, r.Point, r.Run)
					}
					if r.Err != "" {
						want++
					}
				}
				if a.Runs != spec.Runs || a.Errors != want {
					t.Fatalf("point %d: %d runs, %d errors; want %d runs, %d errors", pi, a.Runs, a.Errors, spec.Runs, want)
				}
				unfinished += want
			}
			if unfinished == 0 {
				t.Fatal("a cancel on the first record left no cell unfinished")
			}
		})
	}
}
