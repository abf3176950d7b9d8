package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// shortSpec is a cheap campaign: 2 points × 3 runs of 1-second
// flights, executed by 4 workers so worker interleaving is real.
func shortSpec() Spec {
	return Spec{
		Points:   Expand("baseline", nil, []Sweep{{Key: "wind", Values: []float64{0, 1}}}),
		Runs:     3,
		Parallel: 4,
		BaseSeed: 99,
		Duration: time.Second,
	}
}

// TestCampaignDeterministicUnderParallelism is the campaign's core
// contract: the same spec at the same seed produces byte-identical
// output regardless of worker scheduling.
func TestCampaignDeterministicUnderParallelism(t *testing.T) {
	emit := func() []byte {
		records, aggs, _, err := Run(context.Background(), shortSpec())
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal([]any{records, aggs})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := emit(), emit()
	if !bytes.Equal(a, b) {
		t.Fatal("two runs of the same campaign spec produced different bytes")
	}
}

// TestCampaignParallelMatchesSerial pins the stronger property: the
// worker count must not affect results at all.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	serial := shortSpec()
	serial.Parallel = 1
	recSerial, _, _, err := Run(context.Background(), serial)
	if err != nil {
		t.Fatal(err)
	}
	recParallel, _, _, err := Run(context.Background(), shortSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recSerial, recParallel) {
		t.Fatal("parallel records differ from serial records")
	}
}

func TestCampaignRecordsOrderAndSeeds(t *testing.T) {
	spec := shortSpec()
	records, _, _, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(spec.Points)*spec.Runs {
		t.Fatalf("got %d records, want %d", len(records), len(spec.Points)*spec.Runs)
	}
	for i, r := range records {
		pi, ri := i/spec.Runs, i%spec.Runs
		if r.Point != spec.Points[pi].Label || r.Run != ri {
			t.Fatalf("record %d out of order: %+v", i, r)
		}
		if r.Seed != DeriveSeed(spec.BaseSeed, pi, ri) {
			t.Fatalf("record %d seed mismatch", i)
		}
		if r.Err != "" {
			t.Fatalf("record %d errored: %s", i, r.Err)
		}
	}
}

func TestCampaignRejectsBadSpecs(t *testing.T) {
	if _, _, _, err := Run(context.Background(), Spec{Runs: 0, Points: []Point{{Label: "x", Scenario: "baseline"}}}); err == nil {
		t.Fatal("zero runs accepted")
	}
	if _, _, _, err := Run(context.Background(), Spec{Runs: 1}); err == nil {
		t.Fatal("empty point set accepted")
	}
	// 4 points × 2^62 runs wraps to 0 in plain int arithmetic; the
	// saturated count must be refused before anything is sized by it.
	huge := Spec{Points: Expand("baseline", nil, []Sweep{{Key: "wind", Values: []float64{0, 1, 2, 3}}}), Runs: 1 << 62}
	if records, _, _, err := Run(context.Background(), huge); err == nil || records != nil {
		t.Fatalf("4 points × 2^62 runs: err %v, %d records; want an up-front error", err, len(records))
	}
	// A bad sweep key must fail up front, before any run executes.
	spec := Spec{
		Points: []Point{{Label: "x", Scenario: "baseline",
			Params: map[string]float64{"not.a.key": 1}}},
		Runs: 1, Duration: time.Second,
	}
	if _, _, _, err := Run(context.Background(), spec); err == nil {
		t.Fatal("unknown sweep key accepted")
	}
	spec = Spec{Points: []Point{{Label: "x", Scenario: "no-such"}}, Runs: 1}
	if _, _, _, err := Run(context.Background(), spec); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	// A value core.New rejects must fail up front too, in either
	// sharing mode, even when the bad cell is not the first; Validate
	// refuses it with the same error without running anything.
	if err := Validate(shortSpec()); err != nil {
		t.Fatalf("Validate refused a good spec: %v", err)
	}
	for _, sw := range []Sweep{
		{Key: "bus.capacity", Values: []float64{2e9, 0}},
		{Key: "telemetry.rate", Values: []float64{100, 0}},
	} {
		for _, share := range []bool{false, true} {
			spec := Spec{Points: Expand("gps-spoof", nil, []Sweep{sw}), Runs: 1,
				Duration: time.Second, PrefixShare: share}
			records, _, stats, err := Run(context.Background(), spec)
			if err == nil || records != nil || stats.RunsFailed != 0 {
				t.Fatalf("sweep %s=%v (share %v): err %v, %d records, stats %+v; want an up-front error",
					sw.Key, sw.Values, share, err, len(records), stats)
			}
			if verr := Validate(spec); verr == nil || verr.Error() != err.Error() {
				t.Fatalf("sweep %s=%v: Validate says %v, Run says %v", sw.Key, sw.Values, verr, err)
			}
		}
	}
}

// TestCampaignRefusesSeedKey pins the refusal of the seed key in a
// point's params, whether set on every cell or swept. A campaign
// derives each run's seed itself; a cold build would fly the param's
// seed while a warm restore flies the derived one, so the records
// would depend on the worker count.
func TestCampaignRefusesSeedKey(t *testing.T) {
	for _, points := range [][]Point{
		Expand("udpflood", map[string]float64{"seed": 7}, nil),
		Expand("udpflood", nil, []Sweep{{Key: "seed", Values: []float64{1, 2}}}),
	} {
		for _, par := range []int{1, 4} {
			spec := Spec{Points: points, Runs: 4, Parallel: par, Duration: 10 * time.Second}
			records, _, _, err := Run(context.Background(), spec)
			if err == nil || !strings.Contains(err.Error(), "seed key") || records != nil {
				t.Fatalf("%s at parallel %d: err %v, %d records; want the seed key refused up front",
					points[0].Label, par, err, len(records))
			}
			if verr := Validate(spec); verr == nil || verr.Error() != err.Error() {
				t.Fatalf("%s: Validate says %v, Run says %v", points[0].Label, verr, err)
			}
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := make(map[uint64]bool)
	for p := 0; p < 8; p++ {
		for r := 0; r < 8; r++ {
			s := DeriveSeed(1, p, r)
			if s == 0 {
				t.Fatal("derived seed 0 (reserved for scenario default)")
			}
			if seen[s] {
				t.Fatalf("seed collision at point %d run %d", p, r)
			}
			seen[s] = true
			if s != DeriveSeed(1, p, r) {
				t.Fatal("derivation not stable")
			}
		}
	}
	if DeriveSeed(1, 0, 0) == DeriveSeed(2, 0, 0) {
		t.Fatal("base seed ignored")
	}
}

func TestParseSweep(t *testing.T) {
	sw, err := ParseSweep("attack.rate=1e9, 2e9,4e9")
	if err != nil {
		t.Fatal(err)
	}
	if sw.Key != "attack.rate" || !reflect.DeepEqual(sw.Values, []float64{1e9, 2e9, 4e9}) {
		t.Fatalf("parsed %+v", sw)
	}
	for _, bad := range []string{"", "key", "key=", "=1,2", "key=1,x"} {
		if _, err := ParseSweep(bad); err == nil {
			t.Errorf("ParseSweep(%q) did not error", bad)
		}
	}
}

func TestExpandCartesian(t *testing.T) {
	points := Expand("memdos",
		map[string]float64{"bus.capacity": 50e6},
		[]Sweep{
			{Key: "attack.rate", Values: []float64{1e9, 2e9}},
			{Key: "attack.start", Values: []float64{5, 10, 15}},
		})
	if len(points) != 6 {
		t.Fatalf("got %d points, want 6", len(points))
	}
	labels := make(map[string]bool)
	for _, p := range points {
		labels[p.Label] = true
		if p.Scenario != "memdos" {
			t.Fatalf("scenario = %q", p.Scenario)
		}
		if p.Params["bus.capacity"] != 50e6 {
			t.Fatalf("base param lost: %+v", p.Params)
		}
		if len(p.Params) != 3 {
			t.Fatalf("params = %+v", p.Params)
		}
	}
	if len(labels) != 6 {
		t.Fatalf("labels not distinct: %v", labels)
	}
	// No sweeps → single point, base params preserved, label = scenario.
	single := Expand("kill", nil, nil)
	if len(single) != 1 || single[0].Label != "kill" {
		t.Fatalf("no-sweep expand = %+v", single)
	}
}

// TestSize pins the one sizing gate: points × values × runs, refused
// for an empty sweep, a non-positive count, a grid above MaxPoints or
// MaxRuns, and a repeated sweep key or value, and saturated rather
// than wrapped when refused for size.
func TestSize(t *testing.T) {
	two := Sweep{Key: "wind", Values: []float64{0, 1}}
	rate := Sweep{Key: "fault.rate", Values: []float64{0.5, 1}}
	if n, err := Size(3, []Sweep{two, rate}, 5); n != 60 || err != nil {
		t.Fatalf("3 points × 2 × 2 × 5 runs: %d, %v", n, err)
	}
	if n, err := Size(MaxPoints, nil, MaxRuns/MaxPoints); n != MaxRuns || err != nil {
		t.Fatalf("a campaign at both ceilings: %d, %v", n, err)
	}
	var wide []Sweep
	for range 64 {
		wide = append(wide, two)
	}
	for _, tc := range []struct {
		name   string
		points int
		sweeps []Sweep
		runs   int
		want   string
		size   int
	}{
		{"one run past the ceiling", 1, nil, MaxRuns + 1, "runs exceeds", MaxRuns + 1},
		{"one point past the ceiling", MaxPoints + 1, nil, 1, "points exceeds", MaxPoints + 1},
		// wide repeats one sweep: the ceilings are checked before
		// repeats, so these read as too big.
		{"2^17 points of one run", 1, wide[:17], 1, "points exceeds", 1 << 17},
		{"2^64 points", 1, wide, 1, "ceiling", math.MaxInt},
		{"4 points × 2^62 runs", 4, nil, 1 << 62, "ceiling", math.MaxInt},
		{"empty sweep", 1, []Sweep{two, {Key: "attack.rate"}}, 1, "attack.rate", 0},
		{"repeated key", 1, []Sweep{rate, rate}, 2, `key "fault.rate" is repeated`, 8},
		{"repeated value", 1, []Sweep{two, {Key: "fault.rate", Values: []float64{0.5, 0.5}}}, 2, "repeats the value 0.5", 8},
		{"zero runs", 1, nil, 0, "is empty", 0},
		{"no points", 0, nil, 1, "is empty", 0},
	} {
		n, err := Size(tc.points, tc.sweeps, tc.runs)
		if err == nil || !strings.Contains(err.Error(), tc.want) || n != tc.size {
			t.Errorf("%s: size %d, err %v; want %d and an error mentioning %q", tc.name, n, err, tc.size, tc.want)
		}
	}
	// Validate sizes before it builds a cell: these points name no
	// scenario, so any cell check would fail with another error.
	if err := Validate(Spec{Points: make([]Point, MaxPoints+1), Runs: 1}); err == nil || !strings.Contains(err.Error(), "ceiling") {
		t.Fatalf("oversized spec: %v; want the ceiling error", err)
	}
}

// fold is the post-pass reading of Run's emitter fold: one point's
// records folded through pointAgg and reduced.
func fold(records []Record) Aggregate {
	var a pointAgg
	for i := range records {
		a.Point, a.Scenario = records[i].Point, records[i].Scenario
		a.add(&records[i])
	}
	return a.reduce()
}

func TestAggregateRecords(t *testing.T) {
	records := []Record{
		{Point: "a", Scenario: "s", Run: 0, Crashed: true, CrashS: 12, MissRate: 0.5, MaxDeviation: 3},
		{Point: "a", Scenario: "s", Run: 1, Switched: true, SwitchS: 8.5, Rule: "attitude-error", MissRate: 0.1, MaxDeviation: 1},
		{Point: "a", Scenario: "s", Run: 2, Err: "boom"},
		{Point: "b", Scenario: "s", Run: 0, MissRate: 0.2},
	}
	aggs := []Aggregate{fold(records[:3]), fold(records[3:])}
	if len(aggs) != 2 || aggs[0].Point != "a" || aggs[1].Point != "b" {
		t.Fatalf("aggs = %+v", aggs)
	}
	a := aggs[0]
	if a.Runs != 3 || a.Errors != 1 {
		t.Fatalf("runs/errors = %d/%d", a.Runs, a.Errors)
	}
	// Rates are over the 2 non-errored runs.
	if a.CrashRate != 0.5 || a.FailoverRate != 0.5 {
		t.Fatalf("crash/failover rate = %v/%v", a.CrashRate, a.FailoverRate)
	}
	if a.RuleCounts["attitude-error"] != 1 {
		t.Fatalf("rule counts = %v", a.RuleCounts)
	}
	if a.SwitchS.P50 != 8.5 || a.SwitchS.Max != 8.5 {
		t.Fatalf("switch percentiles = %+v", a.SwitchS)
	}
	if a.MissRate.Max != 0.5 || a.MissRate.Mean != 0.3 {
		t.Fatalf("miss percentiles = %+v", a.MissRate)
	}
}

func TestPercentiles(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1) // 1..100
	}
	p := percentiles(vals)
	if p.P50 != 50 || p.P90 != 90 || p.P99 != 99 || p.Max != 100 {
		t.Fatalf("percentiles = %+v", p)
	}
	if p.Mean != 50.5 {
		t.Fatalf("mean = %v", p.Mean)
	}
	zero := percentiles(nil)
	if zero != (Percentiles{}) {
		t.Fatalf("empty percentiles = %+v", zero)
	}
}

func TestEmitters(t *testing.T) {
	records := []Record{
		{Point: "a", Scenario: "s", Run: 0, Seed: 7, Switched: true, SwitchS: 8.5, Rule: "r", RMSError: 0.1},
		{Point: "a", Scenario: "s", Run: 1, Seed: 8, Crashed: true, CrashS: 2},
	}
	aggs := []Aggregate{fold(records)}

	var csvBuf bytes.Buffer
	if err := WriteRecordsCSV(&csvBuf, records); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("records CSV has %d lines, want 3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "point,scenario,faults,run,seed") {
		t.Fatalf("records CSV header = %q", lines[0])
	}

	csvBuf.Reset()
	if err := WriteAggregatesCSV(&csvBuf, aggs); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("aggregates CSV has %d lines, want 2", len(lines))
	}

	type report struct {
		Records    []Record
		Aggregates []Aggregate
	}
	out, err := json.Marshal(report{records, aggs})
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 2 || len(rep.Aggregates) != 1 {
		t.Fatalf("round-trip = %d records, %d aggregates", len(rep.Records), len(rep.Aggregates))
	}

	if Table(aggs) == "" {
		t.Fatal("empty table")
	}
}
