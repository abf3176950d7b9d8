package containerdrone_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"containerdrone"
)

// TestConfigJSONRoundTrip checks that a Config survives
// encode→decode→re-encode byte-identically — the contract that lets
// campaigns dispatch run requests to remote workers.
func TestConfigJSONRoundTrip(t *testing.T) {
	sim, err := containerdrone.New("udpflood",
		containerdrone.WithSeed(7),
		containerdrone.WithDuration(5*time.Second),
		containerdrone.WithParam("iptables.rate", 4000),
		containerdrone.WithParam("attack.start", 2),
		containerdrone.WithAttack(containerdrone.Attack{Kind: "udp-flood", StartS: 2, Rate: 12000}),
		containerdrone.WithMission(
			containerdrone.Waypoint{Pos: containerdrone.Vec3{X: 1, Z: 1}, HoldS: 0.5},
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config()
	if cfg.SchemaVersion != containerdrone.SchemaVersion {
		t.Fatalf("SchemaVersion = %d, want %d", cfg.SchemaVersion, containerdrone.SchemaVersion)
	}
	first, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var decoded containerdrone.Config
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("re-encode differs:\n first: %s\nsecond: %s", first, second)
	}
	// The decoded config must rebuild into a runnable Sim.
	if _, err := containerdrone.NewFromConfig(decoded); err != nil {
		t.Fatalf("NewFromConfig(decoded) = %v", err)
	}
}

// TestFaultConfigRoundTrip checks that a fault plan survives the
// Config JSON round trip and that the resolved plan (defaults filled)
// lands in the Result — the contract that makes fault runs
// dispatchable to remote workers like any other scenario.
func TestFaultConfigRoundTrip(t *testing.T) {
	sim, err := containerdrone.New("baseline",
		containerdrone.WithSeed(7),
		containerdrone.WithDuration(3*time.Second),
		containerdrone.WithFault(containerdrone.Fault{Kind: "netsplit", StartS: 1, DurationS: 1}),
		containerdrone.WithFault(containerdrone.Fault{Kind: "gps-spoof", StartS: 2, Rate: 0.25}),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config()
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var decoded containerdrone.Config
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Faults) != 2 || decoded.Faults[0].Kind != "netsplit" || decoded.Faults[1].Rate != 0.25 {
		t.Fatalf("faults did not survive the round trip: %+v", decoded.Faults)
	}
	sim2, err := containerdrone.NewFromConfig(decoded)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Faults) != 2 {
		t.Fatalf("resolved result carries %d faults, want 2", len(res.Faults))
	}
	// An unknown kind must fail at build time, not at Run.
	if _, err := containerdrone.New("baseline",
		containerdrone.WithFault(containerdrone.Fault{Kind: "gremlins"})); err == nil {
		t.Fatal("unknown fault kind accepted")
	}
}

// TestConfigSchemaVersionRejected checks that a foreign schema fails
// loudly instead of being misread.
func TestConfigSchemaVersionRejected(t *testing.T) {
	_, err := containerdrone.NewFromConfig(containerdrone.Config{
		SchemaVersion: containerdrone.SchemaVersion + 1,
		Scenario:      "baseline",
	})
	if err == nil {
		t.Fatal("future schema version accepted")
	}
}

// TestResultJSONRoundTrip checks that a run Result — including the
// trajectory samples remote collectors consume — re-encodes
// byte-identically after a decode, and that the reporting helpers
// still work on the decoded copy.
func TestResultJSONRoundTrip(t *testing.T) {
	sim, err := containerdrone.New("udpflood",
		containerdrone.WithSeed(3),
		containerdrone.WithDuration(4*time.Second),
		containerdrone.WithParam("attack.start", 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded containerdrone.Result
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("re-encode differs (len %d vs %d)", len(first), len(second))
	}
	// The decoded result must rebuild its flight log for reporting.
	if got, want := decoded.Sparkline(containerdrone.AxisZ, 20), res.Sparkline(containerdrone.AxisZ, 20); got != want {
		t.Fatalf("decoded sparkline %q != live %q", got, want)
	}
	if got, want := decoded.WindowMetrics(0, decoded.Duration()), res.Metrics; got.Samples != want.Samples {
		t.Fatalf("decoded window metrics over %d samples, want %d", got.Samples, want.Samples)
	}
}

// observerEvent is one callback firing recorded by the ordering test.
type observerEvent struct {
	kind string
	at   time.Duration
	rule string
}

// TestObserverOrdering flies the udpflood scenario with an observer
// and checks the callback contract: ticks arrive in non-decreasing
// simulated-time order, the violation precedes the switch it causes,
// and ticks keep flowing after failover.
func TestObserverOrdering(t *testing.T) {
	var events []observerEvent
	obs := containerdrone.ObserverFuncs{
		Tick: func(now time.Duration, s containerdrone.Sample) {
			if got := s.Time(); got != now {
				t.Errorf("sample time %v != callback time %v", got, now)
			}
			events = append(events, observerEvent{kind: "tick", at: now})
		},
		Violation: func(v containerdrone.Violation) {
			events = append(events, observerEvent{kind: "violation", at: time.Duration(v.TimeS * float64(time.Second)), rule: v.Rule})
		},
		Switch: func(now time.Duration, rule string) {
			events = append(events, observerEvent{kind: "switch", at: now, rule: rule})
		},
	}
	sim, err := containerdrone.New("udpflood",
		containerdrone.WithSeed(1),
		containerdrone.WithDuration(5*time.Second),
		containerdrone.WithParam("attack.start", 2),
		containerdrone.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Switched {
		t.Fatal("udpflood did not switch; observer test needs a failover")
	}

	var last time.Duration
	violationIdx, switchIdx, ticksAfterSwitch := -1, -1, 0
	for i, ev := range events {
		if ev.at < last {
			t.Fatalf("event %d (%s) at %v after event at %v", i, ev.kind, ev.at, last)
		}
		last = ev.at
		switch ev.kind {
		case "violation":
			if violationIdx == -1 {
				violationIdx = i
			}
		case "switch":
			switchIdx = i
			if ev.rule != res.SwitchRule {
				t.Errorf("switch rule %q, result says %q", ev.rule, res.SwitchRule)
			}
		case "tick":
			if switchIdx != -1 {
				ticksAfterSwitch++
			}
		}
	}
	if violationIdx == -1 || switchIdx == -1 {
		t.Fatalf("violation/switch callbacks missing (violation=%d switch=%d)", violationIdx, switchIdx)
	}
	if violationIdx > switchIdx {
		t.Fatalf("violation (event %d) after switch (event %d)", violationIdx, switchIdx)
	}
	if ticksAfterSwitch == 0 {
		t.Fatal("no ticks observed after the Simplex switch")
	}
	if len(events) < 100 {
		t.Fatalf("only %d events for a 5 s flight at 50 Hz", len(events))
	}
}

// TestRunCancelPartial cancels a run mid-flight from inside an
// observer and checks that Run returns promptly with a partial,
// usable Result instead of deadlocking or discarding the flight.
func TestRunCancelPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := containerdrone.ObserverFuncs{
		Tick: func(now time.Duration, s containerdrone.Sample) {
			if now >= time.Second {
				cancel()
			}
		},
	}
	sim, err := containerdrone.New("baseline",
		containerdrone.WithDuration(30*time.Second),
		containerdrone.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var res *containerdrone.Result
	var runErr error
	go func() {
		res, runErr = sim.Run(ctx)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", runErr)
	}
	if res == nil {
		t.Fatal("canceled Run returned nil Result")
	}
	if !res.Canceled {
		t.Fatal("partial result not marked Canceled")
	}
	// ~1 s of a 30 s flight at 50 Hz: a partial trajectory, well short
	// of the full 1500 samples.
	if n := len(res.Samples); n < 40 || n > 200 {
		t.Fatalf("partial result has %d samples, want ~50", n)
	}
	if res.Crashed {
		t.Fatal("partial baseline run reports a crash")
	}
}

// TestRunTwice checks the one-shot contract.
func TestRunTwice(t *testing.T) {
	sim, err := containerdrone.New("baseline", containerdrone.WithDuration(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(context.Background()); err == nil {
		t.Fatal("second Run succeeded")
	}
}

// TestCampaignResultJSONRoundTrip checks the campaign collection
// path: records and aggregates re-encode byte-identically, and a
// decoded result still renders its table.
func TestCampaignResultJSONRoundTrip(t *testing.T) {
	c := containerdrone.NewCampaign("baseline",
		containerdrone.WithRuns(2),
		containerdrone.WithRunDuration(2*time.Second),
		containerdrone.WithSweep("wind", 0, 1))
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4 {
		t.Fatalf("%d records, want 4", len(res.Records))
	}
	first, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded containerdrone.CampaignResult
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("re-encode differs")
	}
	if got, want := decoded.Table(), res.Table(); got != want {
		t.Fatalf("decoded table differs:\n%s\nvs\n%s", got, want)
	}
}

// TestCampaignCancel checks that a canceled campaign returns the
// full-shaped record set with undone cells marked.
func TestCampaignCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before dispatch: every cell must be marked
	c := containerdrone.NewCampaign("baseline",
		containerdrone.WithRuns(3),
		containerdrone.WithParallel(1),
		containerdrone.WithRunDuration(2*time.Second))
	res, err := c.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Records) != 3 {
		t.Fatalf("canceled campaign records = %+v, want 3 marked cells", res)
	}
	for _, r := range res.Records {
		if r.Err == "" {
			t.Fatalf("record %d/%d ran despite pre-canceled context", r.Run, len(res.Records))
		}
	}

	// A sharing sweep whose flights outlast gps-spoof's 10 s onset: its
	// fork group is dispatched like any other, and every cell must
	// still be marked without flying a tick.
	c = containerdrone.NewCampaign("gps-spoof",
		containerdrone.WithSweep("fault.rate", 0.5, 1),
		containerdrone.WithRuns(2),
		containerdrone.WithParallel(1),
		containerdrone.WithRunDuration(11*time.Second))
	res, err = c.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sharing sweep: err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Records) != 4 || res.Stats.ForkGroups != 1 || res.Stats.TicksFlown != 0 {
		t.Fatalf("canceled sharing sweep = %+v, want 4 marked cells of one fork group and no tick flown", res)
	}
	for _, r := range res.Records {
		if r.Err == "" {
			t.Fatalf("sharing sweep: record %s/%d ran despite pre-canceled context", r.Point, r.Run)
		}
	}
}

// TestCampaignRejectsOverflowingGrid checks that a grid above either
// engine ceiling is refused before anything is sized by it: 64
// two-value sweeps are 2^64 points, which overflow int; 30 are 2^30
// points, which Expand would build into gigabytes; and one point of
// 2^40 runs would size a 202 TB record slice.
func TestCampaignRejectsOverflowingGrid(t *testing.T) {
	sweeps := func(n int) []containerdrone.CampaignOption {
		var opts []containerdrone.CampaignOption
		for range n {
			opts = append(opts, containerdrone.WithSweep("wind", 0, 1))
		}
		return opts
	}
	for name, opts := range map[string][]containerdrone.CampaignOption{
		"64 two-value sweeps": sweeps(64),
		"30 two-value sweeps": sweeps(30),
		// 2^20 points is within the run ceiling but takes gigabytes to
		// expand; the point ceiling refuses it.
		"20 two-value sweeps": sweeps(20),
		"2^40 runs":           {containerdrone.WithRuns(1 << 40)},
	} {
		c := containerdrone.NewCampaign("baseline", opts...)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "ceiling") {
			t.Errorf("%s: Validate says %v; want the ceiling error", name, err)
		}
		if res, err := c.Run(context.Background()); err == nil || res != nil {
			t.Errorf("%s: result %v, err %v; want an up-front error", name, res, err)
		}
	}
}

// TestCampaignRefusesSeedParam checks that the SDK refuses a campaign
// that fixes or sweeps the seed key: its runs' seeds are derived from
// the base seed, which WithBaseSeed sets.
func TestCampaignRefusesSeedParam(t *testing.T) {
	for name, opt := range map[string]containerdrone.CampaignOption{
		"base param": containerdrone.WithBaseParams(map[string]float64{"seed": 7}),
		"sweep":      containerdrone.WithSweep("seed", 1, 2),
	} {
		c := containerdrone.NewCampaign("udpflood", opt, containerdrone.WithRuns(4),
			containerdrone.WithParallel(4), containerdrone.WithRunDuration(10*time.Second))
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "seed key") {
			t.Errorf("%s: Validate says %v; want the seed key refused", name, err)
		}
		if res, err := c.Run(context.Background()); err == nil || res != nil {
			t.Errorf("%s: result %v, err %v; want an up-front error", name, res, err)
		}
	}
}

// TestCampaignRefusesRepeatedSweeps checks that the SDK refuses a sweep
// that repeats a value or a key: the repeated cells would fly the same
// flights under one label twice, or under a label naming a value they
// did not fly. NaN equals no value, itself included, so the repeat
// check cannot see a repeated NaN; the per-cell build refuses it as
// not finite.
func TestCampaignRefusesRepeatedSweeps(t *testing.T) {
	for name, tc := range map[string]struct {
		opts []containerdrone.CampaignOption
		want string
	}{
		"repeated value": {[]containerdrone.CampaignOption{containerdrone.WithSweep("fault.rate", 0.5, 0.5)}, "repeat"},
		"repeated key": {[]containerdrone.CampaignOption{containerdrone.WithSweep("fault.rate", 0.5, 1),
			containerdrone.WithSweep("fault.rate", 0.5, 1)}, "repeat"},
		"repeated NaN": {[]containerdrone.CampaignOption{containerdrone.WithSweep("fault.rate", math.NaN(), math.NaN())}, "finite"},
	} {
		c := containerdrone.NewCampaign("gps-spoof", append(tc.opts, containerdrone.WithRuns(2),
			containerdrone.WithRunDuration(12*time.Second))...)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate says %v; want it refused (%q)", name, err, tc.want)
		}
		if res, err := c.Run(context.Background()); err == nil || res != nil {
			t.Errorf("%s: result %v, err %v; want an up-front error", name, res, err)
		}
	}
}
