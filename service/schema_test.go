package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"containerdrone"
)

// roundTrip marshals v, decodes into a fresh instance, re-marshals,
// and requires byte identity — the wire format must be a fixed point.
// It returns the encoding so callers can pin it to a literal.
func roundTrip[T any](t *testing.T, v T) []byte {
	t.Helper()
	first, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded T
	if err := decodeStrict(bytes.NewReader(first), &decoded); err != nil {
		t.Fatalf("decode: %v", err)
	}
	second, err := json.Marshal(decoded)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip not byte-identical:\n first %s\nsecond %s", first, second)
	}
	return first
}

func sampleRequest() CampaignRequest {
	return CampaignRequest{
		SchemaVersion: SchemaVersion,
		Scenario:      "udpflood",
		Runs:          16,
		BaseSeed:      7,
		DurationS:     2.5,
		Params:        map[string]float64{"iptables.rate": 4000, "monitor.enabled": 1},
		Sweeps: []containerdrone.Sweep{
			{Key: "attack.rate", Values: []float64{2000, 8000, 32000}},
		},
		Parallel: 2,
		TimeoutS: 30,
	}
}

// sampleRequestJSON and sampleStatusJSON pin the v1 wire format byte
// for byte. A round trip alone cannot catch a renamed or reordered key;
// these literals can, so a change to them is a schema change.
const (
	sampleRequestJSON = `{
	"schema_version": 1,
	"scenario": "udpflood",
	"runs": 16,
	"base_seed": 7,
	"duration_s": 2.5,
	"params": {
		"iptables.rate": 4000,
		"monitor.enabled": 1
	},
	"sweeps": [
		{
			"key": "attack.rate",
			"values": [
				2000,
				8000,
				32000
			]
		}
	],
	"parallel": 2,
	"timeout_s": 30
}`
	sampleStatusJSON = `{
	"schema_version": 1,
	"job_id": "j-00000002",
	"tenant": "b",
	"status": "done",
	"error": "context deadline exceeded",
	"partial": true,
	"runs_done": 5,
	"runs_total": 8,
	"waited_s": 0.25,
	"ran_s": 1.5,
	"result": {
		"schema_version": 1,
		"scenario": "gps-spoof",
		"points": 1,
		"runs": 5,
		"base_seed": 1,
		"stats": {
			"ticks_flown": 3000,
			"ticks_saved": 1000,
			"fork_groups": 1,
			"forked_runs": 3,
			"prefix_share_ratio": 0.25,
			"runs_failed": 2,
			"runs_panicked": 1,
			"runs_retried": 4
		},
		"records": [
			{
				"point": "gps-spoof/fault.rate=2",
				"scenario": "gps-spoof",
				"faults": "gps-spoof",
				"run": 3,
				"seed": 42,
				"crashed": true,
				"crash_s": 11.5,
				"switched": true,
				"switch_s": 10.25,
				"rule": "position-error",
				"rms_error_m": 0.25,
				"max_deviation_m": 1.75,
				"miss_rate": 0.0625,
				"err": "panic: boom",
				"panicked": true,
				"retries": 2,
				"stack": "goroutine 1 [running]:"
			}
		],
		"aggregates": [
			{
				"point": "gps-spoof/fault.rate=2",
				"scenario": "gps-spoof",
				"faults": "gps-spoof",
				"runs": 5,
				"errors": 2,
				"panics": 1,
				"retried_runs": 4,
				"crashes": 1,
				"crash_rate": 0.2,
				"failovers": 4,
				"failover_rate": 0.8,
				"rule_counts": {
					"attitude-error": 1,
					"position-error": 3
				},
				"switch_s": {
					"mean": 10,
					"p50": 10.125,
					"p90": 10.25,
					"p99": 10.5,
					"max": 11
				},
				"miss_rate": {
					"mean": 0,
					"p50": 0.125,
					"p90": 0.25,
					"p99": 0.5,
					"max": 1
				},
				"rms_error_m": {
					"mean": 0.25,
					"p50": 0.375,
					"p90": 0.5,
					"p99": 0.75,
					"max": 1.25
				},
				"max_deviation_m": {
					"mean": 1.5,
					"p50": 1.625,
					"p90": 1.75,
					"p99": 2,
					"max": 2.5
				}
			}
		]
	}
}`
)

// sampleStatus is a terminal job whose result sets every record field,
// an aggregate with rule counts and percentiles, and every stats field.
func sampleStatus() JobStatus {
	pct := func(base float64) containerdrone.Percentiles {
		return containerdrone.Percentiles{Mean: base, P50: base + 0.125, P90: base + 0.25, P99: base + 0.5, Max: base + 1}
	}
	return JobStatus{
		SchemaVersion: SchemaVersion, JobID: "j-00000002", Tenant: "b",
		Status: StatusDone, Partial: true, Error: "context deadline exceeded",
		RunsDone: 5, RunsTotal: 8, WaitedS: 0.25, RanS: 1.5,
		Result: &containerdrone.CampaignResult{
			SchemaVersion: 1, Scenario: "gps-spoof", Points: 1, Runs: 5, BaseSeed: 1,
			Stats: containerdrone.CampaignStats{
				TicksFlown: 3000, TicksSaved: 1000, ForkGroups: 1, ForkedRuns: 3,
				PrefixShareRatio: 0.25, RunsFailed: 2, RunsPanicked: 1, RunsRetried: 4,
			},
			Records: []containerdrone.Record{{
				Point: "gps-spoof/fault.rate=2", Scenario: "gps-spoof", Faults: "gps-spoof",
				Run: 3, Seed: 42, Crashed: true, CrashS: 11.5, Switched: true, SwitchS: 10.25,
				Rule: "position-error", RMSError: 0.25, MaxDeviation: 1.75, MissRate: 0.0625,
				Err: "panic: boom", Panicked: true, Retries: 2, Stack: "goroutine 1 [running]:",
			}},
			Aggregates: []containerdrone.Aggregate{{
				Point: "gps-spoof/fault.rate=2", Scenario: "gps-spoof", Faults: "gps-spoof",
				Runs: 5, Errors: 2, Panics: 1, Retried: 4,
				Crashes: 1, CrashRate: 0.2, Failovers: 4, FailoverRate: 0.8,
				RuleCounts: map[string]int{"attitude-error": 1, "position-error": 3},
				SwitchS:    pct(10), MissRate: pct(0), RMSError: pct(0.25), MaxDeviation: pct(1.5),
			}},
		},
	}
}

// pinned requires the compact encoding got to equal want once both are
// tab-indented; indentation only adds whitespace, so the comparison is
// still byte for byte on keys, order and values.
func pinned(t *testing.T, got []byte, want string) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, got, "", "\t"); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Errorf("wire format changed:\n got %s\nwant %s", buf.String(), want)
	}
}

func TestSchemaRoundTrips(t *testing.T) {
	pinned(t, roundTrip(t, sampleRequest()), sampleRequestJSON)
	roundTrip(t, SubmitResponse{SchemaVersion: SchemaVersion, JobID: "j-00000001", Tenant: "a", Status: StatusQueued, QueueDepth: 3})
	pinned(t, roundTrip(t, sampleStatus()), sampleStatusJSON)
	roundTrip(t, ErrorResponse{SchemaVersion: SchemaVersion, Error: "tenant over quota", Reason: "quota", RetryAfterS: 2})
	roundTrip(t, MetricsSnapshot{
		SchemaVersion: SchemaVersion, UptimeS: 12.5, QueueDepth: 2, QueueCap: 64,
		InFlight: 1, Workers: 4, Accepted: 10, Completed: 8, RejectedQuota: 1,
		RunsCompleted: 80, RunsPerSec: 6.4, LatencyP50S: 0.01, LatencyP99S: 0.2,
		Tenants: []TenantMetrics{{Tenant: "a", Accepted: 10, InFlight: 1}},
	})
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := DecodeCampaignRequest(strings.NewReader(
		`{"schema_version":1,"scenario":"baseline","runz":4}`))
	if err == nil || !strings.Contains(err.Error(), "runz") {
		t.Fatalf("want unknown-field rejection naming runz, got %v", err)
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	_, err := DecodeCampaignRequest(strings.NewReader(
		`{"schema_version":1,"scenario":"baseline"}{"extra":true}`))
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("want trailing-data rejection, got %v", err)
	}
}

func TestDecodeRejectsSchemaVersionMismatch(t *testing.T) {
	for _, body := range []string{
		`{"scenario":"baseline"}`,                    // missing version
		`{"schema_version":2,"scenario":"baseline"}`, // future version
	} {
		_, err := DecodeCampaignRequest(strings.NewReader(body))
		if !errors.Is(err, ErrSchemaVersion) {
			t.Fatalf("body %s: want ErrSchemaVersion, got %v", body, err)
		}
	}
}

func TestValidateCatchesBadRequests(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*CampaignRequest)
		want string
	}{
		{"unknown scenario", func(r *CampaignRequest) { r.Scenario = "no-such-scenario" }, "scenario"},
		{"unknown param", func(r *CampaignRequest) { r.Params = map[string]float64{"bogus.key": 1} }, "bogus.key"},
		{"unknown sweep key", func(r *CampaignRequest) {
			r.Sweeps = []containerdrone.Sweep{{Key: "bogus.sweep", Values: []float64{1}}}
		}, "bogus.sweep"},
		{"empty sweep", func(r *CampaignRequest) {
			r.Sweeps = []containerdrone.Sweep{{Key: "attack.rate"}}
		}, "sweep"},
		{"negative runs", func(r *CampaignRequest) { r.Runs = -1 }, "runs"},
		{"zero telemetry rate", func(r *CampaignRequest) { r.Params = map[string]float64{"telemetry.rate": 0} }, "telemetry rate"},
		{"huge replay capture", func(r *CampaignRequest) {
			r.Scenario = "mav-replay"
			r.Params = map[string]float64{"fault.magnitude": 1e15}
		}, "capture"},
		{"bad later sweep cell", func(r *CampaignRequest) {
			r.Scenario = "gps-spoof"
			r.Sweeps = []containerdrone.Sweep{{Key: "bus.capacity", Values: []float64{2e9, 0}}}
		}, "bus capacity"},
	}
	for _, tc := range cases {
		req := sampleRequest()
		tc.mut(&req)
		err := req.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error mentioning %q, got %v", tc.name, tc.want, err)
		}
	}
	req := sampleRequest()
	if err := req.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
}

func TestTotalRuns(t *testing.T) {
	req := sampleRequest() // 3 sweep values × 16 runs
	if got := req.TotalRuns(); got != 48 {
		t.Fatalf("TotalRuns = %d, want 48", got)
	}
	minimal := CampaignRequest{SchemaVersion: SchemaVersion, Scenario: "baseline"}
	if got := minimal.TotalRuns(); got != 1 {
		t.Fatalf("minimal TotalRuns = %d, want 1", got)
	}
	// Grids whose product overflows int must saturate, not wrap to 0,
	// and decoding refuses them at the engine's run ceiling.
	for _, req := range overflowRequests() {
		if total := req.TotalRuns(); total != math.MaxInt {
			t.Fatalf("%d sweeps × %d runs: TotalRuns = %d, want saturation at MaxInt",
				len(req.Sweeps), req.Runs, total)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeCampaignRequest(bytes.NewReader(body)); err == nil || !strings.Contains(err.Error(), "ceiling") {
			t.Fatalf("decode %d sweeps × %d runs: %v; want the ceiling error", len(req.Sweeps), req.Runs, err)
		}
	}
}

// overflowRequests are well-formed requests whose grid size overflows int:
// 64 two-value sweeps (2^64 points), and 2^62 runs of a four-value
// sweep.
func overflowRequests() []CampaignRequest {
	wide := CampaignRequest{SchemaVersion: SchemaVersion, Scenario: "baseline"}
	for range 64 {
		wide.Sweeps = append(wide.Sweeps, containerdrone.Sweep{Key: "wind", Values: []float64{0, 1}})
	}
	deep := CampaignRequest{SchemaVersion: SchemaVersion, Scenario: "baseline", Runs: 1 << 62,
		Sweeps: []containerdrone.Sweep{{Key: "wind", Values: []float64{0, 1, 2, 3}}}}
	return []CampaignRequest{wide, deep}
}

// TestValidateLongFlightAllocatesLittle: validating a request for an
// absurdly long flight builds its first grid cell without allocating
// the flight's whole log up front.
func TestValidateLongFlightAllocatesLittle(t *testing.T) {
	req := CampaignRequest{SchemaVersion: SchemaVersion, Scenario: "baseline", DurationS: 1e7}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("validating a 1e7 s flight allocated %d MB", grew>>20)
	}
}
