package service

import (
	"encoding/json"
	"testing"
	"time"

	"containerdrone"
)

// TestServiceEquivalence is the service's correctness gate: aggregates
// (and records) returned over HTTP must be byte-identical to a direct
// SDK campaign run with the same knobs. The table covers the warm-pool
// path (no sweep, reset-reuse between seeds) and the checkpoint-fork
// path (a post-onset severity sweep that prefix-shares), a multi-point
// attack sweep, and a v1 request carrying the retired cold_start flag,
// which must run exactly as the SDK campaign without it (forks and
// all, so the stats comparison catches a flag that still bites).
func TestServiceEquivalence(t *testing.T) {
	cases := []struct {
		name     string
		req      CampaignRequest
		opts     func() []containerdrone.CampaignOption
		wantFork bool
	}{
		{
			name: "warm-pool",
			req:  CampaignRequest{Scenario: "udpflood", Runs: 4, BaseSeed: 3, DurationS: 2},
			opts: func() []containerdrone.CampaignOption {
				return []containerdrone.CampaignOption{
					containerdrone.WithRuns(4),
					containerdrone.WithBaseSeed(3),
					containerdrone.WithRunDuration(2 * time.Second),
				}
			},
		},
		{
			name: "fork-prefix-sharing",
			req: CampaignRequest{
				Scenario: "gps-spoof", Runs: 2, DurationS: 12,
				Sweeps: []containerdrone.Sweep{{Key: "fault.rate", Values: []float64{0.5, 1, 2}}},
			},
			opts: func() []containerdrone.CampaignOption {
				return []containerdrone.CampaignOption{
					containerdrone.WithRuns(2),
					containerdrone.WithRunDuration(12 * time.Second),
					containerdrone.WithSweep("fault.rate", 0.5, 1, 2),
				}
			},
			wantFork: true,
		},
		{
			name: "attack-sweep",
			req: CampaignRequest{
				Scenario: "udpflood", Runs: 2, DurationS: 2,
				Params: map[string]float64{"iptables.rate": 4000},
				Sweeps: []containerdrone.Sweep{{Key: "attack.rate", Values: []float64{2000, 8000}}},
			},
			opts: func() []containerdrone.CampaignOption {
				return []containerdrone.CampaignOption{
					containerdrone.WithRuns(2),
					containerdrone.WithRunDuration(2 * time.Second),
					containerdrone.WithBaseParams(map[string]float64{"iptables.rate": 4000}),
					containerdrone.WithSweep("attack.rate", 2000, 8000),
				}
			},
		},
		{
			name: "v1-cold-start-ignored",
			req: CampaignRequest{
				Scenario: "gps-spoof", Runs: 2, DurationS: 12, ColdStart: true,
				Sweeps: []containerdrone.Sweep{{Key: "fault.rate", Values: []float64{0.5, 2}}},
			},
			opts: func() []containerdrone.CampaignOption {
				return []containerdrone.CampaignOption{
					containerdrone.WithRuns(2),
					containerdrone.WithRunDuration(12 * time.Second),
					containerdrone.WithSweep("fault.rate", 0.5, 2),
				}
			},
			wantFork: true,
		},
	}
	_, cl := newTestServer(t, Config{Workers: 2})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			direct, err := containerdrone.NewCampaign(tc.req.Scenario, tc.opts()...).Run(t.Context())
			if err != nil {
				t.Fatalf("direct run: %v", err)
			}
			st, err := cl.SubmitWait(t.Context(), tc.req)
			if err != nil {
				t.Fatalf("service run: %v", err)
			}
			if st.Status != StatusDone || st.Error != "" {
				t.Fatalf("service status %+v", st)
			}
			served := st.Result

			mustEqualJSON(t, "aggregates", direct.Aggregates, served.Aggregates)
			mustEqualJSON(t, "records", direct.Records, served.Records)
			// Execution economics are deterministic too: the service
			// runs the same fork plan the SDK does.
			mustEqualJSON(t, "stats", direct.Stats, served.Stats)
			if tc.wantFork && served.Stats.ForkedRuns == 0 {
				t.Fatal("case did not exercise prefix sharing")
			}
		})
	}
}

// mustEqualJSON compares two values by their canonical JSON bytes —
// the same representation the HTTP boundary itself uses.
func mustEqualJSON(t *testing.T, what string, a, b any) {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("marshal %s: %v", what, err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatalf("marshal %s: %v", what, err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("%s differ over HTTP vs direct:\ndirect  %s\nservice %s", what, ja, jb)
	}
}
