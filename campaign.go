package containerdrone

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"containerdrone/internal/campaign"
)

// Sweep is one swept campaign parameter: a ParamInfos key and its value grid.
type Sweep = campaign.Sweep

// ParseSweep parses "key=v1,v2,v3" into a Sweep; values accept any Go
// float syntax (so "attack.rate=1e9,4e9" works).
func ParseSweep(s string) (Sweep, error) {
	return campaign.ParseSweep(s)
}

// CampaignOption customizes a Campaign built by NewCampaign.
type CampaignOption func(*Campaign)

// WithRuns sets the number of seeds per sweep point (default 1).
func WithRuns(n int) CampaignOption {
	return func(c *Campaign) { c.spec.Runs = n }
}

// WithParallel sets the worker count (default 0 = GOMAXPROCS: the
// schedulable CPU count, which respects quota and taskset limits).
func WithParallel(workers int) CampaignOption {
	return func(c *Campaign) { c.spec.Parallel = workers }
}

// WithBaseSeed roots the deterministic per-run seed derivation
// (default 1). A campaign is a pure function of (spec, base seed).
func WithBaseSeed(seed uint64) CampaignOption {
	return func(c *Campaign) { c.spec.BaseSeed = seed }
}

// WithRunDuration overrides each flight's length (campaigns usually
// run shorter flights than the paper figures).
func WithRunDuration(d time.Duration) CampaignOption {
	return func(c *Campaign) { c.spec.Duration = d }
}

// WithSweep adds one swept parameter; sweeps of distinct keys expand
// to their cartesian grid. A campaign that sweeps a key twice, or
// repeats a value within a sweep, is refused.
func WithSweep(key string, values ...float64) CampaignOption {
	return func(c *Campaign) { c.sweeps = append(c.sweeps, Sweep{Key: key, Values: values}) }
}

// WithSweeps adds pre-built sweeps (e.g. from ParseSweep).
func WithSweeps(sweeps ...Sweep) CampaignOption {
	return func(c *Campaign) { c.sweeps = append(c.sweeps, sweeps...) }
}

// WithBaseParams fixes named overrides on every cell of the grid.
func WithBaseParams(params map[string]float64) CampaignOption {
	return func(c *Campaign) {
		for k, v := range params {
			if c.params == nil {
				c.params = make(map[string]float64, len(params))
			}
			c.params[k] = v
		}
	}
}

// WithRecordObserver registers fn to receive every Record as its run
// completes — live campaign output (progress meters, streaming CSV)
// off the workers' hot path. All observers run on one emitter
// goroutine, so they need no locking among themselves; records arrive
// exactly once each and in index order (point-major, then run)
// regardless of worker or fork completion order, so a streamed CSV is
// byte-identical to the CampaignResult's WriteRecordsCSV output.
func WithRecordObserver(fn func(Record)) CampaignOption {
	return func(c *Campaign) { c.observers = append(c.observers, fn) }
}

// StreamRecordsCSV writes the standard records-CSV header to w and
// returns a record observer that appends one flushed row per
// completed run, plus a done function to call after the campaign
// finishes — it reports the first write error, so a disk filling up
// mid-campaign cannot masquerade as a complete records file:
//
//	f, _ := os.Create("records.csv")
//	stream, done, _ := containerdrone.StreamRecordsCSV(f)
//	c := containerdrone.NewCampaign("udpflood",
//	    containerdrone.WithRuns(1000),
//	    containerdrone.WithRecordObserver(stream))
//	res, err := c.Run(ctx)
//	// ...
//	if err := done(); err != nil { /* records.csv is incomplete */ }
func StreamRecordsCSV(w io.Writer) (stream func(Record), done func() error, err error) {
	return campaign.NewRecordStreamer(w)
}

// WithPrefixSharing turns checkpoint-fork prefix sharing on or off
// (default on). When on, grid points whose swept knobs only act after
// attack/fault onset — attack parameters, fault severities, monitor
// thresholds — are grouped: the common pre-onset prefix is flown once
// per (group, run), snapshotted, and the variants fork from the
// snapshot instead of re-flying it. Forked results are byte-identical
// to full flights (pinned per registry scenario by the test suite);
// sweeps that touch pre-onset behavior, and scenarios without an
// onset, transparently fall back to full flights.
//
// Grouping changes the per-run seed derivation — every member of a
// group flies the group leader's seed for a given run index, so
// variants are compared like for like. Campaigns therefore reproduce
// bit-for-bit only across runs with the same sharing setting.
func WithPrefixSharing(enabled bool) CampaignOption {
	return func(c *Campaign) { c.spec.PrefixShare = enabled }
}

// Campaign is a Monte-Carlo experiment campaign over one scenario:
// N seeds × the cartesian grid of the configured sweeps, executed on
// a worker pool and reduced to per-point aggregates. Results are
// deterministic: a campaign is a pure function of its options,
// independent of worker count and scheduling.
type Campaign struct {
	scenario  string
	params    map[string]float64
	sweeps    []Sweep
	spec      campaign.Spec // runs, parallel, base seed, duration, sharing
	observers []func(Record)
}

// NewCampaign builds a campaign over a registered scenario:
//
//	c := containerdrone.NewCampaign("udpflood",
//	    containerdrone.WithRuns(16),
//	    containerdrone.WithSweep("attack.rate", 2000, 8000, 32000))
//	res, err := c.Run(ctx)
func NewCampaign(scenario string, opts ...CampaignOption) *Campaign {
	c := &Campaign{scenario: scenario, spec: campaign.Spec{Runs: 1, BaseSeed: 1, PrefixShare: true}}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// engineSpec sizes the campaign, then expands it into the engine's spec.
func (c *Campaign) engineSpec() (spec campaign.Spec, err error) {
	spec = c.spec
	if _, err = campaign.Size(1, c.sweeps, spec.Runs); err == nil {
		spec.Points = campaign.Expand(c.scenario, c.params, c.sweeps)
	}
	return spec, err
}

// Validate applies Run's checks without running anything: the
// campaign's size against the engine's ceiling, then every grid cell.
func (c *Campaign) Validate() error {
	spec, err := c.engineSpec()
	if err == nil {
		err = campaign.Validate(spec)
	}
	return err
}

// Run executes the campaign. On context cancellation it returns the
// partial result (cells that never ran carry a non-empty Record.Err)
// together with the context's error.
func (c *Campaign) Run(ctx context.Context) (*CampaignResult, error) {
	spec, err := c.engineSpec()
	if err != nil {
		return nil, err
	}
	if len(c.observers) > 0 {
		obs := c.observers
		spec.Stream = func(r Record) {
			for _, fn := range obs {
				fn(r)
			}
		}
	}
	records, aggs, stats, err := campaign.Run(ctx, spec)
	if records == nil {
		return nil, err
	}
	return &CampaignResult{
		SchemaVersion: SchemaVersion,
		Scenario:      c.scenario,
		Points:        len(spec.Points),
		Runs:          spec.Runs,
		BaseSeed:      spec.BaseSeed,
		Stats:         stats,
		Records:       records,
		Aggregates:    aggs,
	}, err
}

// Record is the serializable outcome of one campaign run.
type Record = campaign.Record

// Percentiles summarizes one metric over a run population.
type Percentiles = campaign.Percentiles

// Aggregate is the reduction of one sweep point's run population.
type Aggregate = campaign.Aggregate

// CampaignResult is the serializable outcome of a campaign: the raw
// per-run records and the per-point aggregates. Like Result it is
// self-contained — a CampaignResult decoded from JSON renders the
// same table and CSVs as one produced locally.
type CampaignResult struct {
	SchemaVersion int           `json:"schema_version"`
	Scenario      string        `json:"scenario"`
	Points        int           `json:"points"`
	Runs          int           `json:"runs"`
	BaseSeed      uint64        `json:"base_seed"`
	Stats         CampaignStats `json:"stats"`
	Records       []Record      `json:"records"`
	Aggregates    []Aggregate   `json:"aggregates"`
}

// CampaignStats is a campaign's execution economics: ticks flown and saved, and failures.
type CampaignStats = campaign.Stats

// Table renders the aggregates as an aligned text table.
func (r *CampaignResult) Table() string {
	return campaign.Table(r.Aggregates)
}

// Summary renders the standard campaign report: a header line, the
// prefix-sharing economics when any run forked, and the aggregate
// table.
func (r *CampaignResult) Summary() string {
	head := fmt.Sprintf("campaign: %d points × %d runs (seed %d)\n", r.Points, r.Runs, r.BaseSeed)
	if r.Stats.ForkedRuns > 0 {
		head += fmt.Sprintf("prefix sharing: %d runs forked across %d groups, %d of %d ticks saved (%.0f%%)\n",
			r.Stats.ForkedRuns, r.Stats.ForkGroups, r.Stats.TicksSaved,
			r.Stats.TicksFlown+r.Stats.TicksSaved, 100*r.Stats.PrefixShareRatio)
	}
	return head + r.Table()
}

// WriteRecordsCSV emits one CSV row per run; downstream plotting
// scripts key on the stable header.
func (r *CampaignResult) WriteRecordsCSV(w io.Writer) error {
	return campaign.WriteRecordsCSV(w, r.Records)
}

// WriteAggregatesCSV emits one CSV row per sweep point.
func (r *CampaignResult) WriteAggregatesCSV(w io.Writer) error {
	return campaign.WriteAggregatesCSV(w, r.Aggregates)
}

// WriteJSON emits the full result as indented JSON.
func (r *CampaignResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
