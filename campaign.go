package containerdrone

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"containerdrone/internal/campaign"
)

// Sweep is one swept campaign parameter: a key from ParamInfos and
// its value grid.
type Sweep struct {
	Key    string    `json:"key"`
	Values []float64 `json:"values"`
}

// ParseSweep parses "key=v1,v2,v3" into a Sweep; values accept any Go
// float syntax (so "attack.rate=1e9,4e9" works).
func ParseSweep(s string) (Sweep, error) {
	sw, err := campaign.ParseSweep(s)
	if err != nil {
		return Sweep{}, err
	}
	return Sweep{Key: sw.Key, Values: sw.Values}, nil
}

// CampaignOption customizes a Campaign built by NewCampaign.
type CampaignOption func(*Campaign)

// WithRuns sets the number of seeds per sweep point (default 1).
func WithRuns(n int) CampaignOption {
	return func(c *Campaign) { c.runs = n }
}

// WithParallel sets the worker count (default 0 = GOMAXPROCS: the
// schedulable CPU count, which respects quota and taskset limits).
func WithParallel(workers int) CampaignOption {
	return func(c *Campaign) { c.parallel = workers }
}

// WithBaseSeed roots the deterministic per-run seed derivation
// (default 1). A campaign is a pure function of (spec, base seed).
func WithBaseSeed(seed uint64) CampaignOption {
	return func(c *Campaign) { c.baseSeed = seed }
}

// WithRunDuration overrides each flight's length (campaigns usually
// run shorter flights than the paper figures).
func WithRunDuration(d time.Duration) CampaignOption {
	return func(c *Campaign) { c.duration = d }
}

// WithSweep adds one swept parameter; repeated sweeps expand to their
// cartesian grid.
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
	s, d, err := campaign.NewRecordStreamer(w)
	if err != nil {
		return nil, nil, err
	}
	return func(r Record) { s(campaign.Record(r)) }, d, nil
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
	return func(c *Campaign) { c.prefixShare = enabled }
}

// Campaign is a Monte-Carlo experiment campaign over one scenario:
// N seeds × the cartesian grid of the configured sweeps, executed on
// a worker pool and reduced to per-point aggregates. Results are
// deterministic: a campaign is a pure function of its options,
// independent of worker count and scheduling.
type Campaign struct {
	scenario    string
	params      map[string]float64
	sweeps      []Sweep
	runs        int
	parallel    int
	baseSeed    uint64
	duration    time.Duration
	prefixShare bool
	observers   []func(Record)
}

// NewCampaign builds a campaign over a registered scenario:
//
//	c := containerdrone.NewCampaign("udpflood",
//	    containerdrone.WithRuns(16),
//	    containerdrone.WithSweep("attack.rate", 2000, 8000, 32000))
//	res, err := c.Run(ctx)
func NewCampaign(scenario string, opts ...CampaignOption) *Campaign {
	c := &Campaign{scenario: scenario, runs: 1, baseSeed: 1, prefixShare: true}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Run executes the campaign. On context cancellation it returns the
// partial result (cells that never ran carry a non-empty Record.Err)
// together with the context's error.
func (c *Campaign) Run(ctx context.Context) (*CampaignResult, error) {
	sweeps := make([]campaign.Sweep, len(c.sweeps))
	for i, sw := range c.sweeps {
		sweeps[i] = campaign.Sweep{Key: sw.Key, Values: sw.Values}
	}
	spec := campaign.Spec{
		Points:      campaign.Expand(c.scenario, c.params, sweeps),
		Runs:        c.runs,
		Parallel:    c.parallel,
		BaseSeed:    c.baseSeed,
		Duration:    c.duration,
		PrefixShare: c.prefixShare,
	}
	if len(c.observers) > 0 {
		obs := c.observers
		spec.Stream = func(r campaign.Record) {
			pub := Record(r)
			for _, fn := range obs {
				fn(pub)
			}
		}
	}
	records, aggs, stats, err := campaign.Run(ctx, spec)
	if records == nil {
		return nil, err
	}
	res := &CampaignResult{
		SchemaVersion: SchemaVersion,
		Scenario:      c.scenario,
		Points:        len(spec.Points),
		Runs:          spec.Runs,
		BaseSeed:      spec.BaseSeed,
		Stats: CampaignStats{
			TicksFlown:       stats.TicksFlown,
			TicksSaved:       stats.TicksSaved,
			ForkGroups:       stats.ForkGroups,
			ForkedRuns:       stats.ForkedRuns,
			PrefixShareRatio: stats.PrefixShareRatio(),
			RunsFailed:       stats.RunsFailed,
			RunsPanicked:     stats.RunsPanicked,
			RunsRetried:      stats.RunsRetried,
		},
	}
	for _, r := range records {
		res.Records = append(res.Records, Record(r))
	}
	for _, a := range aggs {
		res.Aggregates = append(res.Aggregates, fromAggregate(a))
	}
	return res, err
}

// Record is the serializable outcome of one campaign run — the unit
// collected from remote campaign workers. Times are in simulated
// seconds so records serialize compactly and uniformly.
type Record struct {
	Point    string `json:"point"`
	Scenario string `json:"scenario"`
	// Faults names the run's injected fault plan (empty when
	// fault-free), e.g. "gps-spoof" or "netsplit+jitter".
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
	// flight-critical tasks.
	MissRate float64 `json:"miss_rate"`
	// Err records a build, run, or cancellation failure; such runs
	// carry no metrics.
	Err string `json:"err,omitempty"`
	// Panicked marks a run that died to a panic recovered at the
	// campaign worker's crash boundary; the (scenario, seed) point is
	// quarantined — the failure record is final, never retried. Err
	// carries the panic value and Stack the goroutine stack.
	Panicked bool `json:"panicked,omitempty"`
	// Retries counts re-executions after transient failures; 0 for
	// first-attempt outcomes.
	Retries int `json:"retries,omitempty"`
	// Stack is the recovered panic's goroutine stack (JSON only; the
	// records CSV omits it).
	Stack string `json:"stack,omitempty"`
}

// Percentiles summarizes one metric over a run population.
type Percentiles struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// Aggregate is the reduction of one sweep point's run population.
type Aggregate struct {
	Point    string `json:"point"`
	Scenario string `json:"scenario"`
	// Faults names the point's fault plan; FailoverRate doubles as
	// the fault's detection rate.
	Faults string `json:"faults,omitempty"`
	Runs   int    `json:"runs"`
	Errors int    `json:"errors,omitempty"`
	// Panics counts the quarantined subset of Errors (recovered worker
	// panics); Retried counts transient re-executions behind the
	// point's final run outcomes.
	Panics  int `json:"panics,omitempty"`
	Retried int `json:"retried_runs,omitempty"`

	Crashes   int     `json:"crashes"`
	CrashRate float64 `json:"crash_rate"`

	Failovers    int     `json:"failovers"`
	FailoverRate float64 `json:"failover_rate"`
	// RuleCounts tallies which security rule fired the failover.
	RuleCounts map[string]int `json:"rule_counts,omitempty"`

	// SwitchS summarizes the Simplex switch time (s) over failover
	// runs only.
	SwitchS Percentiles `json:"switch_s"`
	// MissRate summarizes the worst flight-critical deadline-miss
	// rate per run.
	MissRate Percentiles `json:"miss_rate"`
	// RMSError and MaxDeviation summarize whole-flight tracking (m).
	RMSError     Percentiles `json:"rms_error_m"`
	MaxDeviation Percentiles `json:"max_deviation_m"`
}

func fromAggregate(a campaign.Aggregate) Aggregate {
	return Aggregate{
		Point: a.Point, Scenario: a.Scenario, Faults: a.Faults, Runs: a.Runs, Errors: a.Errors,
		Panics: a.Panics, Retried: a.Retried,
		Crashes: a.Crashes, CrashRate: a.CrashRate,
		Failovers: a.Failovers, FailoverRate: a.FailoverRate,
		RuleCounts:   a.RuleCounts,
		SwitchS:      Percentiles(a.SwitchS),
		MissRate:     Percentiles(a.MissRate),
		RMSError:     Percentiles(a.RMSError),
		MaxDeviation: Percentiles(a.MaxDeviation),
	}
}

func (a Aggregate) internal() campaign.Aggregate {
	return campaign.Aggregate{
		Point: a.Point, Scenario: a.Scenario, Faults: a.Faults, Runs: a.Runs, Errors: a.Errors,
		Panics: a.Panics, Retried: a.Retried,
		Crashes: a.Crashes, CrashRate: a.CrashRate,
		Failovers: a.Failovers, FailoverRate: a.FailoverRate,
		RuleCounts:   a.RuleCounts,
		SwitchS:      campaign.Percentiles(a.SwitchS),
		MissRate:     campaign.Percentiles(a.MissRate),
		RMSError:     campaign.Percentiles(a.RMSError),
		MaxDeviation: campaign.Percentiles(a.MaxDeviation),
	}
}

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

// CampaignStats reports the campaign's execution economics: how many
// engine ticks actually ran, and how many a prefix-sharing campaign
// avoided by forking variants from shared snapshots.
type CampaignStats struct {
	// TicksFlown counts engine ticks actually executed across all runs.
	TicksFlown int64 `json:"ticks_flown"`
	// TicksSaved counts prefix ticks forked runs did not re-fly.
	TicksSaved int64 `json:"ticks_saved"`
	// ForkGroups is how many sweep groups qualified for prefix sharing.
	ForkGroups int `json:"fork_groups"`
	// ForkedRuns is how many runs were restored from a snapshot.
	ForkedRuns int `json:"forked_runs"`
	// PrefixShareRatio is TicksSaved / (TicksFlown + TicksSaved): the
	// fraction of demanded simulation work that sharing eliminated.
	PrefixShareRatio float64 `json:"prefix_share_ratio"`

	// RunsFailed counts runs that settled with a failure record after
	// actually executing; RunsPanicked is the quarantined subset
	// recovered at the worker crash boundary; RunsRetried counts
	// transient re-executions. All zero on a healthy campaign, so its
	// serialized output is byte-identical to pre-recovery builds.
	RunsFailed   int64 `json:"runs_failed,omitempty"`
	RunsPanicked int64 `json:"runs_panicked,omitempty"`
	RunsRetried  int64 `json:"runs_retried,omitempty"`
}

func (r *CampaignResult) internalRecords() []campaign.Record {
	out := make([]campaign.Record, len(r.Records))
	for i, rec := range r.Records {
		out[i] = campaign.Record(rec)
	}
	return out
}

func (r *CampaignResult) internalAggregates() []campaign.Aggregate {
	out := make([]campaign.Aggregate, len(r.Aggregates))
	for i, a := range r.Aggregates {
		out[i] = a.internal()
	}
	return out
}

// Table renders the aggregates as an aligned text table.
func (r *CampaignResult) Table() string {
	return campaign.Table(r.internalAggregates())
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
	return campaign.WriteRecordsCSV(w, r.internalRecords())
}

// WriteAggregatesCSV emits one CSV row per sweep point.
func (r *CampaignResult) WriteAggregatesCSV(w io.Writer) error {
	return campaign.WriteAggregatesCSV(w, r.internalAggregates())
}

// WriteJSON emits the full result as indented JSON.
func (r *CampaignResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
