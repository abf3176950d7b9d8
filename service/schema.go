package service

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"containerdrone"
	"containerdrone/internal/campaign"
)

// SchemaVersion is stamped into every service request and response.
// See the package documentation for the bump policy: breaking changes
// only; optional additions ride on the same version.
const SchemaVersion = 1

// CampaignRequest is the unit of submission: one Monte-Carlo campaign
// over a registered scenario, expressed with the same knobs the SDK's
// NewCampaign options take. The zero value of every optional field
// selects the SDK default, so the minimal request is just
// {"schema_version":1,"scenario":"udpflood"}.
type CampaignRequest struct {
	SchemaVersion int `json:"schema_version"`
	// Scenario is the registered scenario name (see Scenarios).
	Scenario string `json:"scenario"`
	// Runs is the seed count per sweep point (default 1).
	Runs int `json:"runs,omitempty"`
	// BaseSeed roots the deterministic per-run seed derivation
	// (default 1); a campaign is a pure function of (request, seed).
	BaseSeed uint64 `json:"base_seed,omitempty"`
	// DurationS overrides each flight's simulated length, seconds.
	DurationS float64 `json:"duration_s,omitempty"`
	// Params are named numeric overrides applied to every grid cell.
	Params map[string]float64 `json:"params,omitempty"`
	// Sweeps expand to the cartesian grid of campaign points.
	Sweeps []containerdrone.Sweep `json:"sweeps,omitempty"`
	// ColdStart is accepted and ignored. It once disabled warm-pool
	// reuse; warm and cold runs are byte-identical, and strict v1
	// decoding must still read requests and journals that carry it.
	ColdStart bool `json:"cold_start,omitempty"`
	// NoPrefixShare disables checkpoint-fork prefix sharing; the
	// negative spelling keeps the zero value on the SDK default (on).
	NoPrefixShare bool `json:"no_prefix_share,omitempty"`
	// Parallel caps the campaign's worker count inside its service
	// worker slot; 0 means the server's per-job count, which is also
	// the most it grants.
	Parallel int `json:"parallel,omitempty"`
	// TimeoutS bounds the job's wall-clock run time, seconds; 0 means
	// the server default. The server clamps it to its maximum. A job
	// that hits its deadline returns the partial result accumulated so
	// far, marked partial.
	TimeoutS float64 `json:"timeout_s,omitempty"`
}

// Validate checks everything that can be checked without running: the
// request's fields, its size against the engine's ceilings, then every
// grid cell, so a typo in any cell fails with 400, not as a job.
func (r *CampaignRequest) Validate() error {
	err := r.checkSize(campaign.MaxRuns)
	if err == nil {
		err = r.campaign().Validate()
	}
	return err
}

// checkSize is Validate's first, cheap step with a run cap: the
// request's fields and its size, with no cell built. Submit runs it
// before the tenant's quota and the cell checks after, so a short
// request cannot buy a million cell checks before it is refused.
func (r *CampaignRequest) checkSize(maxRuns int) error {
	switch {
	case r.SchemaVersion != SchemaVersion:
		return fmt.Errorf("%w: request schema v%d, this server speaks v%d", ErrSchemaVersion, r.SchemaVersion, SchemaVersion)
	case r.Scenario == "":
		return fmt.Errorf("request names no scenario")
	case r.DurationS < 0 || r.TimeoutS < 0:
		return fmt.Errorf("negative duration or timeout")
	case r.Parallel < 0:
		return fmt.Errorf("negative parallel %d", r.Parallel)
	}
	total, err := campaign.Size(1, r.Sweeps, cmp.Or(r.Runs, 1))
	if err == nil && total > maxRuns {
		err = fmt.Errorf("request asks for %d runs; this server caps jobs at %d", total, maxRuns)
	}
	return err
}

// TotalRuns returns points × runs-per-point as the engine sizes it,
// saturated at math.MaxInt so a wrapped product cannot slip the run cap.
func (r *CampaignRequest) TotalRuns() int {
	n, _ := campaign.Size(1, r.Sweeps, cmp.Or(r.Runs, 1))
	return n
}

// campaign lowers the request onto an SDK campaign: the one lowering,
// so the submit gate and the job run see the same grid and flights.
func (r *CampaignRequest) campaign(extra ...containerdrone.CampaignOption) *containerdrone.Campaign {
	return containerdrone.NewCampaign(r.Scenario, append([]containerdrone.CampaignOption{
		containerdrone.WithRuns(cmp.Or(r.Runs, 1)),
		containerdrone.WithBaseSeed(cmp.Or(r.BaseSeed, 1)),
		containerdrone.WithRunDuration(time.Duration(r.DurationS * float64(time.Second))),
		containerdrone.WithBaseParams(r.Params),
		containerdrone.WithSweeps(r.Sweeps...),
		containerdrone.WithPrefixSharing(!r.NoPrefixShare),
	}, extra...)...)
}

// Job status strings reported by SubmitResponse and JobStatus.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// SubmitResponse acknowledges an accepted (queued) campaign.
type SubmitResponse struct {
	SchemaVersion int    `json:"schema_version"`
	JobID         string `json:"job_id"`
	Tenant        string `json:"tenant"`
	Status        string `json:"status"`
	// QueueDepth is the queue occupancy observed at accept time —
	// a client-side congestion signal.
	QueueDepth int `json:"queue_depth"`
}

// JobStatus is the state of one job; once Status is terminal
// (done/failed/canceled) Result carries the full campaign outcome.
type JobStatus struct {
	SchemaVersion int    `json:"schema_version"`
	JobID         string `json:"job_id"`
	Tenant        string `json:"tenant"`
	Status        string `json:"status"`
	// Error is the terminal error, if any ("context deadline exceeded"
	// for a job cut off by its deadline).
	Error string `json:"error,omitempty"`
	// Partial marks a result truncated by deadline, cancellation, or
	// drain timeout: records the campaign never ran carry their own
	// per-record errors inside Result.
	Partial bool `json:"partial,omitempty"`
	// RunsDone / RunsTotal report streaming progress.
	RunsDone  int `json:"runs_done"`
	RunsTotal int `json:"runs_total"`
	// WaitedS and RanS are the job's queue wait and execution wall
	// times, seconds.
	WaitedS float64 `json:"waited_s,omitempty"`
	RanS    float64 `json:"ran_s,omitempty"`
	// Result is present once the job is terminal (nil for canceled
	// jobs that never started).
	Result *containerdrone.CampaignResult `json:"result,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx service answer.
type ErrorResponse struct {
	SchemaVersion int    `json:"schema_version"`
	Error         string `json:"error"`
	// Reason is a stable machine-readable cause: "quota", "in_flight",
	// "queue_full", "draining", "bad_request", "not_found".
	Reason string `json:"reason,omitempty"`
	// RetryAfterS mirrors the Retry-After header on 429/503 answers.
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

// TenantMetrics is one tenant's accept/reject ledger.
type TenantMetrics struct {
	Tenant   string `json:"tenant"`
	Accepted int64  `json:"accepted"`
	// RejectedQuota counts token-bucket rejections; RejectedInFlight
	// counts max-in-flight cap rejections.
	RejectedQuota    int64 `json:"rejected_quota"`
	RejectedInFlight int64 `json:"rejected_in_flight"`
	InFlight         int   `json:"in_flight"`
}

// MetricsSnapshot is the /metrics document.
type MetricsSnapshot struct {
	SchemaVersion int     `json:"schema_version"`
	UptimeS       float64 `json:"uptime_s"`
	Draining      bool    `json:"draining"`

	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	InFlight   int `json:"in_flight"`
	Workers    int `json:"workers"`

	Accepted      int64 `json:"accepted"`
	Completed     int64 `json:"completed"`
	Failed        int64 `json:"failed"`
	Canceled      int64 `json:"canceled"`
	RejectedQuota int64 `json:"rejected_quota"`
	RejectedQueue int64 `json:"rejected_queue"`
	RejectedDrain int64 `json:"rejected_drain"`

	// RunsCompleted counts simulation runs across all jobs; RunsPerSec
	// is the lifetime average rate. RunsFailed counts per-run failure
	// records (including panics the campaign engine quarantined).
	RunsCompleted int64   `json:"runs_completed"`
	RunsPerSec    float64 `json:"runs_per_sec"`
	RunsFailed    int64   `json:"runs_failed"`

	// Crash-only supervision counters: workers retired by a job panic
	// and respawned, jobs re-queued after such a panic, and jobs
	// re-enqueued from the durable journal at boot.
	WorkerRestarts int64 `json:"worker_restarts"`
	JobsRetried    int64 `json:"jobs_retried"`
	JournalReplays int64 `json:"journal_replays"`

	// Job latency (submit → terminal) percentiles over a sliding
	// window of recent jobs, seconds.
	LatencyP50S float64 `json:"latency_p50_s"`
	LatencyP99S float64 `json:"latency_p99_s"`

	Tenants []TenantMetrics `json:"tenants,omitempty"`
}

// ErrSchemaVersion marks a payload from an incompatible schema.
var ErrSchemaVersion = fmt.Errorf("service: schema version mismatch")

// DecodeCampaignRequest strictly decodes a request: unknown fields,
// trailing data, and foreign schema versions are all rejected.
func DecodeCampaignRequest(r io.Reader) (CampaignRequest, error) {
	var req CampaignRequest
	if err := decodeStrict(r, &req); err != nil {
		return CampaignRequest{}, err
	}
	if err := req.Validate(); err != nil {
		return CampaignRequest{}, err
	}
	return req, nil
}

// decodeStrict decodes exactly one JSON document into v, rejecting
// unknown fields and trailing data.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON document")
	}
	return nil
}
