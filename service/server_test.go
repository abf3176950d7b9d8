package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"containerdrone"
)

// newTestServer boots a Server on an httptest listener and tears both
// down at test end.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	svc := NewServer(cfg)
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
		ts.Close()
	})
	return svc, NewClient(ts.URL, "")
}

func TestSubmitRunsToCompletion(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 2})
	sub, err := cl.Submit(t.Context(), CampaignRequest{
		Scenario: "baseline", Runs: 3, DurationS: 1,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if sub.Status != StatusQueued || sub.JobID == "" {
		t.Fatalf("submit response %+v", sub)
	}
	st, err := cl.Wait(t.Context(), sub.JobID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.Status != StatusDone || st.Partial || st.Error != "" {
		t.Fatalf("terminal status %+v", st)
	}
	if st.Result == nil || len(st.Result.Records) != 3 {
		t.Fatalf("want 3 records, got %+v", st.Result)
	}
	for _, r := range st.Result.Records {
		if r.Err != "" {
			t.Fatalf("record error: %q", r.Err)
		}
	}
	if st.RunsDone != 3 || st.RunsTotal != 3 {
		t.Fatalf("progress %d/%d, want 3/3", st.RunsDone, st.RunsTotal)
	}
}

func TestSubmitWaitSynchronous(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1})
	st, err := cl.SubmitWait(t.Context(), CampaignRequest{Scenario: "udpflood", Runs: 2, DurationS: 1})
	if err != nil {
		t.Fatalf("submit-wait: %v", err)
	}
	if st.Status != StatusDone || len(st.Result.Records) != 2 {
		t.Fatalf("status %+v", st)
	}
}

func TestStreamRecordsSSE(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1})
	sub, err := cl.Submit(t.Context(), CampaignRequest{Scenario: "baseline", Runs: 5, DurationS: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var streamed []containerdrone.Record
	st, err := cl.StreamRecords(t.Context(), sub.JobID, func(r containerdrone.Record) {
		streamed = append(streamed, r)
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(streamed) != 5 {
		t.Fatalf("streamed %d records, want 5", len(streamed))
	}
	for i, r := range streamed {
		if r.Run != i {
			t.Fatalf("stream out of order: record %d has run %d", i, r.Run)
		}
	}
	if st.Status != StatusDone || st.Result == nil {
		t.Fatalf("done status %+v", st)
	}
	// A late subscriber to the settled job replays exactly the
	// result's records, which are the live stream's.
	var replay []containerdrone.Record
	if _, err := cl.StreamRecords(t.Context(), sub.JobID, func(r containerdrone.Record) {
		replay = append(replay, r)
	}); err != nil {
		t.Fatalf("replay stream: %v", err)
	}
	if !reflect.DeepEqual(replay, st.Result.Records) || !reflect.DeepEqual(streamed, st.Result.Records) {
		t.Fatalf("live stream (%d) and late replay (%d) differ from the result's %d records",
			len(streamed), len(replay), len(st.Result.Records))
	}
}

func TestBadRequestsAre400(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1, MaxRunsPerJob: 10})
	// 1,000 points whose last cell is invalid: the run cap refuses the
	// request before any cell is checked.
	capFirst := make([]float64, 1000)
	for i := range capFirst[:999] {
		capFirst[i] = 2e9
	}
	type badCase struct {
		req  CampaignRequest
		want string
	}
	cases := []badCase{
		{CampaignRequest{Scenario: "no-such-scenario"}, "scenario"},
		{CampaignRequest{Scenario: "baseline", Params: map[string]float64{"bogus": 1}}, "bogus"},
		{CampaignRequest{Scenario: "udpflood", Params: map[string]float64{"seed": 7}}, "seed key"},
		{CampaignRequest{Scenario: "udpflood",
			Sweeps: []containerdrone.Sweep{{Key: "seed", Values: []float64{1, 2}}}}, "seed key"},
		{CampaignRequest{Scenario: "baseline", Runs: 100}, "caps jobs at 10"},
		{CampaignRequest{Scenario: "gps-spoof",
			Sweeps: []containerdrone.Sweep{{Key: "bus.capacity", Values: []float64{2e9, 0}}}}, "bus capacity"},
		{CampaignRequest{Scenario: "gps-spoof",
			Sweeps: []containerdrone.Sweep{{Key: "bus.capacity", Values: capFirst}}}, "caps jobs at 10"},
	}
	for _, req := range overflowRequests() {
		cases = append(cases, badCase{req, "ceiling"})
	}
	for _, tc := range cases {
		_, err := cl.Submit(t.Context(), tc.req)
		apiErr, ok := err.(*APIError)
		if !ok || apiErr.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Message, tc.want) {
			t.Errorf("%s request with %d sweeps: want 400 mentioning %q, got %v", tc.req.Scenario, len(tc.req.Sweeps), tc.want, err)
		}
	}
}

// TestQuotaRejection pins the token-bucket edge: a tenant over its
// burst gets 429 with a Retry-After hint, other tenants are
// unaffected, and the rejection shows up in /metrics.
func TestQuotaRejection(t *testing.T) {
	frozen := time.Now()
	_, cl := newTestServer(t, Config{
		Workers: 1, QuotaRate: 1, QuotaBurst: 2,
		now: func() time.Time { return frozen }, // bucket never refills
	})
	cl.Tenant = "greedy"
	req := CampaignRequest{Scenario: "baseline", Runs: 1, DurationS: 1}
	for i := 0; i < 2; i++ {
		if _, err := cl.Submit(t.Context(), req); err != nil {
			t.Fatalf("submit %d within burst: %v", i, err)
		}
	}
	_, err := cl.Submit(t.Context(), req)
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429 over quota, got %v", err)
	}
	if apiErr.Reason != "quota" {
		t.Fatalf("want reason quota, got %q", apiErr.Reason)
	}
	if apiErr.RetryAfter < time.Second {
		t.Fatalf("want Retry-After >= 1s, got %v", apiErr.RetryAfter)
	}
	if !apiErr.Retryable() {
		t.Fatal("quota rejection must be retryable")
	}

	// Another tenant is not affected by greedy's empty bucket.
	other := *cl
	other.Tenant = "modest"
	if _, err := other.Submit(t.Context(), req); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}

	m, err := cl.Metrics(t.Context())
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m.RejectedQuota != 1 {
		t.Fatalf("metrics rejected_quota = %d, want 1", m.RejectedQuota)
	}
	var greedy *TenantMetrics
	for i := range m.Tenants {
		if m.Tenants[i].Tenant == "greedy" {
			greedy = &m.Tenants[i]
		}
	}
	if greedy == nil || greedy.RejectedQuota != 1 || greedy.Accepted != 2 {
		t.Fatalf("per-tenant ledger %+v", m.Tenants)
	}
}

// TestQuotaBeforeCellChecks pins the submit order around the quota: a
// request with a bad cell spends its tenant's token and is not
// accepted, in the tenant's ledger or globally, and a tenant over
// quota gets 429 before any cell is built, even for a grid whose every
// cell is invalid.
func TestQuotaBeforeCellChecks(t *testing.T) {
	frozen := time.Now()
	_, cl := newTestServer(t, Config{
		Workers: 1, QuotaRate: 1, QuotaBurst: 1,
		now: func() time.Time { return frozen }, // bucket never refills
	})
	cl.Tenant = "sloppy"
	badCell := CampaignRequest{Scenario: "gps-spoof",
		Sweeps: []containerdrone.Sweep{{Key: "bus.capacity", Values: []float64{2e9, 0}}}}
	_, err := cl.Submit(t.Context(), badCell)
	if apiErr, ok := err.(*APIError); !ok || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cell within quota: want 400, got %v", err)
	}
	allBad := CampaignRequest{Scenario: "gps-spoof",
		Sweeps: []containerdrone.Sweep{{Key: "bus.capacity", Values: make([]float64, 4096)}}}
	_, err = cl.Submit(t.Context(), allBad)
	if apiErr, ok := err.(*APIError); !ok || apiErr.StatusCode != http.StatusTooManyRequests || apiErr.Reason != "quota" {
		t.Fatalf("4,096 bad cells over quota: want 429 quota, got %v", err)
	}
	m, err := cl.Metrics(t.Context())
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	// The tenant ledger counts only jobs actually accepted.
	if m.Accepted != 0 || len(m.Tenants) != 1 || m.Tenants[0] != (TenantMetrics{Tenant: "sloppy", RejectedQuota: 1}) {
		t.Fatalf("accepted %d, per-tenant ledger %+v; want one quota rejection, no job", m.Accepted, m.Tenants)
	}
}

// TestInFlightCapRejection pins the second quota edge: a tenant at
// its max-in-flight cap is rejected until a job settles.
func TestInFlightCapRejection(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1, MaxInFlightPerTenant: 1})
	cl.Tenant = "capped"
	// A job slow enough to still be in flight for the second submit.
	sub, err := cl.Submit(t.Context(), CampaignRequest{Scenario: "baseline", Runs: 50, DurationS: 2})
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err = cl.Submit(t.Context(), CampaignRequest{Scenario: "baseline", Runs: 1, DurationS: 1})
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.StatusCode != http.StatusTooManyRequests || apiErr.Reason != "in_flight" {
		t.Fatalf("want 429 in_flight, got %v", err)
	}
	if _, err := cl.Wait(t.Context(), sub.JobID); err != nil {
		t.Fatalf("wait: %v", err)
	}
	// Slot released: the tenant may submit again.
	if _, err := cl.Submit(t.Context(), CampaignRequest{Scenario: "baseline", Runs: 1, DurationS: 1}); err != nil {
		t.Fatalf("submit after release: %v", err)
	}
}

// TestQueueFullRejection pins backpressure: with the lone worker busy
// and the one-deep queue occupied, the next submission bounces with
// 429 queue_full instead of buffering unboundedly.
func TestQueueFullRejection(t *testing.T) {
	svc, cl := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	long := CampaignRequest{Scenario: "baseline", Runs: 100, DurationS: 2}
	sub, err := cl.Submit(t.Context(), long)
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	waitStatus(t, cl, sub.JobID, StatusRunning)
	if _, err := cl.Submit(t.Context(), long); err != nil { // parks in the queue
		t.Fatalf("submit 2: %v", err)
	}
	_, err = cl.Submit(t.Context(), long)
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.StatusCode != http.StatusTooManyRequests || apiErr.Reason != "queue_full" {
		t.Fatalf("want 429 queue_full, got %v", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("want Retry-After on queue_full, got %v", apiErr.RetryAfter)
	}
	m := svc.Metrics()
	if m.RejectedQueue != 1 {
		t.Fatalf("metrics rejected_queue = %d, want 1", m.RejectedQueue)
	}
	// The refused job is not in the tenant's ledger either.
	if len(m.Tenants) != 1 || m.Tenants[0].Accepted != m.Accepted {
		t.Fatalf("accepted %d, per-tenant ledger %+v; want the tenant's accepted equal to it", m.Accepted, m.Tenants)
	}
}

// TestDeadlinePartialResult pins the deadline edge: a job that blows
// its budget mid-run comes back done-but-partial, with the records it
// finished intact and the rest error-marked — never a hung worker,
// never a lost job.
func TestDeadlinePartialResult(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1})
	// Sized so the budget always cuts the campaign short but always
	// admits at least one run, with or without the race detector's
	// ~20× slowdown: 2000 runs of a 0.2 s-sim flight is ≈1.2 s of
	// work on a fast box, and one flight is ≈15 ms on a slow one.
	st, err := cl.SubmitWait(t.Context(), CampaignRequest{
		Scenario: "baseline", Runs: 2000, DurationS: 0.2, TimeoutS: 0.25,
	})
	if err != nil {
		t.Fatalf("submit-wait: %v", err)
	}
	if st.Status != StatusDone || !st.Partial {
		t.Fatalf("want done+partial, got %+v", st)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("want deadline error, got %q", st.Error)
	}
	if st.Result == nil || len(st.Result.Records) != 2000 {
		t.Fatalf("partial result must keep the full record shape, got %d records", len(st.Result.Records))
	}
	completed, cut := 0, 0
	for _, r := range st.Result.Records {
		if r.Err == "" {
			completed++
		} else {
			cut++
		}
	}
	if completed == 0 || cut == 0 {
		t.Fatalf("want a genuinely partial result, got %d completed / %d cut", completed, cut)
	}
}

// TestGracefulDrain pins the shutdown contract: accepted jobs —
// running AND queued — complete with zero drops, new submissions are
// rejected, and /healthz flips to 503 for load balancers.
func TestGracefulDrain(t *testing.T) {
	svc, cl := newTestServer(t, Config{Workers: 1})
	job := CampaignRequest{Scenario: "baseline", Runs: 60, DurationS: 2}
	subA, err := cl.Submit(t.Context(), job)
	if err != nil {
		t.Fatalf("submit A: %v", err)
	}
	waitStatus(t, cl, subA.JobID, StatusRunning)
	subB, err := cl.Submit(t.Context(), job) // queued behind A
	if err != nil {
		t.Fatalf("submit B: %v", err)
	}

	if err := cl.Healthz(t.Context()); err != nil {
		t.Fatalf("healthz before drain: %v", err)
	}
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		drained <- svc.Shutdown(ctx)
	}()
	for !svc.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New work is rejected while draining...
	_, err = cl.Submit(t.Context(), CampaignRequest{Scenario: "baseline", Runs: 1, DurationS: 1})
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.StatusCode != http.StatusServiceUnavailable || apiErr.Reason != "draining" {
		t.Fatalf("want 503 draining, got %v", err)
	}
	// ...and health flips to 503 so balancers stop routing.
	if err := cl.Healthz(t.Context()); err == nil {
		t.Fatal("healthz must fail during drain")
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Both accepted jobs completed fully: zero dropped in-flight work.
	for _, id := range []string{subA.JobID, subB.JobID} {
		st, err := cl.Status(t.Context(), id)
		if err != nil {
			t.Fatalf("status %s after drain: %v", id, err)
		}
		if st.Status != StatusDone || st.Partial || st.Error != "" {
			t.Fatalf("job %s after drain: %+v", id, st)
		}
		for _, r := range st.Result.Records {
			if r.Err != "" {
				t.Fatalf("job %s dropped run %d during drain: %q", id, r.Run, r.Err)
			}
		}
	}
	if m := svc.Metrics(); m.RejectedDrain != 1 || m.Completed != 2 {
		t.Fatalf("post-drain metrics %+v", m)
	}
}

func TestCancelJob(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1})
	sub, err := cl.Submit(t.Context(), CampaignRequest{Scenario: "baseline", Runs: 200, DurationS: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitStatus(t, cl, sub.JobID, StatusRunning)
	if _, err := cl.Cancel(t.Context(), sub.JobID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	st, err := cl.Wait(t.Context(), sub.JobID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.Status != StatusCanceled || !st.Partial {
		t.Fatalf("want canceled+partial, got %+v", st)
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 2})
	if err := cl.Healthz(t.Context()); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if _, err := cl.SubmitWait(t.Context(), CampaignRequest{Scenario: "baseline", Runs: 4, DurationS: 1}); err != nil {
		t.Fatalf("submit-wait: %v", err)
	}
	m, err := cl.Metrics(t.Context())
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m.Accepted != 1 || m.Completed != 1 || m.RunsCompleted != 4 {
		t.Fatalf("metrics %+v", m)
	}
	if m.Workers != 2 || m.QueueCap != 64 {
		t.Fatalf("config surface %+v", m)
	}
	if m.LatencyP50S <= 0 || m.LatencyP99S < m.LatencyP50S {
		t.Fatalf("latency percentiles %v/%v", m.LatencyP50S, m.LatencyP99S)
	}
	if m.RunsPerSec <= 0 {
		t.Fatalf("runs_per_sec %v", m.RunsPerSec)
	}
}

func TestJobNotFound(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1})
	_, err := cl.Status(t.Context(), "j-99999999")
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("want 404, got %v", err)
	}
}

// waitStatus polls until the job reports the wanted status (tests
// only — clients follow streams instead).
func waitStatus(t *testing.T, cl *Client, jobID, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := cl.Status(context.Background(), jobID)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if st.Status == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", jobID, want)
}
