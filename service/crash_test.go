package service

import (
	"bufio"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"containerdrone"
)

// TestWorkerPanicRetryCompletesJob: a job whose first attempt panics
// the worker is re-queued and completes on the second attempt; the
// supervisor respawns the dead worker and both events are visible in
// /metrics.
func TestWorkerPanicRetryCompletesJob(t *testing.T) {
	var panics atomic.Int64
	svc, cl := newTestServer(t, Config{
		Workers: 1,
		ChaosHook: func(jobID string, attempt int) {
			if attempt == 0 {
				panics.Add(1)
				panic("chaos: worker bomb")
			}
		},
	})
	st, err := cl.SubmitWait(t.Context(), CampaignRequest{Scenario: "baseline", Runs: 3, DurationS: 1})
	if err != nil {
		t.Fatalf("submit-wait: %v", err)
	}
	if st.Status != StatusDone || st.Error != "" || st.Result == nil || len(st.Result.Records) != 3 {
		t.Fatalf("retried job should complete cleanly, got %+v", st)
	}
	if panics.Load() != 1 {
		t.Fatalf("chaos hook fired %d times, want 1", panics.Load())
	}
	m := svc.Metrics()
	if m.WorkerRestarts != 1 || m.JobsRetried != 1 || m.Completed != 1 || m.Failed != 0 {
		t.Fatalf("metrics after retry: restarts=%d retried=%d completed=%d failed=%d",
			m.WorkerRestarts, m.JobsRetried, m.Completed, m.Failed)
	}
}

// TestWorkerPanicExhaustedFailsWithErrorEvent: a job that panics on
// every attempt settles as failed once the retry budget is spent, and
// its SSE followers receive a structured "error" terminal event — not
// a hung stream.
func TestWorkerPanicExhaustedFailsWithErrorEvent(t *testing.T) {
	svc, cl := newTestServer(t, Config{
		Workers:   1,
		ChaosHook: func(jobID string, attempt int) { panic("chaos: always") },
	})
	sub, err := cl.Submit(t.Context(), CampaignRequest{Scenario: "baseline", Runs: 2, DurationS: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err := cl.Wait(t.Context(), sub.JobID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.Status != StatusFailed || !strings.Contains(st.Error, "job panicked") {
		t.Fatalf("want failed status naming the panic, got %+v", st)
	}
	// The wire-level terminal frame is the "error" event.
	resp, err := http.Get(cl.BaseURL + "/v1/jobs/" + sub.JobID + "/records")
	if err != nil {
		t.Fatalf("raw stream: %v", err)
	}
	defer resp.Body.Close()
	raw, err := readAllStream(resp)
	if err != nil {
		t.Fatalf("read stream: %v", err)
	}
	if !strings.Contains(raw, "event: error") {
		t.Fatalf("stream did not end with an error event:\n%s", raw)
	}
	m := svc.Metrics()
	if m.WorkerRestarts != 2 || m.JobsRetried != 1 || m.Failed != 1 || m.Completed != 0 {
		t.Fatalf("metrics after exhausted retries: restarts=%d retried=%d failed=%d completed=%d",
			m.WorkerRestarts, m.JobsRetried, m.Failed, m.Completed)
	}
}

// TestFleetSurvivesPanicStorm: every job panics once; the fleet keeps
// serving and every job still completes — workers are replaced, not
// lost, and the queue never wedges.
func TestFleetSurvivesPanicStorm(t *testing.T) {
	// A clock that advances 1 s per read refills the restart bucket
	// as fast as the storm drains it, so the brake (tested separately)
	// never sleeps.
	var ticks atomic.Int64
	svc, cl := newTestServer(t, Config{
		Workers: 2,
		ChaosHook: func(jobID string, attempt int) {
			if attempt == 0 {
				panic("chaos: storm")
			}
		},
		now: func() time.Time { return time.Unix(ticks.Add(1), 0) },
	})
	const jobs = 6
	ids := make([]string, jobs)
	for i := range ids {
		sub, err := cl.Submit(t.Context(), CampaignRequest{Scenario: "baseline", Runs: 1, DurationS: 1})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = sub.JobID
	}
	for _, id := range ids {
		st, err := cl.Wait(t.Context(), id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if st.Status != StatusDone {
			t.Fatalf("%s: %+v", id, st)
		}
	}
	m := svc.Metrics()
	if m.Completed != jobs || m.WorkerRestarts != jobs || m.JobsRetried != jobs {
		t.Fatalf("storm metrics: completed=%d restarts=%d retried=%d, want %d each",
			m.Completed, m.WorkerRestarts, m.JobsRetried, jobs)
	}
}

// TestRestartLimiter pins the crash-loop brake's arithmetic: restarts
// are free up to the burst, then spaced at the configured rate, and
// idle time refills the bucket.
func TestRestartLimiter(t *testing.T) {
	now := time.Unix(0, 0)
	l := newRestartLimiter(1, 2, func() time.Time { return now })
	for i := 0; i < 2; i++ {
		if d := l.reserve(); d != 0 {
			t.Fatalf("restart %d within burst: delay %v, want 0", i, d)
		}
	}
	if d := l.reserve(); d != time.Second {
		t.Fatalf("first over-burst delay %v, want 1s", d)
	}
	if d := l.reserve(); d != 2*time.Second {
		t.Fatalf("second over-burst delay %v, want 2s", d)
	}
	now = now.Add(3 * time.Second)
	if d := l.reserve(); d != 0 {
		t.Fatalf("after refill: delay %v, want 0", d)
	}
}

// TestStreamRecordsResumeAfterDisconnect is the reconnect regression
// test: a consumer that read N records before its connection dropped
// resumes with from=N and receives exactly the remainder — no
// duplicates, no gaps.
func TestStreamRecordsResumeAfterDisconnect(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1})
	sub, err := cl.Submit(t.Context(), CampaignRequest{Scenario: "baseline", Runs: 6, DurationS: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := cl.Wait(t.Context(), sub.JobID); err != nil {
		t.Fatalf("wait: %v", err)
	}
	// Ground truth: the full record sequence.
	var full []containerdrone.Record
	if _, err := cl.StreamRecords(t.Context(), sub.JobID, func(r containerdrone.Record) {
		full = append(full, r)
	}); err != nil {
		t.Fatalf("full stream: %v", err)
	}
	if len(full) != 6 {
		t.Fatalf("full stream has %d records, want 6", len(full))
	}
	// A raw follower drops its connection after 3 record events.
	resp, err := http.Get(cl.BaseURL + "/v1/jobs/" + sub.JobID + "/records")
	if err != nil {
		t.Fatalf("raw stream: %v", err)
	}
	sc := bufio.NewScanner(resp.Body)
	seen := 0
	for sc.Scan() && seen < 3 {
		if strings.HasPrefix(sc.Text(), "event: record") {
			seen++
		}
	}
	resp.Body.Close() // the dropped connection
	if seen != 3 {
		t.Fatalf("saw %d record events before dropping, want 3", seen)
	}
	// Resume from index 3: the server replays its append-only log
	// from exactly there.
	var resumed []containerdrone.Record
	st, err := cl.StreamRecordsFrom(t.Context(), sub.JobID, 3, func(r containerdrone.Record) {
		resumed = append(resumed, r)
	})
	if err != nil {
		t.Fatalf("resume stream: %v", err)
	}
	if st.Status != StatusDone {
		t.Fatalf("resume terminal status %+v", st)
	}
	if len(resumed) != 3 {
		t.Fatalf("resumed %d records, want 3", len(resumed))
	}
	for i, r := range resumed {
		if r.Run != full[3+i].Run || r.Seed != full[3+i].Seed {
			t.Fatalf("resumed record %d = run %d seed %d, want run %d seed %d",
				i, r.Run, r.Seed, full[3+i].Run, full[3+i].Seed)
		}
	}
	// The record frames carry their campaign index as the SSE id line
	// — the client's resume cursor.
	resp2, err := http.Get(cl.BaseURL + "/v1/jobs/" + sub.JobID + "/records?from=4")
	if err != nil {
		t.Fatalf("from=4 stream: %v", err)
	}
	raw, err := readAllStream(resp2)
	resp2.Body.Close()
	if err != nil {
		t.Fatalf("read from=4 stream: %v", err)
	}
	if !strings.Contains(raw, "id: 4") || strings.Contains(raw, "id: 3") {
		t.Fatalf("from=4 stream ids wrong:\n%s", raw)
	}
}

// TestJournalReplayAfterCrash is the kill -9 contract: a job accepted
// (and acknowledged) by a server whose process dies before settling it
// is replayed and completed by the next server booted over the same
// journal directory. No acknowledged job is lost.
func TestJournalReplayAfterCrash(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	// The chaos gate wedges the worker inside the job, keeping it
	// un-settled while the "crash" happens.
	gate := make(chan struct{})
	_, cl1 := newTestServer(t, Config{
		Workers:   1,
		Journal:   jl,
		ChaosHook: func(string, int) { <-gate },
	})
	sub, err := cl1.Submit(t.Context(), CampaignRequest{Scenario: "baseline", Runs: 2, DurationS: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Simulate kill -9: the journal file handle dies with the process,
	// so the in-flight job's "done" entry can never be written. The
	// accept entry was fsynced before the 202 went out.
	if err := jl.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}
	close(gate) // let the doomed process's worker wind down

	// "Reboot" over the same journal directory.
	jl2, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	if p := jl2.Pending(); len(p) != 1 || p[0].ID != sub.JobID {
		t.Fatalf("pending after crash = %+v, want exactly %s", p, sub.JobID)
	}
	svc2, cl2 := newTestServer(t, Config{Workers: 1, Journal: jl2})
	st, err := cl2.Wait(t.Context(), sub.JobID)
	if err != nil {
		t.Fatalf("wait for replayed job: %v", err)
	}
	if st.Status != StatusDone || len(st.Result.Records) != 2 {
		t.Fatalf("replayed job status %+v", st)
	}
	m := svc2.Metrics()
	if m.JournalReplays != 1 || m.Completed != 1 {
		t.Fatalf("replay metrics: replays=%d completed=%d", m.JournalReplays, m.Completed)
	}
	if len(m.Tenants) != 1 || m.Tenants[0].Accepted != m.Accepted {
		t.Fatalf("accepted %d, per-tenant ledger %+v; want the replayed job in its tenant's ledger", m.Accepted, m.Tenants)
	}
	// New submissions resume the ID sequence past the replayed job —
	// idempotency by job ID holds across lives.
	sub2, err := cl2.Submit(t.Context(), CampaignRequest{Scenario: "baseline", Runs: 1, DurationS: 1})
	if err != nil {
		t.Fatalf("post-replay submit: %v", err)
	}
	if sub2.JobID == sub.JobID {
		t.Fatalf("job ID %s reused after replay", sub2.JobID)
	}
	if _, err := cl2.Wait(t.Context(), sub2.JobID); err != nil {
		t.Fatalf("wait post-replay job: %v", err)
	}
	// Settled jobs stop replaying: drain, then a third boot sees an
	// empty journal.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc2.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := jl2.Close(); err != nil {
		t.Fatalf("close journal 2: %v", err)
	}
	jl3, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer jl3.Close()
	if p := jl3.Pending(); len(p) != 0 {
		t.Fatalf("journal still pending after settlement: %+v", p)
	}
}

// TestJournalTornTailAndCompaction: a crash mid-append leaves a torn
// trailing line; replay ignores exactly that line, and compaction
// rewrites the journal down to the surviving pending entries.
func TestJournalTornTailAndCompaction(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := CampaignRequest{SchemaVersion: SchemaVersion, Scenario: "baseline", Runs: 1}
	if err := jl.Accept("j-00000001", "a", req); err != nil {
		t.Fatal(err)
	}
	if err := jl.Accept("j-00000002", "b", req); err != nil {
		t.Fatal(err)
	}
	if err := jl.Done("j-00000001"); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	// The crash: an append cut off mid-line.
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"accept","job_id":"j-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	jl2, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("open over torn journal: %v", err)
	}
	p := jl2.Pending()
	if len(p) != 1 || p[0].ID != "j-00000002" || p[0].Tenant != "b" {
		t.Fatalf("pending = %+v, want only j-00000002", p)
	}
	if jl2.MaxID() != 2 {
		t.Fatalf("max id %d, want 2", jl2.MaxID())
	}
	if err := jl2.Close(); err != nil {
		t.Fatal(err)
	}
	// Compaction already rewrote the file: a third open sees the same
	// single pending entry, torn tail gone.
	jl3, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl3.Close()
	if p := jl3.Pending(); len(p) != 1 || p[0].ID != "j-00000002" {
		t.Fatalf("pending after compaction = %+v", p)
	}
}

// TestClientRetryBackpressure: the client retries 429/503 rejections
// with backoff, honors the server's Retry-After as a delay floor, and
// surfaces the rejection once the attempt budget is spent.
func TestClientRetryBackpressure(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeError(w, http.StatusTooManyRequests, "quota", "slow down", 10*time.Millisecond)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	cl := NewClient(ts.URL, "t")
	retries := 0
	cl.Retry = Retry{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		OnRetry: func(attempt int, err *APIError, delay time.Duration) {
			retries++
			if delay < err.RetryAfter {
				t.Errorf("retry %d: delay %v below the server's Retry-After %v", attempt, delay, err.RetryAfter)
			}
		},
	}
	if err := cl.Healthz(t.Context()); err != nil {
		t.Fatalf("healthz should succeed after retries: %v", err)
	}
	if retries != 2 || calls.Load() != 3 {
		t.Fatalf("retries=%d calls=%d, want 2 and 3", retries, calls.Load())
	}

	calls.Store(0)
	cl.Retry.MaxAttempts = 2
	err := cl.Healthz(t.Context())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted budget should surface the rejection, got %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("made %d calls with a budget of 2", calls.Load())
	}
}

// readAllStream reads an SSE response to EOF as text.
func readAllStream(resp *http.Response) (string, error) {
	var b strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for sc.Scan() {
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	return b.String(), sc.Err()
}
