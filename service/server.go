package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"containerdrone"
)

// Config sizes and guards one Server. The zero value is a sane
// single-box default: GOMAXPROCS workers, a 64-deep queue, no tenant
// quotas, 60 s default / 10 min max job deadline.
type Config struct {
	// Workers is the persistent worker count — the number of campaigns
	// that execute concurrently. Default GOMAXPROCS.
	Workers int
	// QueueDepth bounds the accepted-but-not-yet-running backlog; a
	// full queue rejects with 429. Default 64.
	QueueDepth int
	// JobParallel is the campaign worker count given to each job
	// (inside its service worker slot), and the most a request's
	// Parallel may ask for. Default 1: the service fleet, not the
	// per-job pool, is the parallelism unit.
	JobParallel int

	// QuotaRate is the per-tenant token-bucket refill in submissions
	// per second; 0 disables rate quotas. QuotaBurst is the bucket
	// capacity (default 1 when rate quotas are on).
	QuotaRate  float64
	QuotaBurst int
	// MaxInFlightPerTenant caps one tenant's queued+running jobs;
	// 0 disables the cap.
	MaxInFlightPerTenant int

	// MaxRunsPerJob rejects degenerate grids up front. Default 65536.
	MaxRunsPerJob int

	// DefaultTimeout bounds a job's execution when the request names
	// none (default 60 s); MaxTimeout clamps request-supplied
	// deadlines (default 10 min). The clock starts when a worker picks
	// the job up — queue wait is bounded by backpressure instead.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// Retention is how many terminal jobs stay queryable before the
	// oldest are evicted. Default 16384.
	Retention int

	// Journal, when set, makes accepted jobs durable: every admission
	// is journaled (and fsynced) before the submitter hears 202, and a
	// server built over a journal with unsettled entries re-enqueues
	// them at boot — at-least-once execution across process crashes.
	// Open one with OpenJournal; the server appends to it but the
	// caller owns Close.
	Journal *Journal

	// ChaosHook, when set, runs at the top of every job attempt with
	// the job's ID and attempt number — the service-level fault
	// injection point (campaignd -chaos-panic-job). A panic thrown
	// from the hook exercises the full supervision path: worker death,
	// rate-limited respawn, job retry. Test and CI use only.
	ChaosHook func(jobID string, attempt int)

	// Logf receives supervision diagnostics (worker panics with their
	// stacks). Default: discard.
	Logf func(format string, args ...any)

	// now overrides the quota and restart-limiter clock in tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobParallel <= 0 {
		c.JobParallel = 1
	}
	if c.QuotaBurst <= 0 {
		c.QuotaBurst = 1
	}
	if c.MaxRunsPerJob <= 0 {
		c.MaxRunsPerJob = 65536
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.Retention <= 0 {
		c.Retention = 16384
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the campaignd core: an http.Handler plus the worker fleet
// behind it. Build with NewServer, mount anywhere (it serves relative
// paths), and call Shutdown to drain.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	queue    chan *job
	metrics  *metrics
	quotas   *quotaTable
	restarts *restartLimiter
	journal  *Journal

	baseCtx    context.Context
	baseCancel context.CancelFunc
	workerWG   sync.WaitGroup

	mu       sync.Mutex
	draining bool
	nextID   int64
	jobs     map[string]*job
	terminal []string // eviction order
}

// NewServer builds the server and starts its worker fleet; callers
// own the listener (mount s on an http.Server) and the drain call.
// When cfg.Journal holds unsettled jobs from a crashed predecessor,
// they are re-enqueued before any worker starts, in their original
// accept order, ahead of new submissions.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	var pending []PendingJob
	if cfg.Journal != nil {
		pending = cfg.Journal.Pending()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg: cfg,
		mux: http.NewServeMux(),
		// Replayed jobs bypass admission (they were admitted in a past
		// life); widen the queue so re-enqueueing them cannot block or
		// steal capacity from new submissions.
		queue:      make(chan *job, cfg.QueueDepth+len(pending)),
		metrics:    newMetrics(),
		quotas:     newQuotaTable(cfg.QuotaRate, cfg.QuotaBurst, cfg.MaxInFlightPerTenant, cfg.now),
		restarts:   newRestartLimiter(restartRate, restartBurst, cfg.now),
		journal:    cfg.Journal,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
	}
	if s.journal != nil {
		s.nextID = s.journal.MaxID()
		for _, p := range pending {
			jobCtx, jobCancel := context.WithCancel(ctx)
			j := newJob(p.ID, p.Tenant, p.Request, jobCancel)
			j.ctx = jobCtx
			s.jobs[j.id] = j
			s.queue <- j
			s.metrics.accepted.Add(1)
			s.quotas.accept(p.Tenant)
			s.metrics.journalReplays.Add(1)
		}
	}
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/records", s.handleRecords)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	for i := 0; i < cfg.Workers; i++ {
		s.startWorker(0)
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown drains gracefully: new submissions are rejected (503, and
// /healthz flips to 503 for load balancers), every already-accepted
// job — queued or running — runs to completion, then the workers
// exit. If ctx expires first, in-flight jobs are force-canceled and
// finish with partial results before Shutdown returns ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // submissions stopped above; workers drain the backlog
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Draining reports whether drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Metrics returns the current metrics snapshot (the /metrics body).
func (s *Server) Metrics() MetricsSnapshot {
	return s.metrics.snapshot(len(s.queue), cap(s.queue), s.cfg.Workers, s.Draining(), s.quotas.snapshot())
}

// tenantOf resolves the request's tenant: the X-Tenant header, then
// the tenant query parameter, then "anonymous". Quotas and metrics
// key on this name.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	return "anonymous"
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	var req CampaignRequest
	err := decodeStrict(r.Body, &req)
	if err == nil {
		err = req.checkSize(s.cfg.MaxRunsPerJob)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	ok, retry, reason := s.quotas.admit(tenant)
	if !ok {
		s.metrics.rejectedQuota.Add(1)
		writeError(w, http.StatusTooManyRequests, reason,
			fmt.Sprintf("tenant %q over %s limit", tenant, reason), retry)
		return
	}
	// Cells are checked only past the quota, so a tenant over its limit
	// cannot make the server build them; a bad cell spends the token.
	if err := req.campaign().Validate(); err != nil {
		s.quotas.release(tenant)
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}

	jobCtx, cancel := context.WithCancel(s.baseCtx)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		s.quotas.release(tenant)
		s.metrics.rejectedDrain.Add(1)
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining", 5*time.Second)
		return
	}
	s.nextID++
	j := newJob(fmt.Sprintf("j-%08d", s.nextID), tenant, req, cancel)
	j.ctx = jobCtx
	j.admitted = true
	if s.journal != nil {
		// Journal before acknowledging: an accepted job must be either
		// settled or replayable, whatever happens to this process. The
		// fsync rides inside the submit critical section — durability
		// is the admission cost when a journal is configured.
		if err := s.journal.Accept(j.id, tenant, req); err != nil {
			s.mu.Unlock()
			cancel()
			s.quotas.release(tenant)
			writeError(w, http.StatusInternalServerError, "journal",
				"journal append failed: "+err.Error(), 0)
			return
		}
	}
	var depth int
	select {
	case s.queue <- j:
		depth = len(s.queue)
		s.jobs[j.id] = j
		s.mu.Unlock()
	default:
		if s.journal != nil {
			// Compensate the accept entry so the rejected job is not
			// replayed after a crash; the burned ID is never reused.
			_ = s.journal.Done(j.id)
		} else {
			s.nextID--
		}
		s.mu.Unlock()
		cancel()
		s.quotas.release(tenant)
		s.metrics.rejectedQueue.Add(1)
		writeError(w, http.StatusTooManyRequests, "queue_full",
			fmt.Sprintf("job queue full (%d deep)", cap(s.queue)), time.Second)
		return
	}
	s.metrics.accepted.Add(1)
	s.quotas.accept(tenant)

	if r.URL.Query().Get("wait") != "" {
		select {
		case <-j.done:
			writeJSON(w, http.StatusOK, j.snapshot())
		case <-r.Context().Done():
			// The client went away; the job keeps running and stays
			// queryable by ID.
			writeError(w, http.StatusRequestTimeout, "client_gone", "client canceled while waiting", 0)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		SchemaVersion: SchemaVersion,
		JobID:         j.id,
		Tenant:        tenant,
		Status:        StatusQueued,
		QueueDepth:    depth,
	})
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "not_found", "no such job", 0)
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "not_found", "no such job", 0)
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleRecords streams a job's records as Server-Sent Events: one
// "record" event per completed run in campaign index order (late
// subscribers replay from the start), then a single terminal event —
// "done" carrying the JobStatus with the full result, or "error"
// carrying the failed JobStatus when the job did not survive (so a
// follower of a crashed job sees a structured verdict, never a hung
// stream). Each record event carries its campaign index as the SSE id
// line, and ?from=N resumes the replay at index N — a client that
// lost its connection after N records reconnects with from=N and sees
// no duplicates.
func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "not_found", "no such job", 0)
		return
	}
	from := 0
	if raw := r.URL.Query().Get("from"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "bad_request", "from must be a non-negative integer", 0)
			return
		}
		from = v
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	idx := from
	_, terminal, err := j.follow(r.Context(), from, func(rec containerdrone.Record) error {
		if err := writeEventID(w, "record", idx, rec); err != nil {
			return err
		}
		idx++
		return rc.Flush()
	})
	if err != nil || !terminal {
		return // client went away mid-stream
	}
	st := j.snapshot()
	name := "done"
	if st.Status == StatusFailed {
		name = "error"
	}
	if writeEvent(w, name, st) == nil {
		rc.Flush()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", "5")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// runJob executes one job attempt to a terminal state. Settlement
// happens explicitly on each exit path rather than in a defer: when
// the campaign panics, the job must stay unsettled so the supervisor's
// crash boundary (runJobSafe) can decide between a retry and a
// terminal failure.
func (s *Server) runJob(j *job) {
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)

	if err := j.ctx.Err(); err != nil {
		// Canceled while queued (DELETE, or a drain deadline forcing
		// the base context): never started, no result.
		s.settle(j, nil, err, true)
		return
	}
	j.start()
	if s.cfg.ChaosHook != nil {
		s.cfg.ChaosHook(j.id, j.attempts)
	}
	timeout := s.cfg.DefaultTimeout
	if j.req.TimeoutS > 0 {
		timeout = time.Duration(j.req.TimeoutS * float64(time.Second))
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(j.ctx, timeout)
	defer cancel()

	parallel := s.cfg.JobParallel
	if j.req.Parallel > 0 {
		parallel = min(j.req.Parallel, s.cfg.JobParallel)
	}
	res, err := j.req.campaign(containerdrone.WithParallel(parallel), containerdrone.WithRecordObserver(j.emit)).Run(ctx)
	s.settle(j, res, err, errors.Is(err, context.Canceled))
}

// settle is a job's one terminal transition, on every path: a finished
// or deadline-cut campaign, a cancel or drain before or during the run,
// an exhausted panic retry, a journal-replayed job. Everything an
// observer can read about the settled job — the tenant's quota slot,
// the journal's Done entry, the counters, the latency window — is
// written first, and the terminal status is published last, so a
// client woken by Wait or SSE never sees /metrics lag the job. Only
// the worker that owns the job settles it.
func (s *Server) settle(j *job, res *containerdrone.CampaignResult, runErr error, canceled bool) {
	if j.settled() {
		return // a panic past publish must not count the job twice
	}
	status, msg, partial := verdict(res, runErr, canceled)
	if j.admitted {
		// Journal-replayed jobs were admitted by a previous process and
		// hold no slot in this one's quota table.
		s.quotas.release(j.tenant)
	}
	if s.journal != nil {
		// A failed append leaves the accept entry standing, so the job
		// replays after the next crash — at-least-once over losing it.
		_ = s.journal.Done(j.id)
	}
	switch status {
	case StatusDone:
		s.metrics.completed.Add(1)
	case StatusCanceled:
		s.metrics.canceled.Add(1)
	default:
		s.metrics.failed.Add(1)
	}
	ok, failed := j.runCounts()
	s.metrics.runsCompleted.Add(ok)
	s.metrics.runsFailed.Add(failed)
	s.metrics.observeLatency(time.Since(j.submitted))
	j.publish(res, status, msg, partial)

	s.mu.Lock()
	s.terminal = append(s.terminal, j.id)
	for len(s.terminal) > s.cfg.Retention {
		delete(s.jobs, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
	s.mu.Unlock()
}

// writeJSON writes a JSON response body with the standard headers.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the uniform ErrorResponse, mirroring retry into
// the Retry-After header (whole seconds, rounded up) when non-zero.
func writeError(w http.ResponseWriter, code int, reason, msg string, retry time.Duration) {
	if retry > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retry.Seconds()))))
	}
	writeJSON(w, code, ErrorResponse{
		SchemaVersion: SchemaVersion,
		Error:         msg,
		Reason:        reason,
		RetryAfterS:   retry.Seconds(),
	})
}

// writeEvent emits one SSE frame: "event: <name>" plus the JSON data
// line.
func writeEvent(w http.ResponseWriter, name string, v any) error {
	return writeEventID(w, name, -1, v)
}

// writeEventID emits an SSE frame with an id line (the record's
// campaign index — the client's resume cursor). A negative id omits
// the line.
func writeEventID(w http.ResponseWriter, name string, id int, v any) error {
	var err error
	if id >= 0 {
		_, err = fmt.Fprintf(w, "event: %s\nid: %d\ndata: ", name, id)
	} else {
		_, err = fmt.Fprintf(w, "event: %s\ndata: ", name)
	}
	if err != nil {
		return err
	}
	if err := json.NewEncoder(w).Encode(v); err != nil { // Encode appends the first \n
		return err
	}
	_, err = fmt.Fprint(w, "\n")
	return err
}
