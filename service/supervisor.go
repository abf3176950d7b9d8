package service

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// This file is the worker fleet's supervision layer — the crash-only
// half of the server. A worker is never repaired in place: a job that
// panics through the SDK boundary retires its worker, a replacement is
// spawned under a restart-rate limiter (the crash-loop brake), and the
// panicked job is either re-queued for one more attempt or settled as
// failed so its SSE followers get a terminal "error" event instead of
// a hung stream.

// The supervisor's fixed policy. A job whose worker panicked is
// re-queued maxJobRetries times before it settles as failed: the
// campaign engine already quarantines per-run panics, so a job-level
// panic recurring twice is structural, not transient. Replacement
// workers are granted restartBurst at once, then restartRate per
// second.
const (
	maxJobRetries = 1
	restartRate   = 1
	restartBurst  = 5
)

// restartLimiter is the supervisor's token bucket: replacements for
// panicked workers are granted immediately up to the burst, then
// spaced out at the given rate. A panic storm therefore degrades
// the fleet gradually instead of spinning a hot crash loop.
type restartLimiter struct {
	mu     sync.Mutex
	rate   float64 // restarts per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

func newRestartLimiter(rate float64, burst int, now func() time.Time) *restartLimiter {
	if now == nil {
		now = time.Now
	}
	return &restartLimiter{
		rate:   rate,
		burst:  float64(burst),
		tokens: float64(burst),
		last:   now(),
		now:    now,
	}
}

// reserve takes one restart token and returns how long the caller must
// wait before acting on it: zero while under the rate, a growing delay
// once the burst is spent.
func (l *restartLimiter) reserve() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.last = now
	l.tokens--
	if l.tokens >= 0 {
		return 0
	}
	return time.Duration(-l.tokens / l.rate * float64(time.Second))
}

// startWorker adds one fleet member after an optional supervisor-
// imposed delay. The WaitGroup add happens on the caller's goroutine —
// when the caller is a dying worker, before its own deferred Done — so
// Shutdown can never observe a transient zero while a replacement is
// still spawning.
func (s *Server) startWorker(delay time.Duration) {
	s.workerWG.Add(1)
	go func() {
		defer s.workerWG.Done()
		if delay > 0 {
			time.Sleep(delay)
		}
		s.workerLoop()
	}()
}

// workerLoop is one fleet member: it owns whatever campaign it is
// running until that campaign reaches a terminal state. Each job runs
// on a fresh campaign engine, whose warm Systems are reused across
// that job's runs and dropped when it ends; no state carries from one
// job to the next. The loop exits when the queue closes
// (drain) or when a job panic retires the worker — its replacement is
// already spawning under the restart limiter by the time it returns.
func (s *Server) workerLoop() {
	for j := range s.queue {
		if s.runJobSafe(j) {
			continue
		}
		s.metrics.workerRestarts.Add(1)
		s.startWorker(s.restarts.reserve())
		return
	}
}

// runJobSafe is the worker's crash boundary: a panic anywhere in the
// job path — the chaos hook, the SDK, a scenario bug that escapes the
// campaign engine's own per-run recovery — is caught here and turned
// into a retry or a terminal failed status. The process never dies for
// one job. Returns false when the job panicked, retiring the worker.
func (s *Server) runJobSafe(j *job) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
			s.cfg.Logf("worker panic on %s (attempt %d): %v\n%s", j.id, j.attempts, r, debug.Stack())
			s.settlePanicked(j, r)
		}
	}()
	s.runJob(j)
	return true
}

// settlePanicked decides a panicked job's fate: one more attempt when
// the retry budget, the job's own context, and the queue all allow it;
// otherwise a terminal failed status, so followers of its record
// stream receive the "error" event rather than waiting forever.
func (s *Server) settlePanicked(j *job, cause any) {
	if j.attempts < maxJobRetries && j.ctx.Err() == nil && s.requeue(j) {
		s.metrics.jobsRetried.Add(1)
		return
	}
	s.settle(j, nil, fmt.Errorf("job panicked: %v", cause), false)
}

// requeue re-enqueues a panicked job for another attempt. It refuses —
// the caller then settles the job as failed — when the server is
// draining (the queue channel is closed; sending would panic the
// supervisor itself) or the queue is full.
func (s *Server) requeue(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	j.reset()
	select {
	case s.queue <- j:
		return true
	default:
		return false
	}
}
