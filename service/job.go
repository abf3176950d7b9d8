package service

import (
	"context"
	"sync"
	"time"

	"containerdrone"
)

// job is one accepted campaign: its request, lifecycle state, the
// records streamed out of the running campaign, and the broadcast
// plumbing SSE subscribers follow.
//
// Record fan-out is pull-based: the campaign's emitter goroutine
// appends to records under the mutex and closes the current wakeup
// channel; each subscriber tracks its own read index into the shared
// slice and waits on the wakeup channel when it catches up. No
// per-subscriber buffering, no drops, and every subscriber sees the
// full record sequence in campaign index order — a late subscriber
// simply starts with a longer replay.
type job struct {
	id     string
	tenant string
	req    CampaignRequest

	submitted time.Time
	ctx       context.Context
	cancel    context.CancelFunc

	// admitted marks a job holding a slot in this process's quota
	// table; journal-replayed jobs do not (their admission belonged to
	// a previous process). attempts counts completed executions that
	// ended in a worker panic; it is read and advanced only by the
	// worker/supervisor goroutine that currently owns the job, with
	// the queue channel providing the hand-off ordering.
	admitted bool
	attempts int

	mu       sync.Mutex
	status   string
	err      string
	partial  bool
	started  time.Time
	finished time.Time
	records  []containerdrone.Record
	result   *containerdrone.CampaignResult
	wakeup   chan struct{} // closed + replaced on every state change
	done     chan struct{} // closed once terminal
}

func newJob(id, tenant string, req CampaignRequest, cancel context.CancelFunc) *job {
	return &job{
		id:        id,
		tenant:    tenant,
		req:       req,
		submitted: time.Now(),
		cancel:    cancel,
		status:    StatusQueued,
		wakeup:    make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// signal wakes every waiting subscriber; callers hold j.mu.
func (j *job) signal() {
	close(j.wakeup)
	j.wakeup = make(chan struct{})
}

// emit appends one streamed record (called from the campaign's single
// emitter goroutine).
func (j *job) emit(r containerdrone.Record) {
	j.mu.Lock()
	j.records = append(j.records, r)
	j.signal()
	j.mu.Unlock()
}

// start marks the job running.
func (j *job) start() {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.signal()
	j.mu.Unlock()
}

// reset returns a panicked job to the queued state for another
// attempt. The record log restarts from nil — not a truncation of the
// shared backing array, which followers still hold windows into — and
// because a campaign is a pure function of (request, seed), the re-run
// emits a byte-identical record sequence: a follower blocked at index
// i simply resumes, without duplicates or gaps, once the replay passes
// i again.
func (j *job) reset() {
	j.mu.Lock()
	j.attempts++
	j.status = StatusQueued
	j.err = ""
	j.partial = false
	j.started = time.Time{}
	j.records = nil
	j.result = nil
	j.signal()
	j.mu.Unlock()
}

// verdict decides the terminal status of an attempt that returned res
// and runErr, without publishing anything.
func verdict(res *containerdrone.CampaignResult, runErr error, canceled bool) (status, msg string, partial bool) {
	switch {
	case runErr == nil:
		return StatusDone, "", false
	case canceled:
		return StatusCanceled, runErr.Error(), true
	case res != nil:
		// A campaign that returned records but also an error was cut
		// short (deadline); the result is usable but partial.
		return StatusDone, runErr.Error(), true
	default:
		return StatusFailed, runErr.Error(), false
	}
}

// publish moves the job to its terminal state and releases waiters.
// It is the last step of Server.settle: everything else an observer
// can read about the settled job is already written.
func (j *job) publish(res *containerdrone.CampaignResult, status, msg string, partial bool) {
	j.mu.Lock()
	j.finished = time.Now()
	j.result = res
	j.status = status
	j.err = msg
	j.partial = partial
	j.signal()
	close(j.done)
	j.mu.Unlock()
}

// runCounts tallies the job's clean and failed run records.
func (j *job) runCounts() (ok, failed int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, rec := range j.records {
		if rec.Err == "" {
			ok++
		} else {
			failed++
		}
	}
	return ok, failed
}

// settled is terminal for callers that do not hold j.mu.
func (j *job) settled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.terminal()
}

// terminal reports whether the job has finished, failed, or been
// canceled; callers hold j.mu.
func (j *job) terminal() bool {
	return j.status == StatusDone || j.status == StatusFailed || j.status == StatusCanceled
}

// snapshot renders the job's JobStatus. Terminal statuses include the
// full result.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		SchemaVersion: SchemaVersion,
		JobID:         j.id,
		Tenant:        j.tenant,
		Status:        j.status,
		Error:         j.err,
		Partial:       j.partial,
		RunsDone:      len(j.records),
		RunsTotal:     j.req.TotalRuns(),
	}
	if !j.started.IsZero() {
		st.WaitedS = j.started.Sub(j.submitted).Seconds()
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.RanS = end.Sub(j.started).Seconds()
	}
	if j.terminal() {
		st.Result = j.result
	}
	return st
}

// follow calls fn for every record from index `from` onward, in
// order, until the job is terminal or ctx is done. It returns the
// next unread index and whether the job reached a terminal state.
func (j *job) follow(ctx context.Context, from int, fn func(containerdrone.Record) error) (int, bool, error) {
	i := from
	for {
		j.mu.Lock()
		n := len(j.records)
		term := j.terminal()
		wake := j.wakeup
		// Copy the pending window under the lock: the records slice is
		// append-only, but the emitter may grow it concurrently and a
		// slow fn must not hold the lock.
		var pending []containerdrone.Record
		if i < n {
			pending = j.records[i:n:n]
		}
		j.mu.Unlock()
		for _, r := range pending {
			if err := fn(r); err != nil {
				return i, false, err
			}
			i++
		}
		if term && i >= n {
			return i, true, nil
		}
		if i < n {
			continue // more arrived while fn ran
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return i, false, ctx.Err()
		}
	}
}
