package service

import (
	"math"
	"sync"
	"time"
)

// tenantState is one tenant's token bucket and in-flight ledger.
type tenantState struct {
	tokens float64
	last   time.Time

	inFlight int

	accepted         int64
	rejectedQuota    int64
	rejectedInFlight int64
}

// quotaTable enforces per-tenant admission: a token bucket (rate
// tokens/s, burst capacity) plus a max-in-flight cap. Zero rate or
// zero cap disables the corresponding check, so the default server is
// quota-free.
type quotaTable struct {
	rate        float64 // submissions/s refill; 0 = unlimited
	burst       float64
	maxInFlight int // per tenant; 0 = unlimited

	now func() time.Time

	mu      sync.Mutex
	tenants map[string]*tenantState
}

func newQuotaTable(rate float64, burst, maxInFlight int, now func() time.Time) *quotaTable {
	if now == nil {
		now = time.Now
	}
	b := float64(burst)
	if b <= 0 {
		b = 1
	}
	return &quotaTable{
		rate:        rate,
		burst:       b,
		maxInFlight: maxInFlight,
		now:         now,
		tenants:     make(map[string]*tenantState),
	}
}

func (q *quotaTable) state(tenant string) *tenantState {
	t := q.tenants[tenant]
	if t == nil {
		t = &tenantState{tokens: q.burst, last: q.now()}
		q.tenants[tenant] = t
	}
	return t
}

// admit charges one submission against tenant's quota. On rejection
// it returns false plus the Retry-After hint: time until the bucket
// refills one token, or a one-second poll hint for the in-flight cap
// (whose drain time depends on job length, not on a clock).
func (q *quotaTable) admit(tenant string) (ok bool, retryAfter time.Duration, reason string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t := q.state(tenant)
	if q.maxInFlight > 0 && t.inFlight >= q.maxInFlight {
		t.rejectedInFlight++
		return false, time.Second, "in_flight"
	}
	if q.rate > 0 {
		now := q.now()
		t.tokens = math.Min(q.burst, t.tokens+now.Sub(t.last).Seconds()*q.rate)
		t.last = now
		if t.tokens < 1 {
			t.rejectedQuota++
			wait := time.Duration((1 - t.tokens) / q.rate * float64(time.Second))
			if wait < time.Second {
				wait = time.Second // Retry-After has whole-second granularity
			}
			return false, wait, "quota"
		}
		t.tokens--
	}
	t.inFlight++
	return true, 0, ""
}

// accept counts one job the tenant got accepted. The server calls it
// wherever it counts the job globally, after the enqueue (journal
// replays included), so a request admitted here but refused later (bad
// cell, draining, journal, queue full) never reaches the tenant's
// ledger.
func (q *quotaTable) accept(tenant string) {
	q.mu.Lock()
	q.state(tenant).accepted++
	q.mu.Unlock()
}

// release returns one in-flight slot to the tenant (job reached a
// terminal state).
func (q *quotaTable) release(tenant string) {
	q.mu.Lock()
	if t := q.tenants[tenant]; t != nil && t.inFlight > 0 {
		t.inFlight--
	}
	q.mu.Unlock()
}

// snapshot renders the per-tenant ledger sorted by tenant name.
func (q *quotaTable) snapshot() []TenantMetrics {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tenants) == 0 {
		return nil
	}
	out := make([]TenantMetrics, 0, len(q.tenants))
	for name, t := range q.tenants {
		out = append(out, TenantMetrics{
			Tenant:           name,
			Accepted:         t.accepted,
			RejectedQuota:    t.rejectedQuota,
			RejectedInFlight: t.rejectedInFlight,
			InFlight:         t.inFlight,
		})
	}
	// Insertion sort keeps the dependency surface flat; tenant counts
	// are human-scale.
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].Tenant < out[k-1].Tenant; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}
