package main

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval the benchmark recorded around a call into
// the system. Spans of one operation share the operation's root span as
// their parent.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run. A nil *tracer
// records nothing, so untraced code paths pass nil.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// newID reserves a span ID, so children can name a parent that is
// recorded after them.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores the span [start, end) under a reserved ID.
func (t *tracer) record(id, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// child records a span under parent and returns its end, so sequential
// children chain without another clock read.
func (t *tracer) child(parent int64, name string, start, end time.Time) time.Time {
	t.record(t.newID(), parent, name, start, end)
	return end
}

// spanStat summarizes every span of one name.
type spanStat struct {
	Count    int     `json:"count"`
	MedianNS float64 `json:"median_ns"`
	// SelfMedianNS is the median of each span's duration minus the part
	// of its interval its children cover.
	SelfMedianNS float64 `json:"self_median_ns"`
}

// summarize returns the per-name span statistics.
func summarize(spans []span) map[string]spanStat {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		d := float64(s.EndNS - s.StartNS)
		durs[s.Name] = append(durs[s.Name], d)
		selfs[s.Name] = append(selfs[s.Name], d-float64(covered(s, children[s.ID])))
	}
	out := make(map[string]spanStat, len(durs))
	for name, d := range durs {
		out[name] = spanStat{Count: len(d), MedianNS: median(d), SelfMedianNS: median(selfs[name])}
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, kids []span) int64 {
	kids = slices.Clone(kids)
	slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.StartNS, b.StartNS) })
	var total int64
	cur := parent.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, cur), min(k.EndNS, parent.EndNS)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}
