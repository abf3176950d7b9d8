package main

import (
	"math"
	"slices"
)

// quartiles returns the first quartile, median and third quartile of
// xs by the "exclusive" rule of Python's statistics.quantiles(n=4), so
// spreads printed here match the ones Python computes from the
// same values. Fewer than two values have no spread: all three are the
// value itself (0 for none).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median is the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// relIQR is the distance between the quartiles of xs as a share of
// their median: the run-to-run spread every bound is judged against.
func relIQR(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailPercentiles are the candidates tailPercentile picks from, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 50}

// tailPercentile returns the highest percentile of xs that still has at
// least ten samples beyond it, and its nearest-rank value: a tail
// estimate that is never read off a handful of outliers. ok is false
// when xs is too small for even the median to qualify.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	for _, p := range tailPercentiles {
		idx := int(math.Ceil(p/100*float64(n))) - 1
		if idx < 0 {
			continue
		}
		if n-1-idx >= 10 {
			return p, s[idx], true
		}
	}
	return 0, 0, false
}

// metricSpec is one metric of BENCHMARK.json: its unit, the direction
// that counts as better, and the share of the baseline's value by
// which it may worsen before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// regressed reports whether cur is worse than base by more than the
// metric's bound, in the metric's own direction. A metric pinned at
// zero (failures, misses) regresses on any movement the wrong way,
// which no ratio of the baseline can express.
func regressed(m metricSpec, base, cur float64) bool {
	worse := cur - base
	if m.Better == "higher" {
		worse = -worse
	}
	if worse <= 0 {
		return false
	}
	if base == 0 {
		return true
	}
	return worse > m.Bound*math.Abs(base)
}
