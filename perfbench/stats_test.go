package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python: statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{4, 3, 2, 1}, 1.25, 2.5, 3.75},
		{[]float64{10, 20}, 7.5, 15, 22.5}, // extrapolated, as Python does
		{[]float64{2.5, 9, 1, 7, 3, 8, 4, 6, 5, 10}, 2.875, 5.5, 8.25},
		{[]float64{7}, 7, 7, 7},
		{nil, 0, 0, 0},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := relIQR([]float64{5, 1, 4, 2, 3}); got != 1 {
		t.Errorf("relIQR = %v, want (4.5-1.5)/3 = 1", got)
	}
	if got := relIQR([]float64{0, 0}); got != 0 {
		t.Errorf("relIQR of zeros = %v, want 0", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the function must sort
		}
		return xs
	}
	for _, c := range []struct {
		n        int
		pct, val float64
		ok       bool
	}{
		{1000, 99, 990, true}, // p99.9 has one sample beyond
		{100, 90, 90, true},   // p95 has five beyond, p90 ten
		{200, 95, 190, true},
		{21, 50, 11, true},
		{15, 0, 0, false}, // even the median has only seven beyond
	} {
		pct, val, ok := tailPercentile(seq(c.n))
		if pct != c.pct || val != c.val || ok != c.ok {
			t.Errorf("n=%d: tailPercentile = (%v, %v, %v), want (%v, %v, %v)", c.n, pct, val, ok, c.pct, c.val, c.ok)
		}
	}
}

func TestRegressedGate(t *testing.T) {
	lower := metricSpec{Name: "op_ms_p50", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	pinned := metricSpec{Name: "failed_frac", Better: "lower"}
	for _, c := range []struct {
		m         metricSpec
		base, cur float64
		want      bool
	}{
		{lower, 100, 109, false},
		{lower, 100, 111, true},
		{lower, 100, 50, false}, // better is never a regression
		{higher, 100, 91, false},
		{higher, 100, 89, true},
		{higher, 100, 200, false},
		{pinned, 0, 0, false},
		{pinned, 0, 0.001, true}, // a zero-pinned count regresses on any rise
		{pinned, 0.5, 0, false},
		{metricSpec{Better: "higher"}, 0, -1, true},
	} {
		if got := regressed(c.m, c.base, c.cur); got != c.want {
			t.Errorf("regressed(%s %s bound %v, %v -> %v) = %v, want %v",
				c.m.Name, c.m.Better, c.m.Bound, c.base, c.cur, got, c.want)
		}
	}
}

func TestDeriveSeedsStableAndNonZero(t *testing.T) {
	a, b := deriveSeeds(1), deriveSeeds(1)
	seen := map[uint64]bool{}
	for i := range a {
		if a[i] != b[i] || a[i] == 0 {
			t.Fatalf("deriveSeeds(1) = %v then %v", a, b)
		}
		seen[a[i]] = true
	}
	if len(seen) != seedCycle {
		t.Errorf("deriveSeeds(1) = %v: want %d distinct seeds", a, seedCycle)
	}
	if c := deriveSeeds(2); c[0] == a[0] {
		t.Errorf("seeds 1 and 2 derive the same first seed %d", a[0])
	}
}

func TestCoveredUnionsOverlappingChildren(t *testing.T) {
	parent := span{ID: 1, StartNS: 0, EndNS: 100}
	kids := []span{
		{Parent: 1, StartNS: 50, EndNS: 70},
		{Parent: 1, StartNS: 10, EndNS: 30},
		{Parent: 1, StartNS: 20, EndNS: 40},  // overlaps the one before
		{Parent: 1, StartNS: 90, EndNS: 120}, // runs past the parent
	}
	if got := covered(parent, kids); got != 60 {
		t.Errorf("covered = %d, want 30 + 20 + 10 = 60", got)
	}
	stats := summarize(append(kids, parent, span{ID: 2, Name: "x", StartNS: 0, EndNS: 10}))
	if st := stats[""]; st.Count != 5 {
		t.Errorf("unnamed spans counted %d, want 5", st.Count)
	}
	if st := stats["x"]; st.Count != 1 || st.MedianNS != 10 || st.SelfMedianNS != 10 {
		t.Errorf("stats[x] = %+v", st)
	}
	if math.IsNaN(stats[""].SelfMedianNS) {
		t.Error("self time is NaN")
	}
}
