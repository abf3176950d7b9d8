package campaign

import (
	"fmt"
	"sort"
	"strings"
)

// Percentiles summarizes one metric over a run population.
type Percentiles struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// percentiles computes the summary with nearest-rank percentiles,
// sorting vals in place. Empty input returns the zero value.
func percentiles(vals []float64) Percentiles {
	if len(vals) == 0 {
		return Percentiles{}
	}
	s := vals
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	rank := func(p float64) float64 {
		i := int(p*float64(len(s))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	return Percentiles{
		Mean: sum / float64(len(s)),
		P50:  rank(0.50),
		P90:  rank(0.90),
		P99:  rank(0.99),
		Max:  s[len(s)-1],
	}
}

// Aggregate is the reduction of one point's run population: the
// campaign-level reading of the paper's per-figure outcomes.
type Aggregate struct {
	Point    string `json:"point"`
	Scenario string `json:"scenario"`
	// Faults names the point's injected fault plan (empty when
	// fault-free); FailoverRate doubles as the fault's detection rate.
	Faults string `json:"faults,omitempty"`
	Runs   int    `json:"runs"`
	Errors int    `json:"errors,omitempty"`
	// Panics counts the quarantined subset of Errors — runs whose
	// execution panicked and was recovered at the worker's crash
	// boundary. Retried counts transient re-executions that preceded
	// the point's final run outcomes (healthy or failed).
	Panics  int `json:"panics,omitempty"`
	Retried int `json:"retried_runs,omitempty"`

	Crashes   int     `json:"crashes"`
	CrashRate float64 `json:"crash_rate"`

	Failovers    int     `json:"failovers"`
	FailoverRate float64 `json:"failover_rate"`
	// RuleCounts tallies which security rule fired the failover.
	RuleCounts map[string]int `json:"rule_counts,omitempty"`

	// SwitchS summarizes the Simplex switch time (s) over failover
	// runs only.
	SwitchS Percentiles `json:"switch_s"`
	// MissRate summarizes the worst flight-critical deadline-miss
	// rate per run.
	MissRate Percentiles `json:"miss_rate"`
	// RMSError and MaxDeviation summarize whole-flight tracking (m).
	RMSError     Percentiles `json:"rms_error_m"`
	MaxDeviation Percentiles `json:"max_deviation_m"`
}

// pointAgg is one point's running fold: the Aggregate's identity and
// outcome counts, plus the raw metric populations the percentile
// reduction needs. Run's emitter folds every record into its point's
// pointAgg in index order and reduces each fold once, after the pool
// drains.
type pointAgg struct {
	Aggregate
	switchS   []float64
	missRates []float64
	rms       []float64
	maxDev    []float64
}

// add folds one run's record into the point's aggregate.
func (a *pointAgg) add(r *Record) {
	a.Runs++
	if r.Faults != "" {
		a.Faults = r.Faults
	}
	a.Retried += r.Retries
	if r.Err != "" {
		a.Errors++
		if r.Panicked {
			a.Panics++
		}
		return
	}
	if r.Crashed {
		a.Crashes++
	}
	if r.Switched {
		a.Failovers++
		if a.RuleCounts == nil {
			a.RuleCounts = make(map[string]int)
		}
		a.RuleCounts[r.Rule]++
		a.switchS = append(a.switchS, r.SwitchS)
	}
	a.missRates = append(a.missRates, r.MissRate)
	a.rms = append(a.rms, r.RMSError)
	a.maxDev = append(a.maxDev, r.MaxDeviation)
}

// reduce turns the fold into the point's Aggregate: rates over the
// runs that did not error, and percentiles over each population
// (sorted in place).
func (a *pointAgg) reduce() Aggregate {
	agg := a.Aggregate
	if ok := agg.Runs - agg.Errors; ok > 0 {
		agg.CrashRate = float64(agg.Crashes) / float64(ok)
		agg.FailoverRate = float64(agg.Failovers) / float64(ok)
	}
	agg.SwitchS = percentiles(a.switchS)
	agg.MissRate = percentiles(a.missRates)
	agg.RMSError = percentiles(a.rms)
	agg.MaxDeviation = percentiles(a.maxDev)
	return agg
}

// Table renders aggregates as an aligned text table for terminals.
func Table(aggs []Aggregate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %5s %7s %9s %10s %10s %10s %10s\n",
		"point", "runs", "crash", "failover", "switch-p50", "switch-p99", "miss-p99", "maxdev-p99")
	for _, a := range aggs {
		failover := "-"
		if a.Failovers > 0 {
			failover = fmt.Sprintf("%.0f%%", a.FailoverRate*100)
		}
		sw50, sw99 := "-", "-"
		if a.Failovers > 0 {
			sw50 = fmt.Sprintf("%.2fs", a.SwitchS.P50)
			sw99 = fmt.Sprintf("%.2fs", a.SwitchS.P99)
		}
		fmt.Fprintf(&b, "%-44s %5d %6.0f%% %9s %10s %10s %9.2f%% %9.2fm\n",
			a.Point, a.Runs, a.CrashRate*100, failover, sw50, sw99,
			a.MissRate.P99*100, a.MaxDeviation.P99)
		if a.Errors > 0 {
			fmt.Fprintf(&b, "%-44s %d runs errored\n", "", a.Errors)
		}
	}
	return b.String()
}
