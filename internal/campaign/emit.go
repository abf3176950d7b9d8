package campaign

import (
	"encoding/csv"
	"io"
	"strconv"
)

// recordsHeader is the stable records-CSV column set; downstream
// plotting scripts key on it.
var recordsHeader = []string{
	"point", "scenario", "faults", "run", "seed",
	"crashed", "crash_s", "switched", "switch_s", "rule",
	"rms_error_m", "max_deviation_m", "miss_rate", "err",
	"panicked", "retries",
}

// recordRow renders one record in recordsHeader order. The recovered
// panic's stack stays JSON-only — multiline goroutine dumps with
// addresses don't belong in a CSV cell.
func recordRow(r *Record) []string {
	return []string{
		r.Point, r.Scenario, r.Faults,
		strconv.Itoa(r.Run), strconv.FormatUint(r.Seed, 10),
		strconv.FormatBool(r.Crashed), f(r.CrashS),
		strconv.FormatBool(r.Switched), f(r.SwitchS), r.Rule,
		f(r.RMSError), f(r.MaxDeviation), f(r.MissRate), r.Err,
		strconv.FormatBool(r.Panicked), strconv.Itoa(r.Retries),
	}
}

// WriteRecordsCSV emits one row per run, in record (index) order.
func WriteRecordsCSV(w io.Writer, records []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(recordsHeader); err != nil {
		return err
	}
	for i := range records {
		if err := cw.Write(recordRow(&records[i])); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteAggregatesCSV emits one row per point.
func WriteAggregatesCSV(w io.Writer, aggs []Aggregate) error {
	cw := csv.NewWriter(w)
	header := []string{
		"point", "scenario", "faults", "runs", "errors",
		"crash_rate", "failover_rate",
		"switch_s_p50", "switch_s_p90", "switch_s_p99", "switch_s_max",
		"miss_rate_p50", "miss_rate_p90", "miss_rate_p99", "miss_rate_max",
		"rms_error_m_mean", "max_deviation_m_p99",
		"panics", "retried",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, a := range aggs {
		row := []string{
			a.Point, a.Scenario, a.Faults, strconv.Itoa(a.Runs), strconv.Itoa(a.Errors),
			f(a.CrashRate), f(a.FailoverRate),
			f(a.SwitchS.P50), f(a.SwitchS.P90), f(a.SwitchS.P99), f(a.SwitchS.Max),
			f(a.MissRate.P50), f(a.MissRate.P90), f(a.MissRate.P99), f(a.MissRate.Max),
			f(a.RMSError.Mean), f(a.MaxDeviation.P99),
			strconv.Itoa(a.Panics), strconv.Itoa(a.Retried),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// NewRecordStreamer writes the records-CSV header to w immediately
// and returns a Spec.Stream callback that appends one flushed row per
// completed run — live campaign output for `tail -f` style consumers.
// Rows arrive in index order (point-major, then run), the order the
// post-hoc WriteRecordsCSV emits them in, so the two files are
// byte-identical.
//
// The stream callback cannot return an error (it runs on the
// campaign's emitter goroutine), so write failures are sticky: call
// the returned done function after the campaign finishes to flush and
// learn whether every row reached w — a full disk mid-campaign must
// not masquerade as a complete records file.
func NewRecordStreamer(w io.Writer) (stream func(Record), done func() error, err error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(recordsHeader); err != nil {
		return nil, nil, err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return nil, nil, err
	}
	var sticky error
	stream = func(r Record) {
		if sticky != nil {
			return
		}
		if err := cw.Write(recordRow(&r)); err != nil {
			sticky = err
			return
		}
		cw.Flush()
		sticky = cw.Error()
	}
	done = func() error {
		cw.Flush()
		if sticky != nil {
			return sticky
		}
		return cw.Error()
	}
	return stream, done, nil
}

// f formats a float compactly for CSV cells.
func f(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
