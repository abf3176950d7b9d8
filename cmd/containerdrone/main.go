// Command containerdrone runs ContainerDrone scenarios through the
// public SDK: one flight with full reporting, or a parallel
// Monte-Carlo campaign of N seeds × a parameter sweep grid.
//
// Single flights report the outcome the paper's Figs 4–7 read off a
// trajectory: Simplex switches, crash status, tracking metrics,
// per-axis sparklines, and optionally the trajectory CSV or a binary
// blackbox recording.
//
// Examples:
//
//	containerdrone -scenario list
//	containerdrone -scenario baseline
//	containerdrone -scenario memdos -set memguard.enabled=0 -csv fig4.csv
//	containerdrone -scenario udpflood -duration 30s
//	containerdrone -scenario kill -seed 7
//	containerdrone -scenario memdos -runs 32 -parallel 8
//	containerdrone -scenario udpflood -runs 16 -sweep attack.rate=2000,8000,32000 -agg-csv flood.csv
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"containerdrone"
	"containerdrone/cliutil"
)

func main() {
	var (
		scenario = flag.String("scenario", "baseline", "registered scenario name, or 'list' to enumerate")
		seed     = flag.Uint64("seed", 1, "simulation seed (campaigns derive per-run seeds from it)")
		duration = flag.Duration("duration", 0, "simulated flight length (default: scenario preset)")
		sets     cliutil.StringList
		sweeps   cliutil.StringList

		// Campaign mode.
		runs     = flag.Int("runs", 1, "seeds per sweep point; >1 (or any -sweep) switches to campaign mode")
		parallel = flag.Int("parallel", 0, "campaign workers (0 = GOMAXPROCS)")
		fork     = flag.Bool("fork", true, "campaign: share pre-onset prefixes across sweep variants via checkpoint forking")
		recCSV   = flag.String("records-csv", "", "campaign: per-run records CSV, streamed live in run order")
		aggCSV   = flag.String("agg-csv", "", "campaign: write per-point aggregate CSV to this path")
		jsonPath = flag.String("json", "", "campaign: write full report JSON to this path")

		csvPath = flag.String("csv", "", "single run: write trajectory CSV to this path")
		bbPath  = flag.String("blackbox", "", "single run: write binary flight recording to this path")
		replay  = flag.String("replay", "", "analyze an existing blackbox recording instead of flying")
		trace   = flag.Bool("trace", true, "single run: print the event trace")
	)
	flag.Var(&sets, "set", "parameter override key=value (repeatable; see -scenario list for keys)")
	flag.Var(&sweeps, "sweep", "campaign sweep key=v1,v2,... (repeatable; cartesian across flags)")
	flag.Parse()

	if *replay != "" {
		if err := replayBlackbox(*replay); err != nil {
			fatal(err)
		}
		return
	}
	if *scenario == "list" {
		listScenarios()
		return
	}

	// SIGINT/SIGTERM cancel the simulation context: the partial result
	// still flows back, so summaries and output files flush instead of
	// being lost. A second signal kills immediately.
	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()

	params := make(map[string]float64)
	for _, kv := range sets {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			fatal(fmt.Errorf("bad -set %q (want key=value)", kv))
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			fatal(fmt.Errorf("bad -set value %q: %v", kv, err))
		}
		params[strings.TrimSpace(key)] = v
	}

	parsed, err := cliutil.ParseSweeps(sweeps)
	if err != nil {
		fatal(err)
	}

	if *runs > 1 || len(parsed) > 0 {
		// Fail loudly on single-run-only flags instead of silently
		// producing no file.
		if *csvPath != "" || *bbPath != "" {
			fatal(fmt.Errorf("-csv and -blackbox are single-run flags; campaigns emit -records-csv/-agg-csv/-json"))
		}
		runCampaign(ctx, *scenario, params, parsed, *runs, *parallel, *seed, *duration,
			*fork, *recCSV, *aggCSV, *jsonPath)
		return
	}
	runSingle(ctx, *scenario, params, *seed, *duration, *csvPath, *bbPath, *trace)
}

func listScenarios() {
	fmt.Println("registered scenarios:")
	for _, s := range containerdrone.Scenarios() {
		fmt.Printf("  %-22s %s\n", s.Name, s.Desc)
	}
	fmt.Println("\nsweep/set parameter keys:")
	for _, p := range containerdrone.ParamInfos() {
		fmt.Printf("  %-22s %s\n", p.Key, p.Desc)
	}
}

func runCampaign(ctx context.Context, scenario string, params map[string]float64, sweeps []containerdrone.Sweep,
	runs, parallel int, seed uint64, duration time.Duration,
	fork bool, recCSV, aggCSV, jsonPath string) {
	if runs < 1 {
		runs = 1
	}
	opts := []containerdrone.CampaignOption{
		containerdrone.WithBaseParams(params),
		containerdrone.WithSweeps(sweeps...),
		containerdrone.WithRuns(runs),
		containerdrone.WithParallel(parallel),
		containerdrone.WithBaseSeed(seed),
		containerdrone.WithRunDuration(duration),
		containerdrone.WithPrefixSharing(fork),
	}
	// A refused campaign must leave every output file as it was.
	if err := containerdrone.NewCampaign(scenario, opts...).Validate(); err != nil {
		fatal(err)
	}
	// Records stream to disk as runs complete, off the workers' hot
	// path, so long campaigns are observable with tail -f. The stream
	// is the file's only writer: rows arrive in index order, and cells
	// a cancellation left unrun still stream their error records.
	var recDone func() error
	if recCSV != "" {
		f, err := os.Create(recCSV)
		if err != nil {
			fatal(err)
		}
		stream, done, err := containerdrone.StreamRecordsCSV(f)
		if err != nil {
			fatal(err)
		}
		recDone = func() error { return errors.Join(done(), f.Close()) }
		opts = append(opts, containerdrone.WithRecordObserver(stream))
		fmt.Printf("streaming records to %s\n", recCSV)
	}
	c := containerdrone.NewCampaign(scenario, opts...)
	res, runErr := c.Run(ctx)
	if res == nil {
		fatal(runErr)
	}
	if recDone != nil {
		if err := recDone(); err != nil {
			fatal(fmt.Errorf("records CSV %s is incomplete: %w", recCSV, err))
		}
	}
	fmt.Print(res.Summary())
	writeOut(aggCSV, res.WriteAggregatesCSV)
	writeOut(jsonPath, res.WriteJSON)
	if runErr != nil {
		done := 0
		for _, r := range res.Records {
			if r.Err == "" {
				done++
			}
		}
		fmt.Fprintf(os.Stderr, "campaign interrupted: %v — flushed partial results (%d/%d runs completed)\n",
			runErr, done, len(res.Records))
		os.Exit(1)
	}
}

func writeOut(path string, write func(io.Writer) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		f.Close()
		fatal(err)
	}
	// Close errors carry the last buffered write; ignoring them can
	// report success on a truncated file.
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func runSingle(ctx context.Context, scenario string, params map[string]float64, seed uint64,
	duration time.Duration, csvPath, bbPath string, trace bool) {
	opts := []containerdrone.Option{containerdrone.WithSeed(seed), containerdrone.WithParams(params)}
	if duration > 0 {
		opts = append(opts, containerdrone.WithDuration(duration))
	}
	sim, err := containerdrone.New(scenario, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	res, runErr := sim.Run(ctx)
	if res == nil {
		fatal(runErr)
	}

	fmt.Print(res.Summary())
	printSparklines(res, 72)
	if trace {
		for _, ev := range res.Trace {
			fmt.Println(" ", ev)
		}
	}
	if csvPath != "" {
		writeOut(csvPath, res.WriteTrajectoryCSV)
		fmt.Printf("trajectory: %d samples\n", len(res.Samples))
	}
	if bbPath != "" {
		writeOut(bbPath, res.WriteBlackbox)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "flight interrupted: %v — partial trajectory flushed (%d samples)\n",
			runErr, len(res.Samples))
		os.Exit(1)
	}
	if res.Crashed {
		os.Exit(3)
	}
}

func printSparklines(res *containerdrone.Result, width int) {
	for _, ax := range []containerdrone.Axis{containerdrone.AxisX, containerdrone.AxisY, containerdrone.AxisZ} {
		fmt.Printf("  %s %s\n", ax, res.Sparkline(ax, width))
	}
}

// replayBlackbox loads a recording and re-runs the analysis pipeline.
func replayBlackbox(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	res, err := containerdrone.ReadBlackbox(f)
	if err != nil {
		return err
	}
	fmt.Printf("blackbox %s: %d samples\n", path, len(res.Samples))
	if res.Crashed {
		fmt.Printf("  CRASHED at %.1fs\n", res.CrashS)
	}
	fmt.Printf("  RMS err %.3fm  max dev %.3fm  max tilt %.1f°\n",
		res.Metrics.RMSErrorM, res.Metrics.MaxDeviationM, res.Metrics.MaxTiltDeg())
	printSparklines(res, 72)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
