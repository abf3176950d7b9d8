// Command experiments regenerates every table and figure of the paper
// from the simulation through the public SDK, printing paper-style
// rows and optionally writing per-figure trajectory CSVs. The
// per-figure flags are thin aliases for scenario-registry names, and
// -scenario prints the same figure-style report for any registered
// scenario (containerdrone -scenario list names them; containerdrone
// also runs campaigns).
//
//	experiments -all
//	experiments -table1 -table2
//	experiments -fig4 -fig5 -csv-dir results/
//	experiments -scenario mission-kill
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"containerdrone"
	"containerdrone/cliutil"
)

// figures maps the paper's per-figure flags onto registry scenarios.
var figures = []struct {
	flagName string
	scenario string
	title    string
	help     string
}{
	{"fig4", "memdos-unguarded", "Fig 4: memory DoS, MemGuard OFF — expect crash shortly after 10s",
		"Fig 4: memory DoS without MemGuard"},
	{"fig5", "memdos", "Fig 5: memory DoS, MemGuard ON — expect oscillation but stable",
		"Fig 5: memory DoS with MemGuard"},
	{"fig6", "kill", "Fig 6: complex controller killed at 12s — expect interval-rule failover",
		"Fig 6: complex controller killed"},
	{"fig7", "udpflood", "Fig 7: UDP flood at 8s — expect attitude-rule failover and recovery",
		"Fig 7: UDP DoS attack"},
}

func main() {
	var (
		all    = flag.Bool("all", false, "run everything")
		table1 = flag.Bool("table1", false, "Table I: HCE↔CCE data streams")
		table2 = flag.Bool("table2", false, "Table II: system overhead comparison")
		csvDir = flag.String("csv-dir", "", "write per-figure trajectory CSVs into this directory")

		faults   = flag.Bool("faults", false, "fault matrix: run every fault scenario (monitored and unmonitored) and tabulate detection/outcome")
		swarm    = flag.Bool("swarm", false, "swarm matrix: run every multi-drone scenario and tabulate per-member detection/outcome")
		scenario = flag.String("scenario", "", "fly one registered scenario (containerdrone -scenario list names them)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		duration = flag.Duration("duration", 0, "-scenario: flight length override (default: scenario preset)")
	)
	figFlags := make([]*bool, len(figures))
	for i, f := range figures {
		figFlags[i] = flag.Bool(f.flagName, false, f.help)
	}
	flag.Parse()
	// The tables and matrices fly fixed lengths and the figures their
	// presets, so a -duration meant for them would be silently dropped.
	if *duration != 0 && *scenario == "" {
		fmt.Fprintln(os.Stderr, "-duration applies only to -scenario")
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the in-flight simulation; completed rows
	// stay on stdout and the interrupted figure still flushes its
	// partial trajectory before the process exits non-zero.
	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()
	if *scenario != "" {
		anyTableOrFig := *all || *table1 || *table2 || *faults || *swarm
		for i := range figFlags {
			anyTableOrFig = anyTableOrFig || *figFlags[i]
		}
		if anyTableOrFig {
			fmt.Fprintln(os.Stderr, "-scenario cannot be combined with -all/-table*/-fig*/-faults/-swarm (run them separately)")
			os.Exit(2)
		}
		runScenario(ctx, *scenario, *seed, *duration, *csvDir)
		return
	}
	if *all {
		*table1, *table2, *faults, *swarm = true, true, true, true
		for i := range figFlags {
			*figFlags[i] = true
		}
	}
	anyFig := false
	for i := range figFlags {
		anyFig = anyFig || *figFlags[i]
	}
	if !(*table1 || *table2 || anyFig || *faults || *swarm) {
		flag.Usage()
		os.Exit(2)
	}
	if *table1 {
		runTable1(ctx)
	}
	if *table2 {
		runTable2()
	}
	for i, f := range figures {
		if *figFlags[i] {
			runFigure(ctx, f.title, f.flagName, f.scenario, *seed, 0, *csvDir)
		}
	}
	if *faults {
		runFaultMatrix(ctx, *seed)
	}
	if *swarm {
		runSwarmMatrix(ctx, *seed)
	}
}

// runFaultMatrix tabulates every fault scenario the registry carries:
// detection rule and latency with the monitor armed, outcome with and
// without it — the fault-injection extension of the paper's Figs 4–7.
func runFaultMatrix(ctx context.Context, seed uint64) {
	fmt.Println("FAULT MATRIX — fault scenarios beyond the paper's threat model")
	fmt.Printf("  %-14s %-20s %-9s %-22s %s\n",
		"fault", "detected by", "latency", "monitored outcome", "unmonitored outcome")
	// Fault kinds double as the monitored scenario names by
	// construction, so a new kind appears here without a code change.
	for _, kind := range containerdrone.FaultKinds() {
		mon := runQuiet(ctx, kind, seed)
		detected, latency := "-", "-"
		if mon.Switched {
			detected = mon.SwitchRule
			var start float64
			if len(mon.Faults) > 0 {
				start = mon.Faults[0].StartS
			}
			latency = fmt.Sprintf("%.0fms", (mon.SwitchS-start)*1e3)
		}
		unmonitored := "(no unmonitored variant)"
		if scenarioExists(kind + "-unmonitored") {
			unmonitored = outcome(runQuiet(ctx, kind+"-unmonitored", seed))
		}
		fmt.Printf("  %-14s %-20s %-9s %-22s %s\n",
			kind, detected, latency, outcome(mon), unmonitored)
	}
	fmt.Println()
}

// runSwarmMatrix tabulates the multi-drone scenarios: which member an
// attack or fault strikes, which member's monitor catches it, and how
// the rest of the formation fares — the fleet extension of the fault
// matrix. Per-member columns come from Result.Members, so the table
// shows where in the fleet an event landed, not just that it landed.
func runSwarmMatrix(ctx context.Context, seed uint64) {
	fmt.Println("SWARM MATRIX — 3-drone formations on one shared fabric")
	fmt.Printf("  %-30s %-10s %-20s %-9s %s\n",
		"scenario", "detected", "by rule", "latency", "per-member outcome")
	for _, name := range []string{
		"swarm-baseline", "swarm-mission", "fleet-split",
		"swarm-peer-flood", "swarm-cross-replay",
		"swarm-cross-replay-unmonitored", "swarm-compromised",
	} {
		res := runQuiet(ctx, name, seed)
		detected, rule, latency := "-", "-", "-"
		for _, m := range res.Members {
			if !m.Switched {
				continue
			}
			detected, rule = fmt.Sprintf("member %d", m.Member), m.SwitchRule
			var start float64
			if res.Attack.Active() {
				start = res.Attack.StartS
			} else if len(res.Faults) > 0 {
				start = res.Faults[0].StartS
			}
			latency = fmt.Sprintf("%.0fms", (m.SwitchS-start)*1e3)
			break
		}
		var members []string
		for _, m := range res.Members {
			state := "ok"
			switch {
			case m.Crashed:
				state = fmt.Sprintf("CRASH@%.1fs", m.CrashS)
			case m.Switched:
				state = "switched"
			}
			members = append(members, fmt.Sprintf("%d:%s", m.Member, state))
		}
		fmt.Printf("  %-30s %-10s %-20s %-9s %s\n",
			name, detected, rule, latency, strings.Join(members, " "))
	}
	fmt.Println()
}

func scenarioExists(name string) bool {
	for _, s := range containerdrone.Scenarios() {
		if s.Name == name {
			return true
		}
	}
	return false
}

func outcome(r *containerdrone.Result) string {
	if r.Crashed {
		return fmt.Sprintf("CRASH at %.1fs", r.CrashS)
	}
	return fmt.Sprintf("max dev %.2fm", r.Metrics.MaxDeviationM)
}

func runQuiet(ctx context.Context, scenario string, seed uint64) *containerdrone.Result {
	sim, err := containerdrone.New(scenario, containerdrone.WithSeed(seed))
	if err != nil {
		fatal(err)
	}
	// An interrupted matrix row would tabulate misleading numbers, so
	// cancellation exits here; rows already printed stay flushed.
	res, err := sim.Run(ctx)
	if err != nil {
		fatal(err)
	}
	return res
}

// runScenario flies one registered scenario and prints its
// figure-style report, titled with the scenario's description.
func runScenario(ctx context.Context, name string, seed uint64, duration time.Duration, csvDir string) {
	title := name
	for _, s := range containerdrone.Scenarios() {
		if s.Name == name {
			title = s.Desc
		}
	}
	runFigure(ctx, title, name, name, seed, duration, csvDir)
}

func runTable1(ctx context.Context) {
	fmt.Println("TABLE I — data transfer between the control environments (10 s measurement)")
	sim, err := containerdrone.New("baseline", containerdrone.WithDuration(10*time.Second))
	if err != nil {
		fatal(err)
	}
	res, err := sim.Run(ctx)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  %-14s %-10s %8s %8s %6s %10s\n", "Component", "Direction", "Rate", "Size", "Port", "Measured")
	dir := map[string]string{
		"IMU": "HCE→CCE", "Barometer": "HCE→CCE", "GPS": "HCE→CCE",
		"RC": "HCE→CCE", "Motor Output": "CCE→HCE",
	}
	for _, st := range res.Streams {
		rate := float64(st.Packets) / res.DurationS
		fmt.Printf("  %-14s %-10s %6.0fHz %6dB  %5d %7.1f Hz\n",
			st.Name, dir[st.Name], rate, st.FrameSizeB, st.Port, rate)
	}
	fmt.Println()
}

func runTable2() {
	fmt.Println("TABLE II — system overhead comparison (CPU idle rates, 30 s)")
	rows, err := containerdrone.Overhead(30 * time.Second)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  %-24s %6s %6s %6s %6s\n", "Case", "CPU0", "CPU1", "CPU2", "CPU3")
	for _, row := range rows {
		fmt.Printf("  %-24s %6.2f %6.2f %6.2f %6.2f\n", row.Case,
			row.IdleRates[0], row.IdleRates[1], row.IdleRates[2], row.IdleRates[3])
	}
	fmt.Println("  paper:  native 0.95/0.99/0.99/0.99   VM 0.86/0.83/0.81/0.77   container 0.95/0.99/0.99/0.98")
	fmt.Println()
}

func runFigure(ctx context.Context, title, name, scenario string, seed uint64, duration time.Duration, csvDir string) {
	fmt.Println(title)
	opts := []containerdrone.Option{containerdrone.WithSeed(seed)}
	if duration > 0 {
		opts = append(opts, containerdrone.WithDuration(duration))
	}
	sim, err := containerdrone.New(scenario, opts...)
	if err != nil {
		fatal(err)
	}
	res, runErr := sim.Run(ctx)
	if res == nil {
		fatal(runErr)
	}
	fmt.Print(indent(res.Summary()))
	// Per-axis plots in the layout of the paper's figures: estimated
	// position ('*') against the setpoint ('-', '#' where they meet).
	for _, ax := range []containerdrone.Axis{containerdrone.AxisX, containerdrone.AxisY, containerdrone.AxisZ} {
		fmt.Printf("    %s (m):\n", ax)
		fmt.Print(indent(indent(res.Plot(ax, 64, 8))))
	}
	for _, ev := range res.Trace {
		fmt.Println("   ", ev)
	}
	// Per-phase tracking table (the quantitative reading of the plot).
	fmt.Printf("    %-18s %10s %10s\n", "window", "RMS err", "max dev")
	attackStart := res.AttackStart()
	for _, w := range []struct {
		label    string
		from, to time.Duration
	}{
		{"pre-attack", 2 * time.Second, attackStart},
		{"attack→end", attackStart, res.Duration()},
	} {
		if w.to <= w.from {
			continue
		}
		m := res.WindowMetrics(w.from, w.to)
		fmt.Printf("    %-18s %9.3fm %9.3fm\n", w.label, m.RMSErrorM, m.MaxDeviationM)
	}
	// Scheduling outcome of the flight-critical tasks (quantifies the
	// resource-DoS figures: misses and latency inflation).
	fmt.Printf("    %-16s %8s %8s %9s %10s %10s\n",
		"task", "released", "missed", "miss-rate", "avg-lat", "max-lat")
	for _, tr := range res.Tasks {
		if tr.Released == 0 {
			continue
		}
		fmt.Printf("    %-16s %8d %8d %8.1f%% %10v %10v\n",
			tr.Name, tr.Released, tr.Missed, tr.MissRate*100, tr.AvgLatency(), tr.MaxLatency())
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(csvDir, name+".csv")
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := res.WriteTrajectoryCSV(f); err != nil {
			f.Close()
			fatal(err)
		}
		f.Close()
		fmt.Printf("    trajectory → %s\n", path)
	}
	fmt.Println()
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "interrupted: %v — partial flight flushed (%d samples)\n",
			runErr, len(res.Samples))
		os.Exit(1)
	}
}

func indent(s string) string {
	out := ""
	for _, line := range strings.Split(strings.TrimSuffix(s, "\n"), "\n") {
		out += "  " + line + "\n"
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
