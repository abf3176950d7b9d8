// Package containerdrone is the public SDK of a deterministic,
// pure-Go reproduction of "A Container-based DoS Attack-Resilient
// Control Framework for Real-Time UAV Systems" (Chen, Feng, Wen, Liu,
// Sha — DATE 2019).
//
// The framework's Simplex architecture protects a quadcopter's host
// control environment (safety controller + security monitor) from DoS
// attacks launched inside a Docker-style container control
// environment along three resource axes: CPU (cgroup cpuset and FIFO
// priority caps), memory bandwidth (a MemGuard reimplementation on a
// shared-DRAM model), and the communication channel (sandboxed
// namespace, iptables rate limiting, and two security rules that
// trigger failover to the safety controller). Everything — quadrotor
// physics, sensors, MAVLink framing, a four-core FIFO scheduler, the
// DRAM bus, the UDP bridge — runs as one deterministic co-simulation:
// a run is a pure function of (Config, seed).
//
// # Running a scenario
//
// Build a Sim from a registered scenario with functional options,
// then run it under a context:
//
//	sim, err := containerdrone.New("udpflood",
//	    containerdrone.WithSeed(7),
//	    containerdrone.WithDuration(20*time.Second),
//	    containerdrone.WithParam("iptables.rate", 4000))
//	if err != nil { ... }
//	res, err := sim.Run(ctx)
//	fmt.Print(res.Summary())
//
// Scenarios lists the registry ("baseline", "memdos", "kill",
// "udpflood", mission and ablation variants, ...); ParamInfos lists
// the named overrides accepted by WithParam and campaign sweeps.
// WithAttack and WithMission replace a scenario's attack plan or
// waypoint sequence wholesale.
//
// # Observing a run live
//
// Attach an Observer to stream the flight as it simulates — the
// integration point for dashboards and ground-control links:
//
//	sim, _ := containerdrone.New("udpflood",
//	    containerdrone.WithObserver(containerdrone.ObserverFuncs{
//	        Tick:   func(now time.Duration, s containerdrone.Sample) { ... },
//	        Switch: func(now time.Duration, rule string) { ... },
//	    }))
//
// Callbacks fire synchronously in simulated-time order: OnTick at the
// telemetry rate, OnViolation before the switch it causes, OnSwitch
// and OnCrash at most once. Cancel the context passed to Run to stop
// a flight early; Run then returns the partial Result.
//
// # Serializable schemas
//
// Config, Result, and the campaign Record/CampaignResult types are
// versioned (SchemaVersion) and JSON-round-trippable with stable
// field names: a Config can be dispatched to a remote worker and
// rebuilt with NewFromConfig; a Result decoded from JSON renders the
// same summaries, sparklines, plots, and CSVs as one produced
// locally. Sweep, Record, Aggregate, Percentiles and CampaignStats are
// aliases of the campaign engine's types: the SDK hands the engine's
// records and aggregates to the caller as they are, and their JSON is
// the engine's.
//
// # Campaigns
//
// NewCampaign runs Monte-Carlo populations over the registry — N
// seeds × the cartesian grid of parameter sweeps on a worker pool,
// reduced to crash/failover rates and switch-time/deadline-miss
// percentiles per point:
//
//	c := containerdrone.NewCampaign("udpflood",
//	    containerdrone.WithRuns(16),
//	    containerdrone.WithSweep("attack.rate", 2000, 8000, 32000))
//	cres, err := c.Run(ctx)
//	fmt.Print(cres.Summary())
//
// Campaigns are deterministic: a campaign is a pure function of its
// options, independent of worker count and scheduling.
//
// # Consumers
//
//   - cmd/containerdrone: CLI scenario/campaign runner
//   - cmd/experiments: regenerates every table and figure of the paper
//   - cmd/rtanalysis: schedulability analysis (Sim.Schedulability)
//   - gcs: ground-control-station UDP link for live telemetry
//   - examples/: quickstart, memdos, udpflood, failover, mission,
//     campaign, gcslive — each a complete SDK program
//
// All of them use only this package (and gcs); the internal/
// packages underneath are free to change between releases.
//
// Root-level benchmarks (bench_test.go) regenerate each table and
// figure; see EXPERIMENTS.md for the paper-vs-measured record.
package containerdrone
