package containerdrone

import (
	"context"
	"errors"
	"time"

	"containerdrone/internal/core"
	"containerdrone/internal/monitor"
	"containerdrone/internal/telemetry"
)

// TicksPerSecond is the deterministic kernel's base tick rate: the
// engine advances simulated time in fixed 100 µs steps (10 kHz).
// Tools that convert simulated durations to engine ticks (perfbench's
// ticks_per_s metric) multiply seconds by this constant.
const TicksPerSecond = 10_000

// Sim is one buildable, runnable scenario instance. Build it with New
// or NewFromConfig, optionally attach observers, then call Run
// exactly once. A run is deterministic: the simulation loop runs on
// the goroutine that calls Run, and when the process has a spare P
// (GOMAXPROCS of 2 or more, not taken by other flights) the airframe
// integrates on one helper goroutine that flies ahead of the loop up
// to the next possible actuator write and meets it at the
// sensor/actuator boundary, so results and observer callbacks are
// byte-identical either way. Distinct Sims share no mutable state, so
// concurrent New(...).Run(...) calls are safe.
type Sim struct {
	cfg       Config
	sys       *core.System
	observers []Observer
	ran       bool
}

// New builds a scenario from the registry with functional options:
//
//	sim, err := containerdrone.New("udpflood",
//	    containerdrone.WithSeed(7),
//	    containerdrone.WithDuration(20*time.Second),
//	    containerdrone.WithParam("iptables.rate", 4000))
//
// Configuration errors (unknown scenario, bad parameter key, invalid
// attack kind) surface here, not at Run.
func New(scenario string, opts ...Option) (*Sim, error) {
	return NewFromConfig(Config{Scenario: scenario}, opts...)
}

// NewFromConfig builds a scenario from a serialized Config — the
// remote-worker entry point: decode a Config from JSON and run it.
// Options apply on top of the decoded request.
func NewFromConfig(cfg Config, opts ...Option) (*Sim, error) {
	setup := simSetup{cfg: cfg}
	for _, opt := range opts {
		opt(&setup)
	}
	coreCfg, err := setup.cfg.build()
	if err != nil {
		return nil, err
	}
	setup.cfg.SchemaVersion = SchemaVersion
	sys, err := core.New(coreCfg)
	if err != nil {
		return nil, err
	}
	return &Sim{cfg: setup.cfg, sys: sys, observers: setup.observers}, nil
}

// Config returns the serializable run request. Ship it to a remote
// worker and NewFromConfig reconstructs an identical run.
func (s *Sim) Config() Config { return s.cfg }

// Observe attaches observers to the run (same effect as the
// WithObserver option). Must be called before Run.
func (s *Sim) Observe(obs ...Observer) { s.observers = append(s.observers, obs...) }

// Run executes the scenario to completion or until the context is
// done, streaming progress to any attached observers. On cancellation
// it returns the partial Result accumulated so far (marked Canceled)
// together with the context's error; otherwise the error is nil. Run
// may be called at most once per Sim.
func (s *Sim) Run(ctx context.Context) (*Result, error) {
	if s.ran {
		return nil, errors.New("containerdrone: Sim.Run called twice; build a new Sim per run")
	}
	s.ran = true
	if len(s.observers) > 0 {
		obs := s.observers
		s.sys.Hooks = core.Hooks{
			OnSample: func(now time.Duration, sample telemetry.Sample) {
				ps := fromSample(sample)
				for _, o := range obs {
					o.OnTick(now, ps)
				}
			},
			OnViolation: func(v monitor.Violation) {
				pv := fromViolation(v)
				for _, o := range obs {
					o.OnViolation(pv)
				}
			},
			OnSwitch: func(now time.Duration, rule monitor.Rule) {
				for _, o := range obs {
					o.OnSwitch(now, string(rule))
				}
			},
			OnCrash: func(at time.Duration) {
				for _, o := range obs {
					o.OnCrash(at)
				}
			},
		}
	}
	res, err := s.sys.RunContext(ctx)
	pub := fromResult(s.cfg, res)
	if err != nil {
		pub.Canceled = true
		return pub, err
	}
	return pub, nil
}

// ScenarioInfo describes one registered scenario.
type ScenarioInfo struct {
	Name string `json:"name"`
	Desc string `json:"desc"`
}

// Scenarios lists every registered scenario sorted by name.
func Scenarios() []ScenarioInfo {
	var out []ScenarioInfo
	for _, s := range core.Scenarios() {
		out = append(out, ScenarioInfo{Name: s.Name, Desc: s.Desc})
	}
	return out
}

// ParamInfo describes one sweepable parameter key.
type ParamInfo struct {
	Key  string `json:"key"`
	Desc string `json:"desc"`
}

// ParamInfos lists every parameter key accepted by WithParam, Config
// Params, and campaign sweeps, sorted by key.
func ParamInfos() []ParamInfo {
	var out []ParamInfo
	for _, k := range core.ParamKeys() {
		out = append(out, ParamInfo{Key: k, Desc: core.ParamDesc(k)})
	}
	return out
}
