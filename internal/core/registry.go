package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"containerdrone/internal/attack"
	"containerdrone/internal/control"
	"containerdrone/internal/fault"
	"containerdrone/internal/monitor"
	"containerdrone/internal/physics"
)

// Options parameterize a registered scenario at build time. The zero
// value keeps every scenario default.
type Options struct {
	// Seed overrides the scenario's seed when non-zero.
	Seed uint64
	// Duration overrides the simulated flight length when non-zero.
	Duration time.Duration
	// Params are named numeric overrides applied to the built Config
	// in sorted key order (see ApplyParam for the key set). They are
	// the unit of campaign sweeps: any key can be swept over a value
	// list without a scenario knowing about it.
	Params map[string]float64
}

// BuildFunc constructs a scenario's default Config. Build applies the
// Options (Seed, Duration, Params) after the builder returns.
type BuildFunc func() Config

// Scenario is one registered, named experiment definition.
type Scenario struct {
	Name string
	Desc string
	// Build constructs the scenario Config; prefer core.Build, which
	// also applies the generic option/param overrides.
	Build BuildFunc
}

var (
	regMu    sync.RWMutex
	registry = map[string]Scenario{}
)

// Register adds a named scenario to the registry. It panics on a
// duplicate or empty name or a nil builder: scenario names are a
// global namespace wired at init time, and a collision is a
// programming error, exactly like a duplicate MAVLink message id.
func Register(name, desc string, build BuildFunc) {
	if name == "" || build == nil {
		panic("core: Register needs a name and a builder")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("core: duplicate scenario %q", name))
	}
	registry[name] = Scenario{Name: name, Desc: desc, Build: build}
}

// Scenarios lists every registered scenario sorted by name.
func Scenarios() []Scenario {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup returns the named scenario.
func Lookup(name string) (Scenario, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Build constructs the named scenario and applies the generic
// overrides: Seed and Duration when non-zero, then every Params entry
// in sorted key order (sorting makes the result independent of map
// iteration order, so equal options always give equal configs).
func Build(name string, opts Options) (Config, error) {
	s, ok := Lookup(name)
	if !ok {
		names := make([]string, 0)
		for _, sc := range Scenarios() {
			names = append(names, sc.Name)
		}
		return Config{}, fmt.Errorf("core: unknown scenario %q (registered: %v)", name, names)
	}
	cfg := s.Build()
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	if opts.Duration != 0 {
		cfg.Duration = opts.Duration
	}
	keys := make([]string, 0, len(opts.Params))
	for k := range opts.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := ApplyParam(&cfg, k, opts.Params[k]); err != nil {
			return Config{}, err
		}
	}
	return cfg, nil
}

// MustBuild is Build for statically known names; it panics on error.
func MustBuild(name string, opts Options) Config {
	cfg, err := Build(name, opts)
	if err != nil {
		panic(err)
	}
	return cfg
}

// paramSetters maps sweepable parameter keys to Config fields.
// Durations are expressed in seconds, rates in their native units,
// booleans as 0/1.
var paramSetters = map[string]struct {
	desc string
	set  func(*Config, float64)
}{
	"seed":     {"simulation seed", func(c *Config, v float64) { c.Seed = uint64(v) }},
	"duration": {"flight length (s)", func(c *Config, v float64) { c.Duration = seconds(v) }},

	"attack.start": {"attack start time (s)", func(c *Config, v float64) { c.Attack.Start = seconds(v) }},
	"attack.rate":  {"attack intensity (accesses/s or pkt/s)", func(c *Config, v float64) { c.Attack.Rate = v }},

	// Fault setters apply to every spec in the plan; single-fault
	// scenarios (all the presets) sweep exactly as expected.
	"fault.start": {"fault window start (s)", func(c *Config, v float64) {
		for i := range c.Faults.Specs {
			c.Faults.Specs[i].Start = seconds(v)
		}
	}},
	"fault.duration": {"fault window length (s, 0=to end of run)", func(c *Config, v float64) {
		for i := range c.Faults.Specs {
			c.Faults.Specs[i].Duration = seconds(v)
		}
	}},
	"fault.magnitude": {"fault severity (kind-specific; see internal/fault)", func(c *Config, v float64) {
		for i := range c.Faults.Specs {
			c.Faults.Specs[i].Magnitude = v
		}
	}},
	"fault.rate": {"fault intensity (kind-specific; see internal/fault)", func(c *Config, v float64) {
		for i := range c.Faults.Specs {
			c.Faults.Specs[i].Rate = v
		}
	}},

	"memguard.enabled": {"MemGuard on/off (1/0)", func(c *Config, v float64) { c.MemGuardEnabled = v != 0 }},
	"memguard.budget":  {"CCE bandwidth budget (accesses/s)", func(c *Config, v float64) { c.MemGuardBudget = v }},

	"iptables.rate":  {"motor-port packet rate limit (pkt/s, 0=off)", func(c *Config, v float64) { c.IPTablesRate = v }},
	"iptables.burst": {"motor-port burst allowance (pkts)", func(c *Config, v float64) { c.IPTablesBurst = v }},

	"bus.capacity": {"DRAM service rate (accesses/s)", func(c *Config, v float64) { c.BusCapacity = v }},

	"monitor.enabled":       {"security monitor on/off (1/0)", func(c *Config, v float64) { c.MonitorEnabled = v != 0 }},
	"monitor.max-interval":  {"receiving-interval threshold (s)", func(c *Config, v float64) { c.Rules.MaxInterval = seconds(v) }},
	"monitor.max-attitude":  {"attitude-error threshold (deg)", func(c *Config, v float64) { c.Rules.MaxAttitudeError = v * math.Pi / 180 }},
	"monitor.attitude-hold": {"attitude-error persistence (s)", func(c *Config, v float64) { c.Rules.AttitudeHold = seconds(v) }},
	"monitor.arm-delay":     {"monitor arming delay (s)", func(c *Config, v float64) { c.ArmDelay = seconds(v) }},

	"envelope.geofence": {"geofence radius (m, 0=off)", func(c *Config, v float64) { c.Envelope.GeofenceRadius = v }},
	"envelope.descent":  {"max descent rate (m/s, 0=off)", func(c *Config, v float64) { c.Envelope.MaxDescentRate = v }},
	"envelope.hold":     {"envelope persistence (s)", func(c *Config, v float64) { c.Envelope.Hold = seconds(v) }},

	"wind":           {"wind gusts on/off (1/0)", func(c *Config, v float64) { c.Wind = v != 0 }},
	"telemetry.rate": {"flight-log sampling rate (Hz)", func(c *Config, v float64) { c.TelemetryRate = v }},
	"manual-until":   {"manual-mode handoff time (s)", func(c *Config, v float64) { c.ManualUntil = seconds(v) }},

	"drones":        {"fleet size (1 = single drone)", func(c *Config, v float64) { c.Drones = int(v) }},
	"fleet.spacing": {"formation spacing between members (m)", func(c *Config, v float64) { c.FleetSpacing = v }},

	"attack.member": {"fleet member hosting the attack code", func(c *Config, v float64) { c.Attack.Member = int(v) }},
	"attack.target": {"fleet member a flood aims at", func(c *Config, v float64) { c.Attack.Target = int(v) }},

	// Member setters apply to every spec in the plan, like the other
	// fault.* keys.
	"fault.member": {"fleet member the fault strikes", func(c *Config, v float64) {
		for i := range c.Faults.Specs {
			c.Faults.Specs[i].Member = int(v)
		}
	}},
	"fault.from-member": {"fleet member a mav-replay captures from", func(c *Config, v float64) {
		for i := range c.Faults.Specs {
			c.Faults.Specs[i].FromMember = int(v)
		}
	}},
}

func seconds(v float64) time.Duration {
	return time.Duration(v * float64(time.Second))
}

// ApplyParam sets one named parameter on a Config. See ParamKeys for
// the key set; unknown keys are an error so sweep typos fail loudly, and
// so is a NaN or infinite value, which no setter can turn into a
// meaningful knob (and a NaN would slip a sweep's repeat check).
func ApplyParam(cfg *Config, key string, v float64) error {
	p, ok := paramSetters[key]
	if !ok {
		return fmt.Errorf("core: unknown parameter %q (known: %v)", key, ParamKeys())
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("core: parameter %q = %v is not a finite number", key, v)
	}
	p.set(cfg, v)
	return nil
}

// ParamKeys lists every sweepable parameter key, sorted.
func ParamKeys() []string {
	keys := make([]string, 0, len(paramSetters))
	for k := range paramSetters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ParamDesc describes one parameter key for CLI help; empty for
// unknown keys.
func ParamDesc(key string) string { return paramSetters[key].desc }

// squareMission is the patrol flown by the mission scenarios: the
// square at 1–1.5 m altitude of examples/mission.
func squareMission() []control.Waypoint {
	return []control.Waypoint{
		{Pos: physics.Vec3{X: 1, Z: 1}, Hold: time.Second},
		{Pos: physics.Vec3{X: 1, Y: 1, Z: 1.5}, Hold: time.Second},
		{Pos: physics.Vec3{Y: 1, Z: 1}, Hold: time.Second},
		{Pos: physics.Vec3{Z: 1}, Hold: time.Second},
	}
}

// missionConfig is the shared base of the mission scenarios: the
// square patrol with the attitude rule loosened for mission tilt (see
// the mission example and TestMissionFalsePositive on the trade-off).
func missionBaseConfig() Config {
	cfg := DefaultConfig()
	cfg.Duration = 40 * time.Second
	cfg.Rules.MaxAttitudeError = 25 * math.Pi / 180
	cfg.Mission = squareMission()
	return cfg
}

// The built-in scenario set: the four paper experiments, the CPU-DoS
// case the defenses are designed around, mission+attack combinations,
// and per-rule monitor ablations. Campaign sweeps add attack
// start/intensity and defense-parameter grids on top via Params.
func init() {
	Register("baseline",
		"attack-free flight of the full ContainerDrone architecture",
		DefaultConfig)

	Register("memdos",
		"Fig 5: memory-bandwidth DoS from the CCE with MemGuard ON — oscillation but stable",
		func() Config { return memDoSConfig(true) })

	Register("memdos-unguarded",
		"Fig 4: memory-bandwidth DoS with MemGuard OFF — expect crash shortly after attack start",
		func() Config { return memDoSConfig(false) })

	Register("kill",
		"Fig 6: complex controller killed at 12s — receiving-interval rule must fire",
		func() Config {
			cfg := DefaultConfig()
			cfg.Attack = attack.Plan{Kind: attack.KindKill, Start: 12 * time.Second}
			return cfg
		})

	Register("udpflood",
		"Fig 7: UDP flood into the HCE motor port at 8s — attitude rule must fire and recover",
		func() Config {
			cfg := DefaultConfig()
			cfg.Attack = attack.Plan{Kind: attack.KindFlood, Start: 8 * time.Second, Rate: 20000}
			return cfg
		})

	Register("cpuhog",
		"busy-loop CPU DoS inside the CCE at 10s — cpuset+priority caps contain it",
		func() Config {
			cfg := DefaultConfig()
			cfg.Attack = attack.Plan{Kind: attack.KindCPUHog, Start: 10 * time.Second}
			return cfg
		})

	Register("mission",
		"attack-free square-patrol mission flown by the containerized controller",
		missionBaseConfig)

	Register("mission-kill",
		"square patrol + controller kill at 18s — safety controller freezes and holds",
		func() Config {
			cfg := missionBaseConfig()
			cfg.Attack = attack.Plan{Kind: attack.KindKill, Start: 18 * time.Second}
			return cfg
		})

	Register("mission-flood",
		"square patrol + UDP flood at 12s — failover mid-mission",
		func() Config {
			cfg := missionBaseConfig()
			cfg.Attack = attack.Plan{Kind: attack.KindFlood, Start: 12 * time.Second, Rate: 20000}
			return cfg
		})

	Register("kill-no-interval",
		"monitor ablation: controller kill with the receiving-interval rule disabled — only the envelope rules can catch it",
		func() Config {
			cfg := DefaultConfig()
			cfg.Attack = attack.Plan{Kind: attack.KindKill, Start: 12 * time.Second}
			cfg.Rules.MaxInterval = time.Hour // ablated
			cfg.Envelope = monitor.DefaultEnvelopeRules()
			return cfg
		})

	Register("udpflood-no-attitude",
		"monitor ablation: UDP flood with the attitude-error rule disabled — only the envelope rules can catch it",
		func() Config {
			cfg := DefaultConfig()
			cfg.Attack = attack.Plan{Kind: attack.KindFlood, Start: 8 * time.Second, Rate: 20000}
			cfg.Rules.MaxAttitudeError = math.Pi // ablated (> any physical tilt short of inversion)
			cfg.Envelope = monitor.DefaultEnvelopeRules()
			return cfg
		})

	Register("udpflood-envelope",
		"UDP flood with both paper rules AND the extended envelope rules armed",
		func() Config {
			cfg := DefaultConfig()
			cfg.Attack = attack.Plan{Kind: attack.KindFlood, Start: 8 * time.Second, Rate: 20000}
			cfg.Envelope = monitor.DefaultEnvelopeRules()
			return cfg
		})
}

// faultConfig is the shared base of the fault scenarios: the full
// ContainerDrone deployment with the extended envelope rules armed
// (faults stress physical state in ways the paper's two rules alone
// may miss), injecting one fault spec. Unmonitored variants disable
// the monitor to measure the undefended outcome.
func faultConfig(kind fault.Kind, start, dur time.Duration, monitored bool) Config {
	cfg := DefaultConfig()
	cfg.Envelope = monitor.DefaultEnvelopeRules()
	cfg.MonitorEnabled = monitored
	cfg.Faults = fault.Plan{Specs: []fault.Spec{{Kind: kind, Start: start, Duration: dur}}}
	return cfg
}

// The fault scenario set: eight failure modes the paper never
// measured, each registered with an unmonitored variant where the
// monitored/unmonitored comparison is informative. Magnitudes and
// rates use the fault package defaults; sweep fault.* params to vary
// them.
func init() {
	Register("gps-spoof",
		"GPS/Vicon spoof drifting 0.5 m/s from 10s — the stealth fault: every estimator believes the lie, the vehicle walks off station undetected",
		func() Config { return faultConfig(fault.KindGPSSpoof, 10*time.Second, 0, true) })

	Register("gps-spoof-unmonitored",
		"GPS spoof with the monitor disabled — identical trajectory to gps-spoof, demonstrating the monitor is blind to spoofed state",
		func() Config { return faultConfig(fault.KindGPSSpoof, 10*time.Second, 0, false) })

	Register("imu-bias",
		"0.08 rad/s gyro bias injected at 10s — estimator integrates the lie; attitude rule should catch the divergence",
		func() Config { return faultConfig(fault.KindIMUBias, 10*time.Second, 0, true) })

	Register("imu-bias-unmonitored",
		"gyro bias with the monitor disabled — the undefended outcome of imu-bias",
		func() Config { return faultConfig(fault.KindIMUBias, 10*time.Second, 0, false) })

	Register("baro-drop",
		"barometer wedges at 10s, repeating its last reading — altitude flows from the fused estimate, so the flight should shrug",
		func() Config { return faultConfig(fault.KindBaroDrop, 10*time.Second, 0, true) })

	Register("netsplit",
		"HCE↔CCE bridge partitioned 10–15s — receiving-interval rule must fire within its threshold",
		func() Config { return faultConfig(fault.KindNetSplit, 10*time.Second, 5*time.Second, true) })

	Register("netsplit-unmonitored",
		"bridge partition with the monitor disabled — the vehicle flies 5s on frozen motor commands",
		func() Config { return faultConfig(fault.KindNetSplit, 10*time.Second, 5*time.Second, false) })

	Register("mav-replay",
		"on-path adversary replays captured motor frames from 12s — valid CRCs keep the interval rule happy; only attitude/envelope can notice",
		func() Config { return faultConfig(fault.KindMAVReplay, 12*time.Second, 0, true) })

	Register("mav-replay-unmonitored",
		"MAVLink replay with the monitor disabled — the undefended outcome of mav-replay",
		func() Config { return faultConfig(fault.KindMAVReplay, 12*time.Second, 0, false) })

	Register("jitter",
		"bridge degrades at 8s: 20ms σ jitter + 20% loss reorders and starves the 400 Hz motor stream",
		func() Config { return faultConfig(fault.KindJitter, 8*time.Second, 0, true) })

	Register("prio-inv",
		"FIFO-95 spinner seizes the safety core for 400ms at 10s — detection itself is starved until the burst ends",
		func() Config {
			return faultConfig(fault.KindPrioInv, 10*time.Second, 400*time.Millisecond, true)
		})

	Register("prio-inv-unmonitored",
		"priority-inversion burst with the monitor disabled — transient control gap, no failover",
		func() Config {
			return faultConfig(fault.KindPrioInv, 10*time.Second, 400*time.Millisecond, false)
		})

	Register("rotor-decay",
		"rotor 0 loses 35% thrust efficiency from 10s (8%/s) — asymmetric damage the controllers must fight",
		func() Config { return faultConfig(fault.KindRotorDecay, 10*time.Second, 0, true) })

	Register("rotor-decay-unmonitored",
		"rotor decay with the monitor disabled — the undefended outcome of rotor-decay",
		func() Config { return faultConfig(fault.KindRotorDecay, 10*time.Second, 0, false) })
}

// swarmConfig is the shared base of the swarm scenarios: a 3-drone
// fleet hovering in line formation with the extended envelope rules
// armed (swarm faults stress position, which the paper's two rules
// alone cannot see).
func swarmConfig(dur time.Duration) Config {
	cfg := DefaultConfig()
	cfg.Drones = 3
	cfg.Duration = dur
	cfg.Envelope = monitor.DefaultEnvelopeRules()
	return cfg
}

// The swarm scenario set: N drones on one shared fabric, coordinated
// by a GCS (see core/fleet.go). These exercise the threat surface a
// single-vehicle scenario cannot: one compromised member attacking a
// peer, C2 partitions starving the formation, and cross-drone replay
// on the shared medium. Sweep drones / fleet.spacing / attack.member
// / fault.member to vary fleet shape and which member is hit.
func init() {
	Register("swarm-baseline",
		"attack-free 3-drone formation hover — the fleet regression baseline",
		func() Config { return swarmConfig(20 * time.Second) })

	Register("swarm-mission",
		"3-drone fleet: the leader flies the square patrol, followers hold formation via the GCS",
		func() Config {
			cfg := swarmConfig(40 * time.Second)
			cfg.Rules.MaxAttitudeError = 25 * math.Pi / 180
			cfg.Mission = squareMission()
			return cfg
		})

	Register("fleet-split",
		"3-drone patrol: the leader is partitioned from the GCS 12–22s — followers fly their last-heard slot, then resync",
		func() Config {
			cfg := swarmConfig(40 * time.Second)
			cfg.Rules.MaxAttitudeError = 25 * math.Pi / 180
			cfg.Mission = squareMission()
			cfg.Faults = fault.Plan{Specs: []fault.Spec{
				{Kind: fault.KindFleetSplit, Start: 12 * time.Second, Duration: 10 * time.Second},
			}}
			return cfg
		})

	Register("swarm-peer-flood",
		"compromised member 2 floods the leader's motor port across the fabric from 8s — the leader's attitude rule must catch it",
		func() Config {
			cfg := swarmConfig(20 * time.Second)
			cfg.Attack = attack.Plan{
				Kind: attack.KindFlood, Start: 8 * time.Second, Rate: 20000,
				Member: 2, Target: 0,
			}
			return cfg
		})

	Register("swarm-cross-replay",
		"on-path adversary captures member 1's motor frames and replays them at member 2 from 12s",
		func() Config {
			cfg := swarmConfig(25 * time.Second)
			cfg.Faults = fault.Plan{Specs: []fault.Spec{
				{Kind: fault.KindMAVReplay, Start: 12 * time.Second, Member: 2, FromMember: 1},
			}}
			return cfg
		})

	Register("swarm-cross-replay-unmonitored",
		"cross-drone replay with the monitor disabled — the undefended outcome of swarm-cross-replay",
		func() Config {
			cfg := swarmConfig(25 * time.Second)
			cfg.MonitorEnabled = false
			cfg.Faults = fault.Plan{Specs: []fault.Spec{
				{Kind: fault.KindMAVReplay, Start: 12 * time.Second, Member: 2, FromMember: 1},
			}}
			return cfg
		})

	Register("swarm-compromised",
		"member 1's own container floods its own HCE from 8s — the compromised-member sweep base (vary attack.member)",
		func() Config {
			cfg := swarmConfig(20 * time.Second)
			cfg.Attack = attack.Plan{
				Kind: attack.KindFlood, Start: 8 * time.Second, Rate: 20000,
				Member: 1, Target: 1,
			}
			return cfg
		})
}

// memDoSConfig is the deployment of the memory experiments: complex
// controller on the host, the container holding only the attacker.
func memDoSConfig(memguardOn bool) Config {
	cfg := DefaultConfig()
	cfg.ComplexInContainer = false
	cfg.MonitorEnabled = false // this experiment isolates the memory defense
	cfg.MemGuardEnabled = memguardOn
	cfg.Attack = attack.Plan{Kind: attack.KindBandwidth, Start: 10 * time.Second, Rate: MemDoSAccessRate}
	return cfg
}
