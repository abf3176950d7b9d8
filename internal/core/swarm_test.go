package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"containerdrone/internal/attack"
	"containerdrone/internal/fault"
	"containerdrone/internal/monitor"
)

// TestSwarmSingleDroneEquivalence pins the fleet refactor's N=1 path:
// a Config with Drones=1 must fly byte-identically (trace and outcome)
// to the same Config with the fleet machinery left unconfigured. The
// golden suite pins this against history; this test pins it against
// the explicit field.
func TestSwarmSingleDroneEquivalence(t *testing.T) {
	base := DefaultConfig()
	base.Duration = 8 * time.Second
	base.Envelope = monitor.DefaultEnvelopeRules()
	base.Seed = 11

	run := func(cfg Config) (string, *Result) {
		t.Helper()
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := sys.Run()
		return sys.Trace.String(), res
	}

	implicit := base
	explicit := base
	explicit.Drones = 1
	trImp, resImp := run(implicit)
	trExp, resExp := run(explicit)
	if trImp != trExp {
		t.Fatalf("trace differs between Drones=0 and Drones=1:\n%s\n----\n%s", trImp, trExp)
	}
	if resImp.Metrics != resExp.Metrics || resImp.Crashed != resExp.Crashed || resImp.GarbagePkts != resExp.GarbagePkts {
		t.Fatalf("outcome differs between Drones=0 and Drones=1: %+v vs %+v", resImp.Metrics, resExp.Metrics)
	}
	if resExp.Members != nil {
		t.Fatalf("single-drone run reported Members = %+v, want nil", resExp.Members)
	}
}

// TestSwarmFormationHold checks the fleet coordinator does its one
// job: followers hold their slots behind the leader. After a benign
// hover, every member must sit within a tight ball of its slot.
func TestSwarmFormationHold(t *testing.T) {
	cfg, err := Build("swarm-baseline", Options{Duration: 8 * time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if len(res.Members) != 3 {
		t.Fatalf("got %d member reports, want 3", len(res.Members))
	}
	for i, d := range sys.Members() {
		slot := cfg.Setpoint.Add(memberOffset(cfg, i))
		if err := d.Quad.State.Pos.Sub(slot).Norm(); err > 0.5 {
			t.Errorf("member %d ended %.2fm from its slot %v", i, err, slot)
		}
		wantHost := memberHost(i)
		if res.Members[i].Host != wantHost {
			t.Errorf("member %d host = %q, want %q", i, res.Members[i].Host, wantHost)
		}
	}
}

// TestSwarmPeerFloodHitsVictim pins the cross-fabric attack routing:
// in swarm-peer-flood member 2's container floods member 0's motor
// port, so the garbage lands at the victim, not the attacker.
func TestSwarmPeerFloodHitsVictim(t *testing.T) {
	cfg, err := Build("swarm-peer-flood", Options{Duration: 12 * time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Attack.Member != 2 || cfg.Attack.Target != 0 {
		t.Fatalf("scenario attack = member %d -> target %d, want 2 -> 0", cfg.Attack.Member, cfg.Attack.Target)
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if res.Members[0].GarbagePkts == 0 {
		t.Error("victim member 0 saw no garbage packets")
	}
	if got := res.Members[2].GarbagePkts; got != 0 {
		t.Errorf("attacker member 2 saw %d garbage packets, want 0", got)
	}
	if !res.Members[0].Switched {
		t.Error("victim's monitor never switched under the flood")
	}
	if res.Members[2].Switched {
		t.Error("attacker's own monitor switched; the flood should not disturb its flight")
	}
}

// TestSwarmCrossReplay pins the cross-drone replay plumbing: frames
// are captured at FromMember's receiver during the prefix and
// re-injected at the target member, whose monitor catches the stale
// commands.
func TestSwarmCrossReplay(t *testing.T) {
	cfg, err := Build("swarm-cross-replay", Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sp := cfg.Faults.Specs[0]
	if sp.Member != 2 || sp.FromMember != 1 {
		t.Fatalf("scenario fault = from %d -> member %d, want from 1 -> member 2", sp.FromMember, sp.Member)
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if len(sys.Member(1).replayFrames) == 0 {
		t.Error("no frames captured at source member 1")
	}
	if len(sys.Member(0).replayFrames) != 0 || len(sys.Member(2).replayFrames) != 0 {
		t.Error("capture buffers allocated on members other than the tap")
	}
	if !res.Members[2].Switched {
		t.Error("replay target member 2 never switched")
	}
	if res.Members[0].Switched || res.Members[1].Switched {
		t.Error("a bystander member switched during the cross-drone replay")
	}
	if !strings.Contains(sys.Trace.String(), "re-injected at member 2") {
		t.Error("trace does not record the cross-drone injection")
	}
}

// TestSwarmMemberValidation exercises the member-selector bounds: a
// Config may not aim attacks or faults at members it does not have,
// and fleet-split needs a fleet.
func TestSwarmMemberValidation(t *testing.T) {
	base := func() Config {
		cfg := DefaultConfig()
		cfg.Drones = 3
		cfg.Duration = time.Second
		return cfg
	}
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"attack member out of range", func(c *Config) {
			c.Attack = attack.Plan{Kind: attack.KindFlood, Start: time.Second, Member: 3}
		}},
		{"attack target out of range", func(c *Config) {
			c.Attack = attack.Plan{Kind: attack.KindFlood, Start: time.Second, Target: 5}
		}},
		{"fault member out of range", func(c *Config) {
			c.Faults = fault.Plan{Specs: []fault.Spec{{Kind: fault.KindGPSSpoof, Start: time.Second, Member: 3}}}
		}},
		{"replay source out of range", func(c *Config) {
			c.Faults = fault.Plan{Specs: []fault.Spec{{Kind: fault.KindMAVReplay, Start: time.Second, FromMember: 3}}}
		}},
		{"fleet-split without a fleet", func(c *Config) {
			c.Drones = 1
			c.Faults = fault.Plan{Specs: []fault.Spec{{Kind: fault.KindFleetSplit, Start: time.Second}}}
		}},
		{"too many drones", func(c *Config) { c.Drones = MaxDrones + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mod(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatalf("New accepted an invalid fleet config")
			}
		})
	}
}

// TestFleetSplitStarvesFollowers pins the leader-partition scenario's
// mechanism: while the leader is cut off from the GCS, the followers'
// fleet setpoints freeze at the last broadcast slot.
func TestFleetSplitStarvesFollowers(t *testing.T) {
	cfg, err := Build("fleet-split", Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sp := cfg.Faults.Specs[0]
	if sp.Kind != fault.KindFleetSplit || sp.Member != 0 {
		t.Fatalf("scenario fault = %v member %d, want fleet-split on the leader", sp.Kind, sp.Member)
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Fly into the partition window, note the follower setpoint, fly
	// further within the window: it must not move — the GCS stops
	// hearing the leader, so the broadcast slots freeze.
	mid := sp.Start + sp.WithDefaults().Duration/4
	sys.Engine.Run(mid)
	frozen := sys.Member(1).fleetSP
	sys.Engine.Run(mid + sp.WithDefaults().Duration/4)
	if got := sys.Member(1).fleetSP; got != frozen {
		t.Errorf("follower fleet setpoint moved during the partition: %v -> %v", frozen, got)
	}
	res := sys.Run()
	if !res.MissionComplete {
		t.Error("partitioning the C2 link should not stop the leader's own mission")
	}
	tr := sys.Trace.String()
	if !strings.Contains(tr, "fleet-split begins") || !strings.Contains(tr, "fleet-split heals") {
		t.Error("trace does not record the partition window")
	}
}

// TestFleetAggregation pins how a fleet Result's top-level Outcome is
// made from its members' Outcomes: the earliest switch (and crash)
// across members, garbage summed, violations concatenated in member
// order, and the flight-shape fields taken from the leader. In
// swarm-compromised a follower switches while the leader stays quiet;
// in swarm-peer-flood the leader is the flood's victim.
func TestFleetAggregation(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		switcher int
	}{
		{"swarm-compromised", 1},
		{"swarm-peer-flood", 0},
	} {
		t.Run(tc.scenario, func(t *testing.T) {
			sys, err := New(MustBuild(tc.scenario, Options{Seed: 7}))
			if err != nil {
				t.Fatal(err)
			}
			res := sys.Run()
			if len(res.Members) != 3 {
				t.Fatalf("got %d member reports, want 3", len(res.Members))
			}
			if m := res.Members[tc.switcher]; !m.Switched || m.SwitchRule != monitor.RuleAttitude || m.GarbagePkts == 0 {
				t.Fatalf("member %d: switched %v on %q with %d garbage packets, want an attitude-error switch under the flood",
					tc.switcher, m.Switched, m.SwitchRule, m.GarbagePkts)
			}
			if tc.switcher != 0 && (res.Members[0].Switched || len(res.Members[0].Violations) != 0) {
				t.Fatal("leader reacted; the aggregate would not be tested against a follower")
			}

			var want Outcome
			for _, m := range res.Members {
				if m.Crashed && (!want.Crashed || m.CrashTime < want.CrashTime) {
					want.Crashed, want.CrashTime = true, m.CrashTime
				}
				if m.Switched && (!want.Switched || m.SwitchTime < want.SwitchTime) {
					want.Switched, want.SwitchTime, want.SwitchRule = true, m.SwitchTime, m.SwitchRule
				}
				want.GarbagePkts += m.GarbagePkts
				want.Violations = append(want.Violations, m.Violations...)
			}
			if res.Crashed != want.Crashed || res.CrashTime != want.CrashTime {
				t.Errorf("crash = %v at %v, want the earliest member crash %v at %v",
					res.Crashed, res.CrashTime, want.Crashed, want.CrashTime)
			}
			if res.Switched != want.Switched || res.SwitchTime != want.SwitchTime || res.SwitchRule != want.SwitchRule {
				t.Errorf("switch = %v at %v (%q), want the earliest member switch %v at %v (%q)",
					res.Switched, res.SwitchTime, res.SwitchRule, want.Switched, want.SwitchTime, want.SwitchRule)
			}
			if res.GarbagePkts != want.GarbagePkts {
				t.Errorf("garbage = %d, want the member sum %d", res.GarbagePkts, want.GarbagePkts)
			}
			if !slices.Equal(res.Violations, want.Violations) {
				t.Errorf("violations = %v, want the members' in member order %v", res.Violations, want.Violations)
			}

			lead := &res.Members[0]
			if res.Metrics != lead.Metrics || res.MissionComplete != lead.MissionComplete || res.IdleRates != lead.IdleRates {
				t.Error("metrics, mission or idle rates differ from the leader's")
			}
			if !slices.Equal(res.Streams, lead.Streams) || !slices.Equal(res.Tasks, lead.Tasks) {
				t.Error("streams or tasks differ from the leader's")
			}
		})
	}
}
