package core

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestAllScenariosBuildAndRun is the registry's liveness contract:
// every registered scenario builds and completes a short run without
// panicking, both as registered and with the attack pulled forward so
// its attack path actually executes inside the short window.
func TestAllScenariosBuildAndRun(t *testing.T) {
	for _, sc := range Scenarios() {
		for _, variant := range []struct {
			name string
			opts Options
		}{
			{"default", Options{Duration: 2 * time.Second}},
			{"early-attack", Options{Duration: 2 * time.Second,
				Params: map[string]float64{"attack.start": 0.5, "monitor.arm-delay": 0.2}}},
		} {
			t.Run(sc.Name+"/"+variant.name, func(t *testing.T) {
				cfg, err := Build(sc.Name, variant.opts)
				if err != nil {
					t.Fatalf("Build(%q) failed: %v", sc.Name, err)
				}
				if cfg.Duration != 2*time.Second {
					t.Fatalf("duration override ignored: %v", cfg.Duration)
				}
				sys, err := New(cfg)
				if err != nil {
					t.Fatalf("New failed: %v", err)
				}
				res := sys.Run()
				if res.Log.Len() == 0 {
					t.Fatal("run produced no telemetry")
				}
			})
		}
	}
}

func TestBuildUnknownScenario(t *testing.T) {
	if _, err := Build("no-such-scenario", Options{}); err == nil {
		t.Fatal("unknown scenario did not error")
	}
}

func TestBuildUnknownParam(t *testing.T) {
	_, err := Build("baseline", Options{Params: map[string]float64{"no.such.key": 1}})
	if err == nil {
		t.Fatal("unknown parameter did not error")
	}
}

func TestBuildRefusesNonFiniteParam(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := Build("gps-spoof", Options{Params: map[string]float64{"fault.rate": v}})
		if err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("fault.rate=%v: Build says %v; want the non-finite value refused", v, err)
		}
	}
}

func TestBuildAppliesOptions(t *testing.T) {
	cfg := MustBuild("memdos", Options{
		Seed:     42,
		Duration: 7 * time.Second,
		Params: map[string]float64{
			"memguard.enabled": 0,
			"attack.rate":      2e9,
			"attack.start":     5,
			"bus.capacity":     50e6,
		},
	})
	if cfg.Seed != 42 || cfg.Duration != 7*time.Second {
		t.Fatalf("seed/duration = %d/%v", cfg.Seed, cfg.Duration)
	}
	if cfg.MemGuardEnabled {
		t.Fatal("memguard.enabled=0 not applied")
	}
	if cfg.Attack.Rate != 2e9 || cfg.Attack.Start != 5*time.Second {
		t.Fatalf("attack = %+v", cfg.Attack)
	}
	if cfg.BusCapacity != 50e6 {
		t.Fatalf("bus capacity = %v", cfg.BusCapacity)
	}
}

// TestBuildDoesNotMutateOptions guards the campaign path: workers
// share Point.Params maps across goroutines, so Build must treat its
// options as read-only.
func TestBuildDoesNotMutateOptions(t *testing.T) {
	params := map[string]float64{"attack.rate": 1e9}
	opts := Options{Params: params}
	MustBuild("memdos", opts)
	if len(params) != 1 || params["attack.rate"] != 1e9 {
		t.Fatalf("Build mutated caller params: %v", params)
	}
}

// TestScenarioWrappersMatchRegistry pins the legacy constructors to
// their registry entries.
func TestScenarioWrappersMatchRegistry(t *testing.T) {
	cases := []struct {
		name string
		got  Config
	}{
		{"baseline", ScenarioBaseline()},
		{"memdos", ScenarioMemDoS(true)},
		{"memdos-unguarded", ScenarioMemDoS(false)},
		{"kill", ScenarioKill()},
		{"udpflood", ScenarioFlood()},
	}
	for _, c := range cases {
		want := MustBuild(c.name, Options{})
		if !reflect.DeepEqual(c.got, want) {
			t.Errorf("wrapper for %q diverged from registry build", c.name)
		}
	}
}

func TestParamKeysHaveDescriptions(t *testing.T) {
	for _, k := range ParamKeys() {
		if ParamDesc(k) == "" {
			t.Errorf("parameter %q has no description", k)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("baseline", "dup", DefaultConfig)
}
