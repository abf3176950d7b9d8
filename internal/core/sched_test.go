package core

import (
	"testing"
	"time"
)

// TestHCETaskSetSchedulable is the static half of the paper's safety
// argument (§VII future work): the host control environment's task
// set, at nominal WCETs, is provably schedulable on every core before
// any attack launches.
func TestHCETaskSetSchedulable(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range s.Schedulability() {
		if !res.Schedulable {
			t.Errorf("core %d not schedulable (U=%.3f):", res.Core, res.Utilization)
			for _, rt := range res.Tasks {
				t.Errorf("  %-16s prio %2d R=%v ok=%v unbounded=%v",
					rt.Task.Name, rt.Task.Priority, rt.Response, rt.Schedulable, rt.Unbounded)
			}
		}
		if res.Utilization > 0.6 {
			t.Errorf("core %d utilization %.3f leaves too little headroom", res.Core, res.Utilization)
		}
	}
}

// TestAnalysisBoundsHoldInSimulation cross-validates the analysis: no
// flight-critical task may exceed its analytical response-time bound
// during an attack-free flight (memory model active but uncontended).
func TestAnalysisBoundsHoldInSimulation(t *testing.T) {
	cfg := DefaultConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[string]struct {
		response float64 // seconds
	}{}
	for _, res := range s.Schedulability() {
		for _, rt := range res.Tasks {
			if !rt.Task.Busy() && rt.Schedulable {
				bounds[rt.Task.Name] = struct{ response float64 }{rt.Response.Seconds()}
			}
		}
	}
	s.Run()
	for _, task := range s.Member(0).CPU.Tasks() {
		b, ok := bounds[task.Name]
		if !ok {
			continue
		}
		got := task.Stats().MaxLatency.Seconds()
		// Allow one tick of quantization slack.
		if got > b.response+0.0002 {
			t.Errorf("%s simulated max latency %.4fs exceeds RTA bound %.4fs",
				task.Name, got, b.response)
		}
	}
}

// TestBandwidthAttackUnboundsItsCore documents the analysis view of
// the memory attack: the busy Bandwidth task makes core 3 unbounded
// for anything below it, while host cores remain schedulable — CPU
// isolation holds even when the memory channel does not.
func TestBandwidthAttackUnboundsItsCore(t *testing.T) {
	cfg := ScenarioMemDoS(false)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Advance past the attack launch so the Bandwidth task is in the
	// task set, then re-analyze.
	s.Engine.RunUntil(cfg.Attack.Start + time.Second)
	results := s.Schedulability()
	for _, res := range results {
		if res.Core == CoreContainer {
			continue // the attacker's own core has no deadline claim
		}
		if !res.Schedulable {
			t.Errorf("host core %d lost schedulability to a container-core attack", res.Core)
		}
	}
	// The container core now hosts a busy-loop task; utilization 1.
	if got := results[CoreContainer].Utilization; got < 1 {
		t.Errorf("container core utilization %.3f, want ≥1 with the hog", got)
	}
}
