package core

import (
	"time"

	"containerdrone/internal/fault"
	"containerdrone/internal/netsim"
	"containerdrone/internal/physics"
	"containerdrone/internal/sched"
)

// faultStepPeriod is the cadence of time-varying injectors (spoof
// drift, rotor decay): 100 Hz tracks a drifting fault far faster than
// any sensor that observes it.
const faultStepPeriod = 10 * time.Millisecond

// replaySourcePort identifies the on-path replay adversary on the
// bridge. It is not the container: a MAVLink replay needs only a tap
// on the shared medium, which is why it evades the container's
// cpuset/priority/namespace confinement entirely.
var replaySource = netsim.Addr{Host: "mitm", Port: 45000}

// scheduleFaults arms every fault in the configured plan. Each spec
// becomes one fault.Injector closing over the member it strikes
// (Spec.Member, leader by default) and the surface it corrupts;
// fault.Arm sequences Begin/Step/End on the engine.
func (s *System) scheduleFaults() {
	for i, sp := range s.Cfg.Faults.Specs {
		sp = sp.WithDefaults()
		name := "fault-" + sp.Kind.String()
		if len(s.Cfg.Faults.Specs) > 1 {
			name += string(rune('0' + i%10))
		}
		inj, stepPeriod := s.buildInjector(sp)
		if inj == nil {
			continue
		}
		h := fault.Arm(s.Engine, name, s.Cfg.Duration, sp, inj, stepPeriod)
		if sp.Kind == fault.KindRotorDecay {
			s.airframeProcs = append(s.airframeProcs, h)
		}
	}
	// Capture legitimate motor frames ahead of each replay window, on
	// the member the adversary taps (Spec.FromMember). Each tapped
	// member's cap is the largest capture magnitude across the replay
	// specs that tap it.
	for _, sp := range s.Cfg.Faults.Specs {
		if sp.Kind != fault.KindMAVReplay {
			continue
		}
		src := s.drones[sp.FromMember]
		if n := int(sp.WithDefaults().Magnitude); n > src.replayMax {
			src.replayMax = n
			src.replayFrames = make([][]byte, 0, n)
		}
	}
}

// buildInjector maps one fault spec to its injector and Step cadence
// (zero for window-only faults).
func (s *System) buildInjector(sp fault.Spec) (fault.Injector, time.Duration) {
	d := s.drones[sp.Member]
	switch sp.Kind {
	case fault.KindGPSSpoof:
		return s.gpsSpoofInjector(d, sp), faultStepPeriod
	case fault.KindIMUBias:
		return s.imuBiasInjector(d, sp), 0
	case fault.KindBaroDrop:
		return s.baroDropInjector(d), 0
	case fault.KindNetSplit:
		return s.netSplitInjector(d), 0
	case fault.KindMAVReplay:
		period := time.Duration(float64(time.Second) / sp.Rate)
		return s.mavReplayInjector(d, sp), period
	case fault.KindJitter:
		return s.jitterInjector(d, sp), 0
	case fault.KindPrioInv:
		return s.prioInvInjector(d, sp), 0
	case fault.KindRotorDecay:
		return s.rotorDecayInjector(d, sp), faultStepPeriod
	case fault.KindFleetSplit:
		return s.fleetSplitInjector(d), 0
	default:
		return nil, 0
	}
}

// gpsSpoofInjector drifts the GPS/Vicon position offset: the spoofer
// walks its lie away from the truth at Rate m/s (+X), starting from
// Magnitude meters. The position controller chases the lie, so the
// vehicle physically drifts the opposite way while every estimator —
// host and CCE alike — still believes it is on station. This is the
// stealth fault: no rule observable from spoofed state can fire.
//
// The injector tracks its own contribution and adds/removes it from
// the shared offset, so overlapping spoof windows compose additively.
func (s *System) gpsSpoofInjector(d *Drone, sp fault.Spec) fault.Injector {
	var start time.Duration
	var applied physics.Vec3
	retarget := func(to physics.Vec3) {
		f := d.suite.Faults()
		f.GPSOffset = f.GPSOffset.Sub(applied).Add(to)
		d.suite.SetFaults(f)
		applied = to
	}
	return fault.FuncInjector{
		BeginF: func(now time.Duration) {
			start = now
			applied = physics.Vec3{} // fresh window (and fresh warm-pool run)
			d.gpsSpoofDepth++
			s.tracef(now, d.compFault, "gps-spoof begins: drift %.2f m/s", sp.Rate)
		},
		StepF: func(now time.Duration) {
			retarget(physics.Vec3{X: sp.Magnitude + sp.Rate*(now-start).Seconds()})
		},
		EndF: func(now time.Duration) {
			retarget(physics.Vec3{})
			d.gpsSpoofDepth--
			if d.gpsSpoofDepth == 0 {
				// Snap the accumulated contributions to exactly zero:
				// float add/subtract of overlapping windows leaves dust.
				f := d.suite.Faults()
				f.GPSOffset = physics.Vec3{}
				d.suite.SetFaults(f)
			}
			s.tracef(now, d.compFault, "gps-spoof ends")
		},
	}
}

// imuBiasInjector switches a constant extra gyro bias on: the
// estimator integrates the lie, the controllers fight the resulting
// phantom rotation, and the real attitude diverges until the
// accelerometer correction balances the bias. Contributions are
// additive, so overlapping bias windows compose.
func (s *System) imuBiasInjector(d *Drone, sp fault.Spec) fault.Injector {
	bias := physics.Vec3{X: sp.Magnitude}
	return fault.FuncInjector{
		BeginF: func(now time.Duration) {
			d.gyroBiasDepth++
			f := d.suite.Faults()
			f.GyroBias = f.GyroBias.Add(bias)
			d.suite.SetFaults(f)
			s.tracef(now, d.compFault, "imu-bias begins: %.3f rad/s", sp.Magnitude)
		},
		EndF: func(now time.Duration) {
			d.gyroBiasDepth--
			f := d.suite.Faults()
			f.GyroBias = f.GyroBias.Sub(bias)
			if d.gyroBiasDepth == 0 {
				// Snap to exactly zero (see gpsSpoofInjector).
				f.GyroBias = physics.Vec3{}
			}
			d.suite.SetFaults(f)
			s.tracef(now, d.compFault, "imu-bias ends")
		},
	}
}

// baroDropInjector wedges the barometer driver: SampleBaro returns
// the last healthy reading, timestamp and all, until the window ends.
// Depth-counted so overlapping windows heal only when the last closes.
func (s *System) baroDropInjector(d *Drone) fault.Injector {
	return fault.FuncInjector{
		BeginF: func(now time.Duration) {
			d.baroDropDepth++
			f := d.suite.Faults()
			f.BaroFrozen = true
			d.suite.SetFaults(f)
			s.tracef(now, d.compFault, "baro-drop begins")
		},
		EndF: func(now time.Duration) {
			d.baroDropDepth--
			if d.baroDropDepth == 0 {
				f := d.suite.Faults()
				f.BaroFrozen = false
				d.suite.SetFaults(f)
			}
			s.tracef(now, d.compFault, "baro-drop ends")
		},
	}
}

// netSplitInjector partitions the member's HCE↔CCE bridge in both
// directions: sensor frames stop reaching the container and motor
// frames stop reaching the host — docker0 going down mid-flight. The
// receiving-interval rule is the designed detector. Depth-counted so
// overlapping windows heal only when the last closes.
func (s *System) netSplitInjector(d *Drone) fault.Injector {
	return fault.FuncInjector{
		BeginF: func(now time.Duration) {
			d.splitDepth++
			s.Net.SetPartition(d.hostName, d.CCE.NetHost(), true)
			s.tracef(now, d.compFault, "netsplit begins: %s <-> %s partitioned", d.hostName, d.CCE.NetHost())
		},
		EndF: func(now time.Duration) {
			d.splitDepth--
			if d.splitDepth == 0 {
				s.Net.SetPartition(d.hostName, d.CCE.NetHost(), false)
			}
			s.tracef(now, d.compFault, "netsplit heals")
		},
	}
}

// fleetSplitInjector partitions a member's host from the ground
// control station: the member stops hearing formation updates (and the
// GCS stops hearing the member). Splitting the leader starves every
// follower of fresh slots — they hold the last formation they heard —
// while splitting a follower strands just that member. Depth-counted
// like netsplit. Build-time validation guarantees a fleet exists.
func (s *System) fleetSplitInjector(d *Drone) fault.Injector {
	return fault.FuncInjector{
		BeginF: func(now time.Duration) {
			d.fleetSplitDepth++
			s.Net.SetPartition(d.hostName, gcsHost, true)
			s.tracef(now, d.compFault, "fleet-split begins: member %d <-> %s partitioned", d.idx, gcsHost)
		},
		EndF: func(now time.Duration) {
			d.fleetSplitDepth--
			if d.fleetSplitDepth == 0 {
				s.Net.SetPartition(d.hostName, gcsHost, false)
			}
			s.tracef(now, d.compFault, "fleet-split heals")
		},
	}
}

// mavReplayInjector replays captured motor frames from an on-path
// tap: frames are cryptographically valid MAVLink (correct CRC, known
// msgid), so the receiver accepts them and the interval rule stays
// satisfied — but the commands are stale, steering the vehicle with
// the past. Only the attitude/envelope rules can notice. In a fleet,
// the tap may sit on one member's bridge (Spec.FromMember) and the
// injection strike another (Spec.Member): frames from drone A are
// valid MAVLink at drone B too, since Table-I streams carry no member
// identity — the cross-drone replay the shared medium invites.
func (s *System) mavReplayInjector(d *Drone, sp fault.Spec) fault.Injector {
	src := s.drones[sp.FromMember]
	var route *netsim.Route
	var idx int
	return fault.FuncInjector{
		BeginF: func(now time.Duration) {
			route = s.Net.Route(replaySource, netsim.Addr{Host: d.hostName, Port: PortMotor})
			idx = 0 // restart the capture cursor (fresh window, fresh warm-pool run)
			if src != d {
				s.tracef(now, d.compFault, "mav-replay begins: %d frames captured at member %d, re-injected at member %d, %.0f/s",
					len(src.replayFrames), src.idx, d.idx, sp.Rate)
			} else {
				s.tracef(now, d.compFault, "mav-replay begins: %d captured frames at %.0f/s",
					len(src.replayFrames), sp.Rate)
			}
		},
		StepF: func(now time.Duration) {
			if len(src.replayFrames) == 0 {
				return
			}
			route.Send(src.replayFrames[idx])
			idx++
			if idx == len(src.replayFrames) {
				idx = 0
			}
		},
		EndF: func(now time.Duration) {
			s.tracef(now, d.compFault, "mav-replay ends")
		},
	}
}

// jitterInjector degrades the bridge with gaussian extra latency and
// independent loss. Large jitter relative to the 2.5 ms motor period
// also reorders frames, since delivery follows per-packet deadlines.
// The link model is fabric-global, so in a fleet every member feels
// the weather; the member selector only attributes the trace line.
// The healthy link is captured once when the first jitter window
// opens; while windows overlap the link runs the most recently
// opened window still active (a closing window reapplies the next
// one down the stack), and the last End heals to the captured
// baseline — composed jitter faults cannot leave a degraded link
// behind nor keep a closed window's severity.
func (s *System) jitterInjector(d *Drone, sp fault.Spec) fault.Injector {
	degraded := &netsim.LinkParams{
		Jitter: time.Duration(sp.Magnitude * float64(time.Second)),
		Loss:   sp.Rate,
	}
	return fault.FuncInjector{
		BeginF: func(now time.Duration) {
			if len(s.jitterStack) == 0 {
				s.baseLink = s.Net.Link()
			}
			degraded.Latency = s.baseLink.Latency
			s.jitterStack = append(s.jitterStack, degraded)
			s.Net.SetLink(*degraded)
			s.tracef(now, d.compFault, "jitter begins: σ=%.0fms loss=%.0f%%",
				sp.Magnitude*1e3, sp.Rate*100)
		},
		EndF: func(now time.Duration) {
			for i, p := range s.jitterStack {
				if p == degraded {
					s.jitterStack = append(s.jitterStack[:i], s.jitterStack[i+1:]...)
					break
				}
			}
			if n := len(s.jitterStack); n > 0 {
				s.Net.SetLink(*s.jitterStack[n-1])
			} else {
				s.Net.SetLink(s.baseLink)
			}
			s.tracef(now, d.compFault, "jitter ends")
		},
	}
}

// prioInvInjector starves the member's safety core: a busy spinner
// above driver priority occupies the core carrying the safety
// controller, the receiver, and the monitor itself. While it runs
// nothing on that core executes — including detection; the interval
// rule can only fire after the burst ends and the monitor task runs
// again.
func (s *System) prioInvInjector(d *Drone, sp fault.Spec) fault.Injector {
	var task *sched.Task
	return fault.FuncInjector{
		BeginF: func(now time.Duration) {
			task = fault.PrioInversion(CoreSafety, int(sp.Magnitude))
			d.CPU.Add(task)
			s.tracef(now, d.compFault, "prio-inv begins: FIFO %d spinner on core %d",
				task.Priority, task.Core)
		},
		EndF: func(now time.Duration) {
			if task != nil {
				d.CPU.Remove(task)
				task = nil
			}
			s.tracef(now, d.compFault, "prio-inv ends")
		},
	}
}

// rotorDecayInjector ramps rotor 0's thrust efficiency down by Rate
// per second until Magnitude of it is gone. The asymmetric thrust
// deficit torques the airframe continuously; damage is permanent — a
// closing window stops the decay but does not restore the rotor.
func (s *System) rotorDecayInjector(d *Drone, sp fault.Spec) fault.Injector {
	var start time.Duration
	return fault.FuncInjector{
		BeginF: func(now time.Duration) {
			start = now
			s.tracef(now, d.compFault, "rotor-decay begins: rotor 0, %.0f%% loss at %.0f%%/s",
				sp.Magnitude*100, sp.Rate*100)
		},
		StepF: func(now time.Duration) {
			loss := sp.Rate * (now - start).Seconds()
			if loss > sp.Magnitude {
				loss = sp.Magnitude
			}
			d.setRotorEfficiency(0, 1-loss)
		},
		EndF: func(now time.Duration) {
			s.tracef(now, d.compFault, "rotor-decay ends (damage persists)")
		},
	}
}
