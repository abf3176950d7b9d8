package core

import (
	"fmt"
	"time"

	"containerdrone/internal/attack"
	"containerdrone/internal/cgroup"
	"containerdrone/internal/container"
	"containerdrone/internal/control"
	"containerdrone/internal/estimate"
	"containerdrone/internal/mavlink"
	"containerdrone/internal/membw"
	"containerdrone/internal/memguard"
	"containerdrone/internal/monitor"
	"containerdrone/internal/netsim"
	"containerdrone/internal/physics"
	"containerdrone/internal/sched"
	"containerdrone/internal/sensors"
	"containerdrone/internal/sim"
	"containerdrone/internal/telemetry"
)

// Drone is one vehicle's full stack on the shared fabric: its own
// quad-core computer (scheduler, DRAM bus, MemGuard), container
// runtime and CCE, airframe, sensor suite, estimators, controllers,
// security monitor, and flight log. Drones share only the simulation
// engine, the network fabric, and the event trace, all owned by the
// System; member 0 is the fleet leader and flies the mission.
type Drone struct {
	sys *System
	idx int

	// hostName is this member's HCE identity on the fabric: "hce" for
	// member 0 (the single-drone name), "hce<i>" beyond.
	hostName string

	CPU     *sched.CPU
	Bus     *membw.Bus
	Guard   *memguard.Guard
	Runtime *container.Runtime
	CCE     *container.Container
	Quad    *physics.Quad
	Monitor *monitor.Monitor
	Log     *telemetry.FlightLog

	safetyCtl  *control.Cascade
	complexCtl *control.Cascade
	wind       *physics.Wind
	rcScript   *sensors.RCScript
	suite      *sensors.Suite

	// Each control environment runs its own state estimator, exactly
	// as each PX4 instance runs its own EKF: the HCE filter feeds the
	// safety controller and the monitor; the CCE filter is owned by
	// the complex controller and fed from the MAVLink stream.
	hostEst *estimate.Filter
	cceEst  *estimate.Filter

	// Mission (leader only; nil when flying a static setpoint).
	mission *control.Mission

	// Fleet wiring: the formation offset from the leader's setpoint
	// and the member's spawn/hover position.
	offset  physics.Vec3
	initPos physics.Vec3
	fleetEP *netsim.Endpoint // follower downlink (nil on the leader)
	upRoute *netsim.Route    // host → GCS uplink (swarm only)

	droneState

	hceMotorEP  *netsim.Endpoint
	cceSensorEP *netsim.Endpoint

	complexTask *sched.Task
	recvTask    *sched.Task
	pwmTask     *sched.Task // the only task that writes the airframe
	flood       *attack.Flood

	// MAVLink replay capture: when a fault plan taps this member, the
	// receiving thread copies the first replayMax valid motor frames
	// it sees — the adversary's tap on the bridge.
	replayFrames [][]byte
	replayMax    int

	streams map[string]*StreamStat
	// Per-stream stat pointers, resolved once at wiring time so the
	// per-frame hot paths never hash the streams map.
	imuStream, baroStream, gpsStream, rcStream, motorStream *StreamStat

	// Steady-state encode scratch. Only the engine goroutine encodes
	// (an airframe helper touches nothing but the airframes) and
	// netsim.Send copies payloads into its pool, so one payload buffer
	// and one frame buffer serve every host-side stream without
	// allocating per frame.
	sendPayload []byte
	sendFrame   []byte

	// hostIn is the host-side controller-input scratch; see hostInputs.
	hostIn control.Inputs

	// CCE controller scratch.
	cceMotorPayload []byte
	cceMotorFrame   []byte

	// The per-member RNG streams, held so a tick-0 restore can
	// re-derive them in place in exactly the Split order New used.
	sensorRNG, windRNG *sim.RNG

	// Trace component names: bare ("monitor") for a single-drone
	// System, member-tagged ("monitor#1") in a swarm.
	compMonitor, compFault, compAttack, compPhysics string
}

// droneState is a member's per-run state that lives on the Drone
// itself rather than in a subsystem. A Snapshot holds it whole, so a
// field added here is captured and restored with no further code.
type droneState struct {
	curSetpoint physics.Vec3 // what the complex controller is tracking
	holdSP      physics.Vec3 // the safety controller's hold target
	fleetSP     physics.Vec3 // a follower's last formation target from the GCS

	// host-side sensor caches written by the driver tasks
	lastIMU  sensors.IMUReading
	lastGPS  sensors.GPSReading
	lastBaro sensors.BaroReading
	lastRC   sensors.RCReading

	// actuator command paths
	complexCmd   [4]float64
	complexCmdAt time.Duration
	safetyCmd    [4]float64
	hostCmd      [4]float64

	// CCE controller state (fields rather than closure locals so a
	// restore can rewind them).
	cceIn  control.Inputs
	cceSeq uint32

	seqOut  uint32
	garbage int64 // undecodable packets seen by the receiver

	// Shared-surface fault accounting, so same-kind fault windows can
	// overlap without one injector's End healing a surface another
	// injector still degrades (see fault.go). Snapshotable refuses a
	// capture while any window is open, so a restore zeroes them.
	splitDepth      int
	baroDropDepth   int
	gyroBiasDepth   int
	gpsSpoofDepth   int
	fleetSplitDepth int
}

// Index returns this member's position in the fleet (0 = leader).
func (d *Drone) Index() int { return d.idx }

// Host returns this member's HCE identity on the shared fabric.
func (d *Drone) Host() string { return d.hostName }

// comp tags a trace component with the member index in swarm runs;
// single-drone traces keep the classic bare names.
func (s *System) comp(idx int, name string) string {
	if s.Cfg.DroneCount() == 1 {
		return name
	}
	return fmt.Sprintf("%s#%d", name, idx)
}

// newDrone builds and wires one member's full stack. rng is the
// System's root generator; each drone splits its sensor (and wind)
// streams from it in member order, after the shared fabric stream.
func newDrone(s *System, idx int, rng *sim.RNG) (*Drone, error) {
	cfg := s.Cfg
	// Presize the log for the whole flight, up to a bound: a request
	// for an absurdly long flight must not allocate its log up front.
	logCap := int(min(cfg.Duration.Seconds()*cfg.TelemetryRate+1, maxLogPrealloc))
	d := &Drone{
		sys:      s,
		idx:      idx,
		hostName: memberHost(idx),
		Log:      telemetry.NewFlightLogCap(logCap),
		streams:  make(map[string]*StreamStat),
	}
	d.compMonitor = s.comp(idx, "monitor")
	d.compFault = s.comp(idx, "fault")
	d.compAttack = s.comp(idx, "attack")
	d.compPhysics = s.comp(idx, "physics")
	d.offset = memberOffset(cfg, idx)
	d.initPos = cfg.Setpoint.Add(d.offset)

	// --- physical substrates -------------------------------------
	d.Bus = membw.NewBus(NumCores, cfg.BusCapacity, sim.Tick)
	d.Guard = memguard.New(NumCores)
	d.Guard.SetEnabled(cfg.MemGuardEnabled)
	if cfg.MemGuardBudget > 0 {
		d.Guard.SetBudget(CoreContainer, cfg.MemGuardBudget*memguard.DefaultPeriod.Seconds())
	}
	d.CPU = sched.NewCPU(NumCores, sim.Tick, d.Bus, d.Guard)

	if cfg.IPTablesRate > 0 {
		s.Net.Limit(netsim.Addr{Host: d.hostName, Port: PortMotor}, cfg.IPTablesRate, cfg.IPTablesBurst)
	}

	root := cgroup.NewRoot()
	rt, err := container.NewRuntime(container.Config{
		CPU: d.CPU, Net: s.Net, Root: root, HostName: d.hostName,
		DaemonCore: CoreDriver, DaemonUtil: 0.002,
	})
	if err != nil {
		return nil, err
	}
	d.Runtime = rt
	cceName := "cce"
	if idx > 0 {
		cceName = fmt.Sprintf("cce%d", idx)
	}
	cce, err := rt.Create(container.Spec{
		Name:             cceName,
		Image:            container.Image{Name: "resin/rpi-raspbian", Tag: "jessie", SizeMB: 120},
		CPUSet:           cgroup.NewCPUSet(CoreContainer),
		RTPrioCap:        sched.PrioContainer,
		MemoryLimitBytes: 256 << 20,
		Ports: []container.PortMapping{
			{HostPort: PortMotor, ContainerPort: PortMotor},
			{HostPort: PortSensors, ContainerPort: PortSensors},
		},
	})
	if err != nil {
		return nil, err
	}
	d.CCE = cce
	if err := cce.Start(); err != nil {
		return nil, err
	}

	// --- vehicle, sensors, controllers ---------------------------
	d.Quad = physics.NewQuad(physics.DefaultParams())
	d.Quad.State.Pos = d.initPos
	hov := d.Quad.HoverThrottle()
	trim := [4]float64{hov, hov, hov, hov}
	d.Quad.SetMotors(trim)
	d.Quad.SettleRotors()
	d.complexCmd, d.safetyCmd, d.hostCmd = trim, trim, trim

	d.curSetpoint = d.initPos
	d.holdSP = d.initPos
	d.fleetSP = d.initPos
	if idx == 0 && len(cfg.Mission) > 0 {
		d.mission = control.NewMission(cfg.Mission...)
	}

	d.sensorRNG = rng.Split()
	d.suite = sensors.NewSuite(cfg.Noise, d.sensorRNG.Norm)
	d.rcScript = sensors.NewRCScript()
	if cfg.ManualUntil > 0 {
		d.rcScript.
			Add(0, sensors.RCReading{Mode: sensors.ModeManual, Throttle: 0.5}).
			Add(uint64(cfg.ManualUntil/time.Microsecond),
				sensors.RCReading{Mode: sensors.ModePosition, Throttle: 0.5})
	}
	if cfg.Wind {
		d.windRNG = rng.Split()
		d.wind = physics.NewWind(0.25, 0.6, 2.0, d.windRNG.Norm)
	}

	af := control.AirframeFrom(d.Quad.Params)
	d.safetyCtl = control.NewCascade(control.SafetyGains(), af, 250)
	d.complexCtl = control.NewCascade(control.ComplexGains(), af, 400)
	// Member 0 keeps the paper's cold-start estimator (dead reckoning
	// from the origin until the first fix — every single-drone golden
	// trace pins that transient). Followers launch from a surveyed
	// formation slot: seeding the filters there avoids fabricating a
	// multi-meter initial innovation that would ring the vehicle right
	// through the monitor's arming.
	estCfg := estimate.DefaultConfig()
	if idx > 0 {
		estCfg.Home = d.initPos
	}
	d.hostEst = estimate.New(estCfg)
	d.cceEst = estimate.New(estCfg)

	d.Monitor = monitor.New(cfg.Rules)
	d.Monitor.SetEnvelope(cfg.Envelope)
	d.Monitor.OnSwitch = func(now time.Duration, rule monitor.Rule) {
		s.tracef(now, d.compMonitor, "rule %s violated: switching to safety controller, killing receiver", rule)
		if d.recvTask != nil {
			d.CPU.Remove(d.recvTask)
		}
		if s.Hooks.OnSwitch != nil {
			s.Hooks.OnSwitch(now, rule)
		}
	}
	d.Monitor.OnViolation = func(v monitor.Violation) {
		if s.Hooks.OnViolation != nil {
			s.syncAirframe()
			s.Hooks.OnViolation(v)
		}
	}

	d.hceMotorEP = s.Net.Bind(netsim.Addr{Host: d.hostName, Port: PortMotor}, 256)
	if ep, err := cce.Bind(PortSensors, 256); err == nil {
		d.cceSensorEP = ep
	} else {
		return nil, err
	}

	d.imuStream = d.registerStream("IMU", PortSensors, mavlink.IMUPayloadSize+mavlink.Overhead)
	d.baroStream = d.registerStream("Barometer", PortSensors, mavlink.BaroPayloadSize+mavlink.Overhead)
	d.gpsStream = d.registerStream("GPS", PortSensors, mavlink.GPSPayloadSize+mavlink.Overhead)
	d.rcStream = d.registerStream("RC", PortSensors, mavlink.RCPayloadSize+mavlink.Overhead)
	d.motorStream = d.registerStream("Motor Output", PortMotor, mavlink.MotorPayloadSize+mavlink.Overhead)

	d.buildHCETasks()
	if cfg.ComplexInContainer {
		if err := d.buildCCEController(); err != nil {
			return nil, err
		}
	} else {
		d.buildHostComplexController()
	}
	d.buildEngineProcs()
	return d, nil
}

// memberHost names member idx's HCE on the fabric.
func memberHost(idx int) string {
	if idx == 0 {
		return hceHost
	}
	return fmt.Sprintf("hce%d", idx)
}

// memberOffset is the member's slot in the line formation: spacing
// meters along -X per index, so followers trail the leader.
func memberOffset(cfg Config, idx int) physics.Vec3 {
	if idx == 0 {
		return physics.Vec3{}
	}
	return physics.Vec3{X: -cfg.Spacing() * float64(idx)}
}

func (d *Drone) registerStream(name string, port, size int) *StreamStat {
	st := &StreamStat{Name: name, Port: port, FrameSize: size}
	d.streams[name] = st
	return st
}

// sendToCCE encodes and ships one sensor frame into the container.
// The frame is built in the member's scratch buffer; HostSend copies
// it into the network's pool, so nothing here allocates at steady
// state.
func (d *Drone) sendToCCE(stream *StreamStat, msgID uint8, payload []byte) {
	if !d.sys.Cfg.ComplexInContainer {
		return
	}
	d.sendFrame = mavlink.AppendEncode(d.sendFrame[:0], mavlink.Frame{
		Seq: uint8(d.seqOut), SysID: 1, CompID: 1, MsgID: msgID, Payload: payload,
	})
	d.seqOut++
	if err := d.Runtime.HostSend(d.CCE, 9000, PortSensors, d.sendFrame); err == nil {
		stream.Packets++
	}
}

// buildHCETasks registers the host control environment's task set:
// kernel drivers at FIFO 90, receiver and monitor as middle-priority
// I/O threads, safety controller at FIFO 20, plus baseline system load
// (the paper's "about 40 priority" Linux interrupt work).
func (d *Drone) buildHCETasks() {
	// Baseline OS load (matches the native row of Table II).
	AddSystemBaseline(d.CPU)

	// IMU driver: samples inertial state, caches it, feeds the CCE.
	d.CPU.Add(&sched.Task{
		Name: "drv-imu", Core: CoreDriver, Priority: sched.PrioDriver,
		Period: 4 * time.Millisecond, WCET: 300 * time.Microsecond,
		AccessRate: 15e6, MemBound: 0.6,
		Work: func(now time.Duration) {
			d.lastIMU = d.suite.SampleIMU(d.state(), d.Quad.Params.Gravity, nowUS(now))
			d.hostEst.FeedIMU(d.lastIMU)
			var p []byte
			d.sendPayload, p = mavlink.AppendIMU(d.sendPayload[:0], d.lastIMU)
			d.sendToCCE(d.imuStream, mavlink.MsgIDIMU, p)
		},
	})
	// Barometer driver.
	d.CPU.Add(&sched.Task{
		Name: "drv-baro", Core: CoreDriver, Priority: sched.PrioDriver,
		Period: 20 * time.Millisecond, WCET: 120 * time.Microsecond,
		AccessRate: 5e6, MemBound: 0.5,
		Work: func(now time.Duration) {
			d.lastBaro = d.suite.SampleBaro(d.state(), nowUS(now))
			var p []byte
			d.sendPayload, p = mavlink.AppendBaro(d.sendPayload[:0], d.lastBaro)
			d.sendToCCE(d.baroStream, mavlink.MsgIDBaro, p)
		},
	})
	// GPS/Vicon driver.
	d.CPU.Add(&sched.Task{
		Name: "drv-gps", Core: CoreDriver, Priority: sched.PrioDriver,
		Period: 100 * time.Millisecond, WCET: 150 * time.Microsecond,
		AccessRate: 5e6, MemBound: 0.5,
		Work: func(now time.Duration) {
			d.lastGPS = d.suite.SampleGPS(d.state(), nowUS(now))
			d.hostEst.FeedFix(d.lastGPS)
			var p []byte
			d.sendPayload, p = mavlink.AppendGPS(d.sendPayload[:0], d.lastGPS)
			d.sendToCCE(d.gpsStream, mavlink.MsgIDGPS, p)
		},
	})
	// RC driver.
	d.CPU.Add(&sched.Task{
		Name: "drv-rc", Core: CoreDriver, Priority: sched.PrioDriver,
		Period: 20 * time.Millisecond, WCET: 100 * time.Microsecond,
		AccessRate: 4e6, MemBound: 0.5,
		Work: func(now time.Duration) {
			d.lastRC = d.rcScript.Sample(nowUS(now))
			var p []byte
			d.sendPayload, p = mavlink.AppendRC(d.sendPayload[:0], d.lastRC)
			d.sendToCCE(d.rcStream, mavlink.MsgIDRC, p)
		},
	})
	// PWM output: applies the selected actuator command to the ESCs.
	d.pwmTask = d.CPU.Add(&sched.Task{
		Name: "drv-pwm", Core: CoreDriver, Priority: sched.PrioDriver,
		Period: 2500 * time.Microsecond, WCET: 150 * time.Microsecond,
		AccessRate: 8e6, MemBound: 0.5,
		Work: func(now time.Duration) { d.setMotors(d.selectCommand()) },
	})
	// Safety controller: hot standby on every sensor update.
	d.CPU.Add(&sched.Task{
		Name: "safety-ctl", Core: CoreSafety, Priority: sched.PrioSafety,
		Period: 4 * time.Millisecond, WCET: 500 * time.Microsecond,
		AccessRate: 10e6, MemBound: 0.6,
		Work: func(now time.Duration) {
			d.safetyCmd = d.safetyCtl.Compute(d.hostInputs(), control.Setpoint{Pos: d.safetyTarget()})
		},
	})
	if d.sys.Cfg.ComplexInContainer {
		// HCE receiving thread: drains the motor port, decodes, and
		// forwards valid commands to the PWM path.
		d.recvTask = d.CPU.Add(&sched.Task{
			Name: "hce-recv", Core: CoreSafety, Priority: 50,
			Period: 2500 * time.Microsecond, WCET: 150 * time.Microsecond,
			AccessRate: 6e6, MemBound: 0.4,
			Work: d.drainMotorPort,
		})
		// Security monitor task.
		d.CPU.Add(&sched.Task{
			Name: "sec-monitor", Core: CoreSafety, Priority: 60,
			Period: 10 * time.Millisecond, WCET: 60 * time.Microsecond,
			AccessRate: 2e6, MemBound: 0.3,
			Work: func(now time.Duration) {
				refRoll, refPitch, _ := d.safetyCtl.AttitudeSetpoint()
				est := d.hostEst.State()
				roll, pitch, _ := est.Attitude.Euler()
				d.Monitor.Check(now, monitor.AttitudeError(refRoll, refPitch, roll, pitch))
				posErr := est.Pos.Sub(d.safetyTarget()).Norm()
				d.Monitor.CheckEnvelope(now, posErr, est.Vel.Z)
			},
		})
	}
}

// drainMotorPort is the receiving thread's job: up to 16 datagrams per
// 2.5 ms period — the bounded service rate the UDP flood overwhelms.
func (d *Drone) drainMotorPort(now time.Duration) {
	for i := 0; i < 16; i++ {
		pkt, ok := d.hceMotorEP.Recv()
		if !ok {
			return
		}
		frame, _, err := mavlink.Decode(pkt.Payload)
		if err != nil || frame.MsgID != mavlink.MsgIDMotor {
			d.garbage++
			continue
		}
		cmd, err := mavlink.DecodeMotor(frame.Payload)
		if err != nil {
			d.garbage++
			continue
		}
		if len(d.replayFrames) < d.replayMax {
			// Copy: pkt.Payload is a pooled buffer, invalid after the
			// next receive call on this endpoint.
			d.replayFrames = append(d.replayFrames, append([]byte(nil), pkt.Payload...))
		}
		d.complexCmd = cmd.Motors
		d.complexCmdAt = now
		d.motorStream.Packets++
		d.Monitor.NoteComplexOutput(now)
	}
}

// hostInputs assembles controller inputs from the host estimator's
// fused state plus the raw barometer/RC channels, into a reused
// scratch field (fully overwritten on every call, so no restore needs
// to rewind it).
func (d *Drone) hostInputs() *control.Inputs {
	d.hostIn = control.Inputs{
		IMU:  d.hostEst.Inputs(d.lastBaro, d.lastRC),
		GPS:  d.hostEst.GPSLike(),
		Baro: d.lastBaro,
		RC:   d.lastRC,
	}
	return &d.hostIn
}

// safetyTarget returns the safety controller's setpoint. Followers
// hold their formation slot. For the leader's static flights it is the
// configured setpoint; during a mission it shadows the vehicle until a
// Simplex switch and then freezes, so failover means "hold position
// here", not "fly the rest of the mission".
func (d *Drone) safetyTarget() physics.Vec3 {
	if d.idx > 0 {
		return d.fleetSP
	}
	if d.mission == nil {
		return d.initPos
	}
	if d.Monitor.Output() == monitor.OutputComplex {
		d.holdSP = d.hostEst.State().Pos
	}
	return d.holdSP
}

// complexSetpoint advances the mission (leader only) and returns the
// setpoint the complex controller tracks this cycle; followers track
// their formation slot as broadcast by the GCS.
func (d *Drone) complexSetpoint(now time.Duration, pos physics.Vec3, dt float64) control.Setpoint {
	if d.idx > 0 {
		d.curSetpoint = d.fleetSP
		return control.Setpoint{Pos: d.fleetSP}
	}
	if d.mission == nil {
		return control.Setpoint{Pos: d.initPos}
	}
	sp := d.mission.Update(now, pos, dt)
	d.curSetpoint = sp.Pos
	return sp
}

// selectCommand is the Simplex decision point: the PWM driver applies
// the complex controller's output until the monitor switches.
func (d *Drone) selectCommand() [4]float64 {
	if !d.sys.Cfg.ComplexInContainer {
		return d.hostCmd
	}
	if d.Monitor.Output() == monitor.OutputSafety {
		return d.safetyCmd
	}
	return d.complexCmd
}

// buildCCEController starts the PX4-style complex controller inside
// the container: it consumes the sensor stream from port 14660 and
// emits motor frames to host port 14600 at 400 Hz (Table I).
func (d *Drone) buildCCEController() error {
	// Per-run input cache and stream sequence live on the Drone (so a
	// restore rewinds them); the encode scratch is reused across jobs:
	// Container.Send copies the frame into the network pool before
	// returning.
	task := &sched.Task{
		Name: "px4-complex", Core: CoreContainer, Priority: sched.PrioContainer,
		Period: 2500 * time.Microsecond, WCET: 900 * time.Microsecond,
		AccessRate: 25e6, MemBound: 0.6,
		Work: func(now time.Duration) {
			// Drain the sensor port into the input cache.
			for {
				pkt, ok := d.cceSensorEP.Recv()
				if !ok {
					break
				}
				frame, _, err := mavlink.Decode(pkt.Payload)
				if err != nil {
					continue
				}
				switch frame.MsgID {
				case mavlink.MsgIDIMU:
					if r, err := mavlink.DecodeIMU(frame.Payload); err == nil {
						d.cceEst.FeedIMU(r)
					}
				case mavlink.MsgIDBaro:
					if r, err := mavlink.DecodeBaro(frame.Payload); err == nil {
						d.cceIn.Baro = r
					}
				case mavlink.MsgIDGPS:
					if r, err := mavlink.DecodeGPS(frame.Payload); err == nil {
						d.cceEst.FeedFix(r)
					}
				case mavlink.MsgIDRC:
					if r, err := mavlink.DecodeRC(frame.Payload); err == nil {
						d.cceIn.RC = r
					}
				}
			}
			d.cceIn.IMU = d.cceEst.Inputs(d.cceIn.Baro, d.cceIn.RC)
			d.cceIn.GPS = d.cceEst.GPSLike()
			cmd := d.complexCtl.Compute(&d.cceIn, d.complexSetpoint(now, d.cceIn.GPS.Pos, 1.0/400))
			d.cceSeq++
			var payload []byte
			d.cceMotorPayload, payload = mavlink.AppendMotor(d.cceMotorPayload[:0], mavlink.MotorCommand{
				TimeUS: nowUS(now), Motors: cmd, Seq: d.cceSeq, Armed: true,
			})
			d.cceMotorFrame = mavlink.AppendEncode(d.cceMotorFrame[:0], mavlink.Frame{
				Seq: uint8(d.cceSeq), SysID: 2, CompID: 1, MsgID: mavlink.MsgIDMotor, Payload: payload,
			})
			// Best-effort UDP: namespace violations would be bugs, but
			// a full fabric just drops.
			_ = d.CCE.Send(9001, PortMotor, d.cceMotorFrame)
		},
	}
	if err := d.CCE.StartTask(task); err != nil {
		return err
	}
	d.complexTask = task
	return nil
}

// buildHostComplexController runs the complex controller on the host
// (the memory-DoS experiment's deployment).
func (d *Drone) buildHostComplexController() {
	d.CPU.Add(&sched.Task{
		Name: "px4-host", Core: CoreHost, Priority: 30,
		Period: 4 * time.Millisecond, WCET: 1200 * time.Microsecond,
		AccessRate: 30e6, MemBound: 0.8,
		Work: func(now time.Duration) {
			in := d.hostInputs()
			d.hostCmd = d.complexCtl.Compute(in, d.complexSetpoint(now, in.GPS.Pos, 1.0/250))
		},
	})
}

// buildEngineProcs registers the member's per-tick infrastructure:
// scheduler, wind, physics, telemetry. (Network delivery is fabric-
// global and registered once by the System.) Members register in index
// order, so same-priority procs across members keep a deterministic
// member-order execution.
func (d *Drone) buildEngineProcs() {
	s := d.sys
	s.Engine.Register(s.comp(d.idx, "sched"), sim.Tick, prioSched, sim.ProcFunc(func(now time.Duration) {
		d.CPU.Tick(now)
	}))
	if d.wind != nil {
		s.airframeProcs = append(s.airframeProcs,
			s.Engine.Register(s.comp(d.idx, "wind"), 10*time.Millisecond, 19, sim.ProcFunc(func(now time.Duration) {
				d.setDisturbance(d.wind.Step(0.01), physics.Vec3{})
			})))
	}
	s.Engine.Register(s.comp(d.idx, "physics"), sim.Tick, prioPhysics, sim.ProcFunc(func(now time.Duration) {
		// The leader's proc hands an airframe helper the whole fleet's
		// step; the other members' procs then have nothing to do.
		if d.idx == 0 {
			s.issueStep()
		}
		if s.helper != nil {
			return
		}
		d.Quad.Step(physDT)
		if crashed, at := d.Quad.Crashed(); crashed {
			d.noteCrash(now, at)
		}
	}))
	period := time.Duration(float64(time.Second) / s.Cfg.TelemetryRate)
	s.Engine.Register(s.comp(d.idx, "telemetry"), period, 30, sim.ProcFunc(func(now time.Duration) {
		st := d.state()
		roll, pitch, yaw := st.RollPitchYaw()
		src := "complex"
		if !s.Cfg.ComplexInContainer {
			src = "host"
		} else if d.Monitor.Output() == monitor.OutputSafety {
			src = "safety"
		}
		sp := d.curSetpoint
		if d.mission != nil && d.Monitor.Output() == monitor.OutputSafety {
			sp = d.holdSP
		}
		sample := telemetry.Sample{
			Time: now, Setpoint: sp, Position: st.Pos,
			Roll: roll, Pitch: pitch, Yaw: yaw, Source: src,
		}
		d.Log.Add(sample)
		if d.idx == 0 && s.Hooks.OnSample != nil {
			s.Hooks.OnSample(now, sample)
		}
	}))
}
