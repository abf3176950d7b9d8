// Package sensors models the Navio2 sensor suite and the Vicon indoor
// positioning feed of the paper's testbed. Each sensor samples the
// physics ground truth at the paper's Table-I rate, adding bias and
// noise drawn from a deterministic RNG.
//
// Rates (Table I of the paper): IMU 250 Hz, barometer 50 Hz, GPS
// 10 Hz, RC 50 Hz; the Vicon feed substitutes for GPS position indoors
// and is modeled at the GPS rate.
package sensors

import "containerdrone/internal/physics"

// Table-I sensor stream rates in hertz.
const (
	IMURate  = 250
	BaroRate = 50
	GPSRate  = 10
	RCRate   = 50
)

// IMUReading is one inertial sample: body angular rates and the
// attitude estimate fused onboard (the Navio2 carries two IMU chips;
// the EKF attitude solution is modeled directly).
type IMUReading struct {
	TimeUS uint64       // sample time, microseconds
	Gyro   physics.Vec3 // body rates, rad/s
	Accel  physics.Vec3 // body acceleration, m/s² (including gravity reaction)
	Quat   physics.Quat // fused attitude estimate
}

// BaroReading is one barometric altitude sample.
type BaroReading struct {
	TimeUS   uint64
	Pressure float64 // Pa
	AltM     float64 // derived altitude, m
	TempC    float64
}

// GPSReading is one position fix. Indoors the Vicon motion-capture
// system supplies this stream (ViconMAVLink in the paper); the field
// layout is the same.
type GPSReading struct {
	TimeUS  uint64
	Pos     physics.Vec3 // local frame, m
	Vel     physics.Vec3 // m/s
	NumSats uint8
	FixOK   bool
}

// RCReading is one radio-control input frame: normalized stick
// positions plus the flight-mode switch.
type RCReading struct {
	TimeUS   uint64
	Roll     float64 // [-1, 1]
	Pitch    float64 // [-1, 1]
	Yaw      float64 // [-1, 1]
	Throttle float64 // [0, 1]
	Mode     FlightMode
}

// FlightMode is the RC mode-switch position.
type FlightMode uint8

const (
	// ModeManual passes stick inputs to attitude control directly.
	ModeManual FlightMode = iota
	// ModePosition holds a 3D position setpoint (the mode every
	// experiment in the paper flies in).
	ModePosition
)

// String returns the mode name.
func (m FlightMode) String() string {
	switch m {
	case ModeManual:
		return "manual"
	case ModePosition:
		return "position"
	default:
		return "unknown"
	}
}

// Noise configures the stochastic error models. The zero value is a
// perfect (noise-free) sensor suite, which tests rely on.
type Noise struct {
	GyroSigma  float64 // rad/s
	AccelSigma float64 // m/s²
	BaroSigma  float64 // m
	PosSigma   float64 // m (Vicon is millimeter-accurate; GPS is not)
	VelSigma   float64 // m/s
	GyroBias   physics.Vec3
}

// DefaultNoise returns noise levels matching a Navio2-class IMU with
// Vicon positioning.
func DefaultNoise() Noise {
	return Noise{
		GyroSigma:  0.002,
		AccelSigma: 0.02,
		BaroSigma:  0.08,
		PosSigma:   0.002, // Vicon: ~2 mm
		VelSigma:   0.01,
		GyroBias:   physics.Vec3{X: 0.001, Y: -0.0005, Z: 0.0008},
	}
}

// NormSource supplies standard normal samples; sim.RNG.Norm satisfies
// it via a closure.
type NormSource func() float64

// Faults is the suite's live fault-injection state, driven by the
// fault layer while a sensor fault's window is open. The zero value
// is a healthy suite; every field composes with the noise model.
type Faults struct {
	// GPSOffset shifts every position fix — a GPS/Vicon spoofer
	// steering the vehicle by lying about where it is.
	GPSOffset physics.Vec3
	// GyroBias adds to the gyro channel on top of Noise.GyroBias — a
	// thermally drifting or tampered IMU.
	GyroBias physics.Vec3
	// BaroFrozen makes SampleBaro return the last healthy reading
	// (stale timestamp included) — a wedged barometer driver.
	BaroFrozen bool
}

// Suite samples an airframe's rigid-body state into sensor readings.
type Suite struct {
	Noise Noise
	norm  NormSource

	st SuiteState
}

// NewSuite builds a sensor suite; norm may be nil for a noise-free
// suite (all sigmas must then be zero to be meaningful).
func NewSuite(noise Noise, norm NormSource) *Suite {
	if norm == nil {
		norm = func() float64 { return 0 }
	}
	return &Suite{Noise: noise, norm: norm}
}

// SetFaults replaces the live fault state; the zero value heals the
// suite. Called by fault injectors at window boundaries and, for
// time-varying faults (GPS spoof drift), from their Step cadence.
func (s *Suite) SetFaults(f Faults) { s.st.faults = f }

// Faults returns the current fault state.
func (s *Suite) Faults() Faults { return s.st.faults }

// SuiteState is the suite's per-run state, which a snapshot holds
// whole: the live fault injection and the barometer history. The
// noise model and noise source stay with their owners (the RNG stream
// is captured separately).
type SuiteState struct {
	faults   Faults
	lastBaro BaroReading
	haveBaro bool
}

// SnapshotInto captures the suite's dynamic state into st.
func (s *Suite) SnapshotInto(st *SuiteState) { *st = s.st }

// RestoreFrom rewinds the suite to a captured state, keeping its own
// noise source.
func (s *Suite) RestoreFrom(st *SuiteState) { s.st = *st }

func (s *Suite) n(sigma float64) float64 {
	if sigma == 0 {
		return 0
	}
	return sigma * s.norm()
}

// SampleIMU reads the inertial state at the given time; gravity is the
// airframe's gravitational acceleration, m/s² positive down.
func (s *Suite) SampleIMU(st physics.State, gravity float64, timeUS uint64) IMUReading {
	gyro := st.Omega.Add(s.Noise.GyroBias)
	gyro = gyro.Add(s.st.faults.GyroBias)
	gyro = gyro.Add(physics.Vec3{X: s.n(s.Noise.GyroSigma), Y: s.n(s.Noise.GyroSigma), Z: s.n(s.Noise.GyroSigma)})
	// Specific force in body frame: attitude⁻¹ · (a - g), with the quad
	// near equilibrium this is ≈ -g rotated into body.
	down := physics.Vec3{Z: -gravity}
	specific := st.Attitude.Conj().Rotate(down.Scale(-1))
	specific = specific.Add(physics.Vec3{X: s.n(s.Noise.AccelSigma), Y: s.n(s.Noise.AccelSigma), Z: s.n(s.Noise.AccelSigma)})
	return IMUReading{TimeUS: timeUS, Gyro: gyro, Accel: specific, Quat: st.Attitude}
}

// SampleBaro reads barometric altitude using the standard-atmosphere
// pressure lapse near sea level.
func (s *Suite) SampleBaro(st physics.State, timeUS uint64) BaroReading {
	if s.st.faults.BaroFrozen && s.st.haveBaro {
		return s.st.lastBaro // wedged driver: stale reading, stale timestamp
	}
	alt := st.Pos.Z + s.n(s.Noise.BaroSigma)
	const p0 = 101325.0 // Pa
	pressure := p0 * (1 - 2.25577e-5*alt)
	r := BaroReading{TimeUS: timeUS, Pressure: pressure, AltM: alt, TempC: 22.0}
	s.st.lastBaro, s.st.haveBaro = r, true
	return r
}

// SampleGPS reads the Vicon/GPS position fix.
func (s *Suite) SampleGPS(st physics.State, timeUS uint64) GPSReading {
	pos := st.Pos.Add(s.st.faults.GPSOffset)
	pos = pos.Add(physics.Vec3{X: s.n(s.Noise.PosSigma), Y: s.n(s.Noise.PosSigma), Z: s.n(s.Noise.PosSigma)})
	vel := st.Vel.Add(physics.Vec3{X: s.n(s.Noise.VelSigma), Y: s.n(s.Noise.VelSigma), Z: s.n(s.Noise.VelSigma)})
	return GPSReading{TimeUS: timeUS, Pos: pos, Vel: vel, NumSats: 12, FixOK: true}
}
