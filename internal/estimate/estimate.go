// Package estimate implements the onboard state estimator of the
// flight stack: a quaternion complementary filter for attitude (gyro
// integration corrected toward the accelerometer's gravity direction)
// and a constant-velocity position filter corrected by GPS/Vicon
// fixes. PX4 runs an EKF in this role; the complementary structure
// reproduces the property that matters to the paper's experiments —
// estimate quality degrades with sensor staleness, so a DoS attack
// that slows the IMU driver corrupts the state the controllers act on.
package estimate

import (
	"math"

	"containerdrone/internal/physics"
	"containerdrone/internal/sensors"
)

// Config sets the filter gains.
type Config struct {
	// AttCorrGain blends the accelerometer gravity direction into the
	// gyro-integrated attitude, 1/s. Small: trust the gyro short-term.
	AttCorrGain float64
	// PosCorrGain blends position fixes into the dead-reckoned
	// position, 1/s at fix time.
	PosCorrGain float64
	// VelCorrGain blends fix velocity into the filtered velocity.
	VelCorrGain float64
	// MaxCoast is the longest IMU gap integrated as-is; beyond it the
	// filter declares itself unhealthy until the next fix.
	MaxCoastUS uint64
	// Home is the position the filter starts at, before
	// any fix arrives. A vehicle launched from a surveyed pad — a
	// fleet member holding its formation slot — knows where it is;
	// leaving Home zero reproduces the cold-start filter that dead
	// reckons from the origin until the first fix.
	Home physics.Vec3
}

// DefaultConfig returns gains matching a Navio2-grade IMU with Vicon
// position fixes.
func DefaultConfig() Config {
	return Config{
		AttCorrGain: 0.5,
		PosCorrGain: 8,
		VelCorrGain: 4,
		MaxCoastUS:  200_000, // 200 ms
	}
}

// State is the estimator output.
type State struct {
	Attitude physics.Quat
	Omega    physics.Vec3
	Pos      physics.Vec3
	Vel      physics.Vec3
	TimeUS   uint64
	Healthy  bool
}

// Filter is the estimator. It is fed IMU samples (high rate) and
// position fixes (low rate) and produces a fused state.
type Filter struct {
	cfg    Config
	st     State
	primed bool
	// staleness accounting
	lastIMUUS uint64
	lastFixUS uint64
}

// New builds a filter with the given config.
func New(cfg Config) *Filter {
	f := &Filter{cfg: cfg}
	f.st.Attitude = physics.IdentityQuat()
	f.st.Pos = cfg.Home
	return f
}

// State returns the current estimate.
func (f *Filter) State() State { return f.st }

// IMUStalenessUS returns the age of the newest IMU sample relative to
// the given time — the signal a starved driver shows up in.
func (f *Filter) IMUStalenessUS(nowUS uint64) uint64 {
	if !f.primed || nowUS < f.lastIMUUS {
		return 0
	}
	return nowUS - f.lastIMUUS
}

// FeedIMU integrates one inertial sample.
func (f *Filter) FeedIMU(r sensors.IMUReading) {
	if !f.primed {
		f.primed = true
		f.st.Attitude = attitudeFromAccel(r.Accel)
		f.st.Omega = r.Gyro
		f.st.TimeUS = r.TimeUS
		f.lastIMUUS = r.TimeUS
		f.st.Healthy = true
		return
	}
	dtUS := r.TimeUS - f.lastIMUUS
	if r.TimeUS < f.lastIMUUS {
		return // out-of-order sample: drop
	}
	dt := float64(dtUS) / 1e6
	if dtUS > f.cfg.MaxCoastUS {
		// Too long a gap to integrate: hold attitude, mark unhealthy.
		f.st.Healthy = false
		f.lastIMUUS = r.TimeUS
		f.st.TimeUS = r.TimeUS
		f.st.Omega = r.Gyro
		return
	}
	// Gyro integration.
	f.st.Attitude = f.st.Attitude.Integrate(r.Gyro, dt)
	f.st.Omega = r.Gyro

	// Accelerometer correction: rotate measured specific force into
	// world; at modest accelerations it points up. Tilt the attitude a
	// little toward agreement.
	acc := r.Accel
	norm := acc.Norm()
	if norm > 1e-6 {
		worldUp := physics.Vec3{Z: 1}
		measUp := f.st.Attitude.Rotate(acc.Scale(1 / norm))
		corr := measUp.Cross(worldUp) // rotation axis & magnitude toward agreement
		gain := f.cfg.AttCorrGain * dt
		if gain > 0 {
			f.st.Attitude = f.st.Attitude.Integrate(
				f.st.Attitude.Conj().Rotate(corr.Scale(gain/dt)), dt).Normalized()
		}
	}

	// Inertial mechanization: rotate the specific force into the
	// world frame, remove gravity, and integrate velocity then
	// position. Fixes correct the accumulated drift at their rate.
	worldAcc := f.st.Attitude.Rotate(acc).Sub(physics.Vec3{Z: gravityMS2})
	f.st.Vel = f.st.Vel.Add(worldAcc.Scale(dt))
	f.st.Pos = f.st.Pos.Add(f.st.Vel.Scale(dt))
	f.st.TimeUS = r.TimeUS
	f.lastIMUUS = r.TimeUS
	f.st.Healthy = true
}

// gravityMS2 is the gravity the mechanization removes; it matches the
// physics model's constant.
const gravityMS2 = 9.81

// FeedFix folds a GPS/Vicon position fix in.
func (f *Filter) FeedFix(r sensors.GPSReading) {
	if !r.FixOK {
		return
	}
	if !f.primed {
		f.st.Pos = r.Pos
		f.st.Vel = r.Vel
		f.lastFixUS = r.TimeUS
		return
	}
	var dt float64
	if r.TimeUS > f.lastFixUS {
		dt = float64(r.TimeUS-f.lastFixUS) / 1e6
	}
	f.lastFixUS = r.TimeUS
	// Exponential pull toward the fix; a long-overdue fix snaps.
	pGain := clamp01(f.cfg.PosCorrGain * dt)
	vGain := clamp01(f.cfg.VelCorrGain * dt)
	if dt == 0 || dt > 1 {
		pGain, vGain = 1, 1
	}
	f.st.Pos = f.st.Pos.Add(r.Pos.Sub(f.st.Pos).Scale(pGain))
	f.st.Vel = f.st.Vel.Add(r.Vel.Sub(f.st.Vel).Scale(vGain))
	f.st.Healthy = true
}

// Inputs assembles controller inputs from the fused state plus the
// raw barometer/RC channels: the estimator substitutes only the
// attitude and position/velocity sources.
func (f *Filter) Inputs(baro sensors.BaroReading, rc sensors.RCReading) sensors.IMUReading {
	return sensors.IMUReading{
		TimeUS: f.st.TimeUS,
		Gyro:   f.st.Omega,
		Quat:   f.st.Attitude,
	}
}

// GPSLike returns the fused position/velocity in GPS-reading form so
// downstream code consumes estimator output through the same type.
func (f *Filter) GPSLike() sensors.GPSReading {
	return sensors.GPSReading{
		TimeUS:  f.st.TimeUS,
		Pos:     f.st.Pos,
		Vel:     f.st.Vel,
		FixOK:   f.st.Healthy,
		NumSats: 12,
	}
}

// attitudeFromAccel levels the initial attitude from the measured
// gravity direction (yaw unobservable: set to zero).
func attitudeFromAccel(acc physics.Vec3) physics.Quat {
	n := acc.Norm()
	if n < 1e-6 {
		return physics.IdentityQuat()
	}
	a := acc.Scale(1 / n)
	// Roll/pitch that map body 'up' to the measured direction.
	roll := math.Atan2(-a.Y, a.Z)
	pitch := math.Atan2(a.X, math.Sqrt(a.Y*a.Y+a.Z*a.Z))
	return physics.FromEuler(roll, pitch, 0)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
