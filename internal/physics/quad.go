package physics

import (
	"fmt"
	"math"
)

// State is the full rigid-body state of the quadrotor.
type State struct {
	Pos      Vec3 // world position, m
	Vel      Vec3 // world velocity, m/s
	Attitude Quat // body-to-world rotation
	Omega    Vec3 // body angular rate, rad/s
}

// Roll, Pitch, Yaw extract Euler angles from the attitude.
func (s State) RollPitchYaw() (roll, pitch, yaw float64) { return s.Attitude.Euler() }

// Params describes the airframe. DefaultParams matches a ~1.2 kg
// RPi3B+Navio2 class quadcopter in X configuration.
type Params struct {
	Mass    float64 // kg
	ArmLen  float64 // m, rotor distance from center
	Ixx     float64 // kg·m², roll inertia
	Iyy     float64 // kg·m², pitch inertia
	Izz     float64 // kg·m², yaw inertia
	LinDrag float64 // N per m/s, linear aero drag
	AngDrag float64 // N·m per rad/s, rotational damping

	MaxThrustPerRotor float64 // N
	RotorTimeConst    float64 // s
	TorqueCoeff       float64 // N·m per N

	Gravity float64 // m/s², positive down
}

// DefaultParams returns the prototype-drone airframe used by every
// experiment in this reproduction.
func DefaultParams() Params {
	return Params{
		Mass:              1.2,
		ArmLen:            0.16,
		Ixx:               0.012,
		Iyy:               0.012,
		Izz:               0.022,
		LinDrag:           0.25,
		AngDrag:           0.003,
		MaxThrustPerRotor: 6.0, // ~2:1 thrust-to-weight
		RotorTimeConst:    0.04,
		TorqueCoeff:       0.016,
		Gravity:           9.81,
	}
}

// Quad is the 6-DOF quadrotor body with four rotors in X
// configuration:
//
//	rotor 0: front-right, CCW     rotor 1: back-left,  CCW
//	rotor 2: front-left,  CW      rotor 3: back-right, CW
//
// (the PX4/quad-x numbering used by the motor mixer).
type Quad struct {
	Params Params
	State  State
	Rotors [4]Rotor

	crashed    bool
	crashTime  float64
	disturb    Vec3 // external force, N (wind gusts etc.)
	disturbTrq Vec3 // external torque, N·m
	elapsed    float64
}

// rotorDir is each rotor's spin direction (+1 CCW, −1 CW), in the
// quad-x order documented on Quad.
var rotorDir = [4]float64{+1, +1, -1, -1}

// NewQuad builds a quadrotor at the origin, level, at rest.
func NewQuad(p Params) *Quad {
	q := &Quad{Params: p}
	q.State.Attitude = IdentityQuat()
	for i := range q.Rotors {
		q.Rotors[i] = Rotor{
			MaxThrust:    p.MaxThrustPerRotor,
			TorqueCoeff:  p.TorqueCoeff,
			TimeConstant: p.RotorTimeConst,
			Direction:    rotorDir[i],
		}
	}
	return q
}

// SetMotors applies normalized throttle commands to the four rotors.
func (q *Quad) SetMotors(u [4]float64) {
	for i := range q.Rotors {
		q.Rotors[i].SetCommand(u[i])
	}
}

// Motors returns the currently commanded throttles.
func (q *Quad) Motors() [4]float64 {
	var u [4]float64
	for i := range q.Rotors {
		u[i] = q.Rotors[i].Command()
	}
	return u
}

// SettleRotors snaps all rotors to their commanded throttle, skipping
// the spin-up transient. Call during scenario setup for a vehicle that
// begins the run already in stable flight.
func (q *Quad) SettleRotors() {
	for i := range q.Rotors {
		q.Rotors[i].Settle()
	}
}

// SetRotorEfficiency degrades (or restores) one rotor's thrust
// efficiency — the airframe surface of the rotor-decay fault. The
// index is the quad-x rotor number; e is clamped to [0,1].
func (q *Quad) SetRotorEfficiency(i int, e float64) {
	q.Rotors[i].SetEfficiency(e)
}

// SetDisturbance applies an external world-frame force (N) and body
// torque (N·m), held until changed. Used by the wind model.
func (q *Quad) SetDisturbance(force, torque Vec3) {
	q.disturb = force
	q.disturbTrq = torque
}

// HoverThrottle returns the per-rotor throttle that balances gravity
// at level attitude — the natural trim point for the controllers.
func (q *Quad) HoverThrottle() float64 {
	perRotor := q.Params.Mass * q.Params.Gravity / 4
	return math.Sqrt(perRotor / q.Params.MaxThrustPerRotor)
}

// Crashed reports whether the vehicle has hit the ground (or flipped
// past recovery) and, if so, at what simulated time in seconds.
func (q *Quad) Crashed() (bool, float64) { return q.crashed, q.crashTime }

// Step integrates the body by dt seconds using semi-implicit Euler.
// Once crashed, the state freezes at the crash site.
//
// Step is the airframe's hot loop, so it works on scalar locals and
// makes one call, the attitude integrator. Every operation keeps the
// operands and association of the Vec3/Quat form it replaces, so
// trajectories are bit-identical to it (TestQuadStepMatchesReference).
func (q *Quad) Step(dt float64) {
	if q.crashed {
		q.elapsed += dt
		return
	}
	p := &q.Params
	s := &q.State

	// Rotor lag: a first-order lag from commanded to achieved throttle
	// — what makes a stale actuator command physically consequential.
	for i := range q.Rotors {
		r := &q.Rotors[i]
		if r.TimeConstant <= 0 {
			r.throttle = r.command
			continue
		}
		if dt != r.alphaDT || r.TimeConstant != r.alphaTau {
			r.alphaDT, r.alphaTau = dt, r.TimeConstant
			r.alpha = 1 - math.Exp(-dt/r.TimeConstant)
		}
		r.throttle += r.alpha * (r.command - r.throttle)
	}

	// Thrust and rotor torques. Arm torque is r × F with
	// r=(x·L, y·L, 0), F=(0,0,t): τ = (y·L·t, −x·L·t, 0), written out
	// with the quad-x signs of x and y; plus the propeller reaction
	// about Z. The sums start from zero, as accumulators would, so a
	// negative-zero term rounds the same way.
	rot := &q.Rotors
	t0, t1, t2, t3 := rot[0].Thrust(), rot[1].Thrust(), rot[2].Thrust(), rot[3].Thrust()
	l0, l1, l2, l3 := p.ArmLen*t0, p.ArmLen*t1, p.ArmLen*t2, p.ArmLen*t3
	thrust := 0.0 + t0 + t1 + t2 + t3
	tx := 0.0 - l0 + l1 + l2 - l3
	ty := 0.0 - l0 + l1 - l2 + l3
	tz := 0.0 + rot[0].Direction*rot[0].TorqueCoeff*t0 + rot[1].Direction*rot[1].TorqueCoeff*t1 +
		rot[2].Direction*rot[2].TorqueCoeff*t2 + rot[3].Direction*rot[3].TorqueCoeff*t3

	// Torques in body frame: rotor torques, minus the gyroscopic term
	// ω × Iω, plus damping and disturbance. Semi-implicit Euler updates
	// the rates first; the attitude integration starts from them here,
	// ahead of the force terms, so its long dependency chain overlaps
	// them.
	wx, wy, wz := s.Omega.X, s.Omega.Y, s.Omega.Z
	iwx, iwy, iwz := p.Ixx*wx, p.Iyy*wy, p.Izz*wz
	tx, ty, tz = tx-(wy*iwz-wz*iwy), ty-(wz*iwx-wx*iwz), tz-(wx*iwy-wy*iwx)
	tx, ty, tz = tx+wx*-p.AngDrag, ty+wy*-p.AngDrag, tz+wz*-p.AngDrag
	tx, ty, tz = tx+q.disturbTrq.X, ty+q.disturbTrq.Y, tz+q.disturbTrq.Z
	wx, wy, wz = wx+tx/p.Ixx*dt, wy+ty/p.Iyy*dt, wz+tz/p.Izz*dt
	s.Omega = Vec3{wx, wy, wz}
	up := s.Attitude.UpVector()
	s.Attitude = s.Attitude.Integrate(Vec3{wx, wy, wz}, dt)

	// Forces in world frame at the pre-step attitude: thrust along body
	// Z, gravity, drag, wind. Then velocity, and position from it.
	vx, vy, vz := s.Vel.X, s.Vel.Y, s.Vel.Z
	fx, fy, fz := up.X*thrust, up.Y*thrust, up.Z*thrust
	fz -= p.Mass * p.Gravity
	fx, fy, fz = fx+vx*-p.LinDrag, fy+vy*-p.LinDrag, fz+vz*-p.LinDrag
	fx, fy, fz = fx+q.disturb.X, fy+q.disturb.Y, fz+q.disturb.Z
	invMass := 1 / p.Mass
	vx, vy, vz = vx+fx*invMass*dt, vy+fy*invMass*dt, vz+fz*invMass*dt
	s.Vel = Vec3{vx, vy, vz}
	s.Pos = Vec3{s.Pos.X + vx*dt, s.Pos.Y + vy*dt, s.Pos.Z + vz*dt}

	q.elapsed += dt

	// Crash envelope: ground contact while moving, inverted, or a
	// state that is no longer finite. The tilt test compares cosines
	// (monotone on [0, π]) to keep the arccosine off the per-tick path;
	// it reads UpVector().Z directly because CosTilt's clamp to [−1, 1]
	// cannot move a value across crashCosTilt. It is negated so that a
	// NaN attitude fails it too, which is what crashes a non-finite
	// state: a non-finite rate, thrust or torque makes Integrate return
	// an all-NaN attitude in the same step. Only a non-finite force
	// disturbance, or a velocity that overflows, could leave the
	// attitude finite.
	if s.Pos.Z <= 0 && q.elapsed > 0.5 {
		q.crash()
	}
	if !(s.Attitude.UpVector().Z >= crashCosTilt) {
		q.crash()
	}
}

// crashCosTilt is cos(135°): tilting past it means inverted flight.
var crashCosTilt = math.Cos(math.Pi * 0.75)

func (q *Quad) crash() {
	if q.crashed {
		return
	}
	q.crashed = true
	q.crashTime = q.elapsed
	if q.State.Pos.Z < 0 {
		q.State.Pos.Z = 0
	}
	q.State.Vel = Vec3{}
	q.State.Omega = Vec3{}
}

// String summarizes the vehicle state.
func (q *Quad) String() string {
	r, p, y := q.State.RollPitchYaw()
	return fmt.Sprintf("pos=(%.2f,%.2f,%.2f) rpy=(%.1f°,%.1f°,%.1f°) crashed=%v",
		q.State.Pos.X, q.State.Pos.Y, q.State.Pos.Z,
		r*180/math.Pi, p*180/math.Pi, y*180/math.Pi, q.crashed)
}
