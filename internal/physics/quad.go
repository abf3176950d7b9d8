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

// rotor geometry: position signs (x forward, y left) per rotor index.
var rotorGeom = [4]struct{ x, y, dir float64 }{
	{+1, -1, +1}, // 0 front-right CCW
	{-1, +1, +1}, // 1 back-left   CCW
	{+1, +1, -1}, // 2 front-left  CW
	{-1, -1, -1}, // 3 back-right  CW
}

// NewQuad builds a quadrotor at the origin, level, at rest.
func NewQuad(p Params) *Quad {
	q := &Quad{Params: p}
	q.State.Attitude = IdentityQuat()
	for i := range q.Rotors {
		q.Rotors[i] = Rotor{
			MaxThrust:    p.MaxThrustPerRotor,
			TorqueCoeff:  p.TorqueCoeff,
			TimeConstant: p.RotorTimeConst,
			Direction:    rotorGeom[i].dir,
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
func (q *Quad) Step(dt float64) {
	if q.crashed {
		q.elapsed += dt
		return
	}
	p := &q.Params

	// Rotor dynamics.
	totalThrust := 0.0
	var torque Vec3
	for i := range q.Rotors {
		r := &q.Rotors[i]
		r.Step(dt)
		t := r.Thrust()
		totalThrust += t
		g := rotorGeom[i]
		// Arm torque is r × F with r=(x·L, y·L, 0), F=(0,0,t):
		// τ = (y·L·t, −x·L·t, 0), plus the propeller reaction about Z
		// (ReactionTorque with the thrust already in hand).
		torque.X += g.y * p.ArmLen * t
		torque.Y += -g.x * p.ArmLen * t
		torque.Z += r.Direction * r.TorqueCoeff * t
	}

	// Forces in world frame: thrust along body Z, gravity, drag, wind.
	bodyZ := q.State.Attitude.UpVector()
	force := bodyZ.Scale(totalThrust)
	force.Z -= p.Mass * p.Gravity
	force = force.Add(q.State.Vel.Scale(-p.LinDrag))
	force = force.Add(q.disturb)

	// Torques in body frame: rotor torques, damping, disturbance,
	// gyroscopic term ω × Iω.
	iw := Vec3{p.Ixx * q.State.Omega.X, p.Iyy * q.State.Omega.Y, p.Izz * q.State.Omega.Z}
	gyro := q.State.Omega.Cross(iw)
	torque = torque.Sub(gyro)
	torque = torque.Add(q.State.Omega.Scale(-p.AngDrag))
	torque = torque.Add(q.disturbTrq)

	// Semi-implicit Euler: update rates first, then pose.
	accel := force.Scale(1 / p.Mass)
	q.State.Vel = q.State.Vel.Add(accel.Scale(dt))
	q.State.Pos = q.State.Pos.Add(q.State.Vel.Scale(dt))

	alpha := Vec3{torque.X / p.Ixx, torque.Y / p.Iyy, torque.Z / p.Izz}
	q.State.Omega = q.State.Omega.Add(alpha.Scale(dt))
	q.State.Attitude = q.State.Attitude.Integrate(q.State.Omega, dt)

	q.elapsed += dt

	// Crash envelope: ground contact while moving, or inverted. The
	// tilt test compares cosines (monotone on [0, π]) to keep the
	// arccosine off the per-tick path.
	if q.State.Pos.Z <= 0 && q.elapsed > 0.5 {
		q.crash()
	}
	if q.State.Attitude.CosTilt() < crashCosTilt {
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
