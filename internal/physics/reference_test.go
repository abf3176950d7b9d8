package physics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The reference airframe: Quad.Step, Rotor.Step and Quat.Integrate as
// they were written on Vec3/Quat values before the kernel was
// flattened to scalars. The flattened kernel must reproduce them bit
// for bit, because every golden digest and recorded campaign was
// flown on this math.

func refRotorStep(r *Rotor, dt float64) {
	if r.TimeConstant <= 0 {
		r.throttle = r.command
		return
	}
	if dt != r.alphaDT || r.TimeConstant != r.alphaTau {
		r.alphaDT, r.alphaTau = dt, r.TimeConstant
		r.alpha = 1 - math.Exp(-dt/r.TimeConstant)
	}
	r.throttle += r.alpha * (r.command - r.throttle)
}

func refIntegrate(q Quat, omega Vec3, dt float64) Quat {
	n := omega.Norm()
	angle := n * dt
	if angle == 0 {
		return q
	}
	a := omega.Scale(1 / n)
	half := angle / 2
	var s, c float64
	if sincosSmallOK(half) {
		s, c = sincosSmall(half)
	} else {
		s, c = math.Sincos(half)
	}
	dq := Quat{W: c, X: a.X * s, Y: a.Y * s, Z: a.Z * s}
	return q.Mul(dq).Normalized()
}

// refRotorGeom is the rotor position signs (x forward, y left) and
// spin direction per rotor index.
var refRotorGeom = [4]struct{ x, y, dir float64 }{
	{+1, -1, +1}, // 0 front-right CCW
	{-1, +1, +1}, // 1 back-left   CCW
	{+1, +1, -1}, // 2 front-left  CW
	{-1, -1, -1}, // 3 back-right  CW
}

func refQuadStep(q *Quad, dt float64) {
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
		refRotorStep(r, dt)
		t := r.Thrust()
		totalThrust += t
		g := refRotorGeom[i]
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
	q.State.Attitude = refIntegrate(q.State.Attitude, q.State.Omega, dt)

	q.elapsed += dt

	// Crash envelope: ground contact while moving, or inverted. The
	// tilt test compares cosines (monotone on [0, π]) to keep the
	// arccosine off the per-tick path; it is negated so that a NaN
	// attitude crashes too.
	if q.State.Pos.Z <= 0 && q.elapsed > 0.5 {
		refCrash(q)
	}
	if !(q.State.Attitude.CosTilt() >= crashCosTilt) {
		refCrash(q)
	}
}

func refCrash(q *Quad) {
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

// quadBits lists every per-run value of the airframe as raw bits, so
// that two quads compare equal only when they agree to the last bit,
// signed zeros included. NaNs are the exception: every NaN lists as
// one value, because when both operands of an operation are NaN the
// hardware returns one of them by operand position, and the compiler
// may order the operands of a commutative operation either way, so
// the source does not fix a NaN's sign or payload.
func quadBits(q *Quad) []uint64 {
	s := q.State
	f := []float64{
		s.Pos.X, s.Pos.Y, s.Pos.Z, s.Vel.X, s.Vel.Y, s.Vel.Z,
		s.Attitude.W, s.Attitude.X, s.Attitude.Y, s.Attitude.Z,
		s.Omega.X, s.Omega.Y, s.Omega.Z,
		q.elapsed, q.crashTime,
	}
	for _, r := range q.Rotors {
		f = append(f, r.throttle, r.alpha, r.alphaDT, r.alphaTau)
	}
	bits := make([]uint64, 0, len(f)+1)
	for _, v := range f {
		if math.IsNaN(v) {
			v = math.NaN()
		}
		bits = append(bits, math.Float64bits(v))
	}
	if q.crashed {
		bits = append(bits, 1)
	} else {
		bits = append(bits, 0)
	}
	return bits
}

// stepBoth steps q with Quad.Step and a copy with the reference, dt
// at a time, and fails at the first step where the two differ in any
// bit.
func stepBoth(t *testing.T, q *Quad, dts []float64) {
	t.Helper()
	ref := *q
	for i, dt := range dts {
		q.Step(dt)
		refQuadStep(&ref, dt)
		got, want := quadBits(q), quadBits(&ref)
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("step %d (dt=%v): value %d = %#x, reference %#x\ngot  %+v\nwant %+v",
					i, dt, j, got[j], want[j], q.State, ref.State)
			}
		}
	}
}

// randomQuad draws a vehicle in flight: an airframe near the default
// one, any attitude, body rates up to maxRate rad/s, uneven rotor
// commands partly spun up, and a wind force and torque.
func randomQuad(rng *rand.Rand, maxRate float64) *Quad {
	u := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	p := DefaultParams()
	p.Mass *= u(0.7, 1.5)
	p.Ixx *= u(0.7, 1.5)
	p.Iyy *= u(0.7, 1.5)
	p.Izz *= u(0.7, 1.5)
	p.ArmLen *= u(0.7, 1.5)
	q := NewQuad(p)
	q.State.Pos = Vec3{u(-50, 50), u(-50, 50), u(0.2, 30)}
	q.State.Vel = Vec3{u(-5, 5), u(-5, 5), u(-5, 5)}
	q.State.Attitude = FromEuler(u(-1, 1), u(-1, 1), u(-math.Pi, math.Pi))
	q.State.Omega = Vec3{u(-maxRate, maxRate), u(-maxRate, maxRate), u(-maxRate, maxRate)}
	q.SetMotors([4]float64{u(0, 1), u(0, 1), u(0, 1), u(0, 1)})
	q.SettleRotors()
	q.SetMotors([4]float64{u(-0.1, 1.1), u(-0.1, 1.1), u(-0.1, 1.1), u(-0.1, 1.1)})
	q.SetDisturbance(Vec3{u(-2, 2), u(-2, 2), u(-2, 2)}, Vec3{u(-0.05, 0.05), u(-0.05, 0.05), u(-0.05, 0.05)})
	q.elapsed = u(0, 20)
	return q
}

func repeatDT(dt float64, n int) []float64 {
	dts := make([]float64, n)
	for i := range dts {
		dts[i] = dt
	}
	return dts
}

// TestQuadStepMatchesReference flies seeded random vehicles through
// every branch of the kernel and compares each step with the
// reference bit for bit.
func TestQuadStepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name  string
		build func() *Quad
		dts   []float64
	}{
		{"flying", func() *Quad { return randomQuad(rng, 2) }, repeatDT(1e-4, 2000)},
		{"at-rest", func() *Quad {
			q := randomQuad(rng, 0)
			q.State.Vel = Vec3{}
			q.State.Omega = Vec3{}
			q.SetDisturbance(Vec3{}, Vec3{})
			h := q.HoverThrottle()
			q.SetMotors([4]float64{h, h, h, h})
			q.SettleRotors()
			return q
		}, repeatDT(1e-4, 50)},
		// Half-angles past π/4 take math.Sincos. A spin about one
		// principal axis keeps the gyroscopic term zero, so the state
		// stays finite at these rates.
		{"sincos-fallback", func() *Quad {
			q := randomQuad(rng, 0)
			q.State.Omega = Vec3{}
			switch axis, rate := rng.Intn(3), 160+240*rng.Float64(); axis {
			case 0:
				q.State.Omega.X = rate
			case 1:
				q.State.Omega.Y = -rate
			default:
				q.State.Omega.Z = rate
			}
			h := q.HoverThrottle()
			q.SetMotors([4]float64{h, h, h, h})
			q.SettleRotors()
			q.SetDisturbance(q.disturb, Vec3{})
			return q
		}, repeatDT(0.01, 40)},
		// Spun about all three axes this fast, the gyroscopic term
		// drives many vehicles' states non-finite.
		{"wild-spin", func() *Quad { return randomQuad(rng, 400) }, repeatDT(0.01, 40)},
		{"rotor-efficiency-loss", func() *Quad {
			q := randomQuad(rng, 2)
			q.SetRotorEfficiency(1, 0.3)
			q.SetRotorEfficiency(3, 0)
			return q
		}, repeatDT(1e-4, 2000)},
		{"no-rotor-lag", func() *Quad {
			q := randomQuad(rng, 2)
			for i := range q.Rotors {
				q.Rotors[i].TimeConstant = 0
			}
			return q
		}, repeatDT(1e-4, 500)},
		{"changing-dt", func() *Quad { return randomQuad(rng, 2) }, func() []float64 {
			dts := make([]float64, 600)
			for i := range dts {
				dts[i] = []float64{1e-4, 2.5e-4, 1e-3, 4e-3}[i%4]
			}
			return dts
		}()},
		{"ground-contact-crash", func() *Quad {
			q := randomQuad(rng, 1)
			q.State.Pos.Z = 0.05
			q.State.Vel.Z = -3
			q.SetMotors([4]float64{})
			q.elapsed = 1
			return q
		}, repeatDT(1e-4, 3000)},
		{"inversion-crash", func() *Quad {
			q := randomQuad(rng, 0)
			q.State.Attitude = FromEuler(2.2, 0, 0)
			q.State.Omega = Vec3{X: 3}
			h := q.HoverThrottle()
			q.SetMotors([4]float64{h, h, h, h})
			q.SettleRotors()
			q.SetDisturbance(Vec3{}, Vec3{})
			return q
		}, repeatDT(1e-4, 3000)},
		{"frozen-after-crash", func() *Quad {
			q := randomQuad(rng, 1)
			q.State.Attitude = FromEuler(2.4, 0, 0)
			q.State.Pos.Z = -0.5
			q.Step(1e-4)
			if c, _ := q.Crashed(); !c {
				panic("setup: vehicle did not crash")
			}
			q.SetMotors([4]float64{1, 1, 1, 1})
			return q
		}, repeatDT(1e-4, 200)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := 0; seed < 8; seed++ {
				q := tc.build()
				stepBoth(t, q, tc.dts)
				// A crash case that does not crash tested nothing.
				if c, _ := q.Crashed(); strings.HasSuffix(tc.name, "crash") && !c {
					t.Errorf("vehicle %d never crashed", seed)
				}
			}
		})
	}
}

// TestQuatIntegrateMatchesReference compares the attitude integrator
// with the reference at the estimator's 4 ms step: unit and
// non-unit quaternions, zero, small and fallback-sized rates, and the
// zero quaternion that normalizes to the identity.
func TestQuatIntegrateMatchesReference(t *testing.T) {
	const dt = 0.004
	rng := rand.New(rand.NewSource(11))
	u := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	check := func(q Quat, omega Vec3) {
		t.Helper()
		got, want := q.Integrate(omega, dt), refIntegrate(q, omega, dt)
		for i, pair := range [4][2]float64{{got.W, want.W}, {got.X, want.X}, {got.Y, want.Y}, {got.Z, want.Z}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("Integrate(%+v, %+v) component %d = %v, reference %v", q, omega, i, got, want)
			}
		}
	}
	for i := 0; i < 200000; i++ {
		q := Quat{u(-2, 2), u(-2, 2), u(-2, 2), u(-2, 2)}
		if i%2 == 0 {
			q = q.Normalized()
		}
		rate := []float64{0, 1e-3, 1, 10, 1000}[i%5]
		check(q, Vec3{u(-rate, rate), u(-rate, rate), u(-rate, rate)})
	}
	check(Quat{}, Vec3{X: 1})
	check(Quat{}, Vec3{})
	check(IdentityQuat(), Vec3{X: math.Copysign(0, -1)})
}

// FuzzQuadStep flies fuzzer-chosen vehicles a few steps with the
// kernel and the reference and requires identical bits at every step.
func FuzzQuadStep(f *testing.F) {
	f.Add(10.0, 0.5, 0.1, -0.2, 0.3, 0.3, -0.2, 0.1, 1e-4, 0.6, 0.4, 0.5, 0.7, 1.0, 0.04, 1.0, 0.0, uint8(20))
	f.Add(0.01, -3.0, 2.5, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-4, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.6, uint8(200))
	f.Add(5.0, 0.0, 0.0, 0.0, 1.0, 300.0, -200.0, 90.0, 0.01, 1.0, 0.0, 1.0, 0.0, 0.2, 0.04, -1.5, 0.0, uint8(30))
	f.Fuzz(func(t *testing.T, z, vz, roll, pitch, yaw, wx, wy, wz, dt, u0, u1, u2, u3, eff, tau, wind, elapsed float64, steps uint8) {
		for _, v := range []float64{z, vz, roll, pitch, yaw, wx, wy, wz, dt, u0, u1, u2, u3, eff, tau, wind, elapsed} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite input")
			}
		}
		q := NewQuad(DefaultParams())
		q.State.Pos = Vec3{X: 1, Y: -1, Z: z}
		q.State.Vel = Vec3{X: -vz, Y: vz / 2, Z: vz}
		q.State.Attitude = FromEuler(roll, pitch, yaw)
		q.State.Omega = Vec3{wx, wy, wz}
		q.SetMotors([4]float64{u0, u1, u2, u3})
		q.SetRotorEfficiency(int(steps)%4, eff)
		for i := range q.Rotors {
			q.Rotors[i].TimeConstant = tau
		}
		q.SetDisturbance(Vec3{X: wind, Y: -wind}, Vec3{Z: wind / 100})
		q.elapsed = elapsed
		dts := make([]float64, int(steps)%64+1)
		for i := range dts {
			dts[i] = dt * float64(1+i%3)
		}
		stepBoth(t, q, dts)
	})
}
