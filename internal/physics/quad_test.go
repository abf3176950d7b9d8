package physics

import (
	"math"
	"math/rand"
	"testing"
)

func hoverQuad() *Quad {
	q := NewQuad(DefaultParams())
	q.State.Pos = Vec3{Z: 1}
	return q
}

// rotorQuad is a vehicle high above the ground with every rotor's
// lag set to tau, for watching the rotors through Quad.Step.
func rotorQuad(tau float64) *Quad {
	q := NewQuad(DefaultParams())
	q.State.Pos = Vec3{Z: 1000}
	for i := range q.Rotors {
		q.Rotors[i].TimeConstant = tau
	}
	return q
}

func TestRotorLagConverges(t *testing.T) {
	q := rotorQuad(0.04)
	q.SetMotors([4]float64{0.8, 0.8, 0.8, 0.8})
	for i := 0; i < 1000; i++ {
		q.Step(0.001)
	}
	if r := q.Rotors[0]; !near(r.Throttle(), 0.8, 1e-6) {
		t.Fatalf("throttle after 1s = %v, want 0.8", r.Throttle())
	}
}

func TestRotorLagIsGradual(t *testing.T) {
	q := rotorQuad(0.04)
	q.SetMotors([4]float64{1, 1, 1, 1})
	q.Step(0.04) // one time constant
	if r := q.Rotors[0]; r.Throttle() < 0.5 || r.Throttle() > 0.75 {
		t.Fatalf("throttle after one τ = %v, want ≈0.63", r.Throttle())
	}
}

func TestRotorCommandClamped(t *testing.T) {
	var r Rotor
	r.SetCommand(2)
	if r.Command() != 1 {
		t.Fatalf("command = %v, want clamped to 1", r.Command())
	}
	r.SetCommand(-1)
	if r.Command() != 0 {
		t.Fatalf("command = %v, want clamped to 0", r.Command())
	}
}

func TestRotorThrustQuadratic(t *testing.T) {
	// With no lag the throttle snaps to the command in one step.
	q := rotorQuad(0)
	q.Rotors[0].MaxThrust = 8
	q.SetMotors([4]float64{0.5, 0.5, 0.5, 0.5})
	q.Step(0.01)
	if r := q.Rotors[0]; !near(r.Thrust(), 8*0.25, 1e-9) {
		t.Fatalf("thrust at half throttle = %v, want 2", r.Thrust())
	}
}

func TestRotorReactionTorqueSign(t *testing.T) {
	q := rotorQuad(0)
	q.SetMotors([4]float64{1, 1, 1, 1})
	q.Step(1)
	ccw, cw := q.Rotors[0], q.Rotors[2]
	if ccw.ReactionTorque() <= 0 || cw.ReactionTorque() >= 0 {
		t.Fatalf("reaction torques = %v, %v; want opposite signs",
			ccw.ReactionTorque(), cw.ReactionTorque())
	}
}

func TestHoverThrottleBalancesGravity(t *testing.T) {
	q := hoverQuad()
	h := q.HoverThrottle()
	perRotor := q.Params.MaxThrustPerRotor * h * h
	total := 4 * perRotor
	weight := q.Params.Mass * q.Params.Gravity
	if !near(total, weight, 1e-9) {
		t.Fatalf("hover thrust %v != weight %v", total, weight)
	}
}

func TestQuadHoversAtTrim(t *testing.T) {
	q := hoverQuad()
	h := q.HoverThrottle()
	q.SetMotors([4]float64{h, h, h, h})
	q.SettleRotors() // skip spin-up so the trim balance is exact
	dt := 0.0001
	for i := 0; i < 50000; i++ { // 5 s
		q.Step(dt)
	}
	if crashed, _ := q.Crashed(); crashed {
		t.Fatal("quad crashed at hover trim")
	}
	// Drag-free vertical trim: altitude should stay near 1 m.
	if math.Abs(q.State.Pos.Z-1) > 0.1 {
		t.Fatalf("altitude drifted to %v at trim", q.State.Pos.Z)
	}
	if q.State.Attitude.TiltAngle() > 0.01 {
		t.Fatalf("tilt grew to %v at symmetric trim", q.State.Attitude.TiltAngle())
	}
}

func TestQuadFallsWithoutThrust(t *testing.T) {
	q := hoverQuad()
	dt := 0.0001
	for i := 0; i < 60000; i++ { // up to 6 s
		q.Step(dt)
		if c, _ := q.Crashed(); c {
			break
		}
	}
	crashed, when := q.Crashed()
	if !crashed {
		t.Fatal("quad did not crash in free fall from 1 m")
	}
	if when < 0.3 || when > 2 {
		t.Fatalf("free-fall crash at %v s, expected well under 2 s", when)
	}
	if q.State.Pos.Z != 0 {
		t.Fatalf("crashed quad Z = %v, want pinned at ground", q.State.Pos.Z)
	}
}

func TestQuadStateFreezesAfterCrash(t *testing.T) {
	q := hoverQuad()
	for i := 0; i < 100000; i++ {
		q.Step(0.0001)
	}
	crashed, _ := q.Crashed()
	if !crashed {
		t.Fatal("expected crash")
	}
	before := q.State
	q.SetMotors([4]float64{1, 1, 1, 1})
	for i := 0; i < 1000; i++ {
		q.Step(0.0001)
	}
	if q.State != before {
		t.Fatal("state changed after crash")
	}
}

// TestNonFiniteStateCrashes spins random vehicles at up to 400 rad/s
// with 10 ms steps, which drives many of them non-finite: each of
// those must report a crash, not fly on with NaN physics.
func TestNonFiniteStateCrashes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nonFinite := 0
	for v := 0; v < 200; v++ {
		q := randomQuad(rng, 400)
		for i := 0; i < 40; i++ {
			q.Step(0.01)
		}
		if stateFinite(q.State) {
			continue
		}
		nonFinite++
		if c, _ := q.Crashed(); !c {
			t.Errorf("vehicle %d ended non-finite but not crashed: %+v", v, q.State)
		}
	}
	if nonFinite == 0 {
		t.Fatal("no vehicle went non-finite; the test checks nothing")
	}
	t.Logf("%d of 200 vehicles ended non-finite", nonFinite)
}

// stateFinite reports whether every component of the state is finite.
func stateFinite(s State) bool {
	for _, v := range []float64{
		s.Pos.X, s.Pos.Y, s.Pos.Z, s.Vel.X, s.Vel.Y, s.Vel.Z,
		s.Omega.X, s.Omega.Y, s.Omega.Z,
		s.Attitude.W, s.Attitude.X, s.Attitude.Y, s.Attitude.Z,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func TestQuadRollTorqueSignConsistency(t *testing.T) {
	// Boosting the two left rotors (indices 1 and 2, y=+1) must
	// produce positive roll torque (positive roll rate about X).
	q := hoverQuad()
	h := q.HoverThrottle()
	q.SetMotors([4]float64{h - 0.05, h + 0.05, h + 0.05, h - 0.05})
	for i := 0; i < 2000; i++ {
		q.Step(0.0001)
	}
	if q.State.Omega.X <= 0 {
		t.Fatalf("left-rotor boost gave roll rate %v, want positive", q.State.Omega.X)
	}
}

func TestQuadPitchTorqueSignConsistency(t *testing.T) {
	// Boosting the two front rotors (indices 0 and 2, x=+1) must
	// produce negative pitch torque (nose up = negative Y torque in
	// our r×F convention).
	q := hoverQuad()
	h := q.HoverThrottle()
	q.SetMotors([4]float64{h + 0.05, h - 0.05, h + 0.05, h - 0.05})
	for i := 0; i < 2000; i++ {
		q.Step(0.0001)
	}
	if q.State.Omega.Y >= 0 {
		t.Fatalf("front-rotor boost gave pitch rate %v, want negative", q.State.Omega.Y)
	}
}

func TestQuadYawFromRotorImbalance(t *testing.T) {
	// Boosting CCW rotors (0,1) against CW rotors (2,3) yields net
	// positive yaw reaction torque.
	q := hoverQuad()
	h := q.HoverThrottle()
	q.SetMotors([4]float64{h + 0.05, h + 0.05, h - 0.05, h - 0.05})
	for i := 0; i < 2000; i++ {
		q.Step(0.0001)
	}
	if q.State.Omega.Z <= 0 {
		t.Fatalf("CCW boost gave yaw rate %v, want positive", q.State.Omega.Z)
	}
}

func TestQuadTiltCausesLateralAccel(t *testing.T) {
	q := hoverQuad()
	q.State.Attitude = FromEuler(0, 0.2, 0) // pitch nose... rotates body Z forward
	h := q.HoverThrottle()
	q.SetMotors([4]float64{h, h, h, h})
	for i := 0; i < 5000; i++ {
		q.Step(0.0001)
	}
	if math.Abs(q.State.Vel.X) < 0.01 {
		t.Fatalf("pitched quad did not accelerate laterally: vx=%v", q.State.Vel.X)
	}
}

func TestQuadDisturbancePushes(t *testing.T) {
	q := hoverQuad()
	h := q.HoverThrottle()
	q.SetMotors([4]float64{h, h, h, h})
	q.SetDisturbance(Vec3{X: 1}, Vec3{})
	for i := 0; i < 10000; i++ {
		q.Step(0.0001)
	}
	if q.State.Vel.X <= 0 {
		t.Fatalf("1N X disturbance gave vx=%v, want positive", q.State.Vel.X)
	}
}

func TestWindDeterministic(t *testing.T) {
	mkNorm := func() func() float64 {
		vals := []float64{0.5, -0.3, 0.8, 0.1, -0.9, 0.2}
		i := 0
		return func() float64 { v := vals[i%len(vals)]; i++; return v }
	}
	w1 := NewWind(0.3, 0.5, 2, mkNorm())
	w2 := NewWind(0.3, 0.5, 2, mkNorm())
	for i := 0; i < 100; i++ {
		if w1.Step(0.01) != w2.Step(0.01) {
			t.Fatal("wind model not deterministic given same noise")
		}
	}
}

func TestWindBounded(t *testing.T) {
	n := 0
	norm := func() float64 { n++; return math.Sin(float64(n)) } // bounded pseudo-noise
	w := NewWind(0.3, 0.5, 2, norm)
	for i := 0; i < 10000; i++ {
		f := w.Step(0.001)
		if f.Norm() > 5 {
			t.Fatalf("wind force %v unreasonably large", f)
		}
	}
}
