package control

import (
	"math"
	"testing"

	"containerdrone/internal/physics"
	"containerdrone/internal/sensors"
)

// flyLoop runs a controller against the physics in a clean closed loop
// (no network, no scheduler): controller at ctlHz, physics at 10 kHz.
// Returns the quad after the given duration.
func flyLoop(t *testing.T, c *Cascade, sp Setpoint, start physics.Vec3, seconds float64, ctlHz float64, disturb func(sec float64) physics.Vec3) *physics.Quad {
	t.Helper()
	q := physics.NewQuad(physics.DefaultParams())
	q.State.Pos = start
	h := q.HoverThrottle()
	q.SetMotors([4]float64{h, h, h, h})
	q.SettleRotors()
	suite := sensors.NewSuite(sensors.Noise{}, nil)

	const physDT = 0.0001
	ctlEvery := int(1 / (ctlHz * physDT))
	steps := int(seconds / physDT)
	for i := 0; i < steps; i++ {
		sec := float64(i) * physDT
		if disturb != nil {
			q.SetDisturbance(disturb(sec), physics.Vec3{})
		}
		if i%ctlEvery == 0 {
			us := uint64(sec * 1e6)
			in := Inputs{
				IMU:  suite.SampleIMU(q.State, q.Params.Gravity, us),
				GPS:  suite.SampleGPS(q.State, us),
				Baro: suite.SampleBaro(q.State, us),
				RC:   sensors.RCReading{TimeUS: us, Mode: sensors.ModePosition, Throttle: 0.5},
			}
			q.SetMotors(c.Compute(&in, sp))
		}
		q.Step(physDT)
	}
	return q
}

func defaultAirframe() Airframe { return AirframeFrom(physics.DefaultParams()) }

func TestComplexControllerHoldsHover(t *testing.T) {
	c := NewCascade(ComplexGains(), defaultAirframe(), 250)
	sp := Setpoint{Pos: physics.Vec3{Z: 1}}
	q := flyLoop(t, c, sp, physics.Vec3{Z: 1}, 10, 250, nil)
	if crashed, at := q.Crashed(); crashed {
		t.Fatalf("crashed at %.2fs holding hover", at)
	}
	if err := q.State.Pos.Sub(sp.Pos).Norm(); err > 0.05 {
		t.Fatalf("hover error %.3fm", err)
	}
}

func TestComplexControllerReachesSetpoint(t *testing.T) {
	c := NewCascade(ComplexGains(), defaultAirframe(), 250)
	sp := Setpoint{Pos: physics.Vec3{X: 1, Y: -0.5, Z: 1.5}}
	q := flyLoop(t, c, sp, physics.Vec3{Z: 1}, 12, 250, nil)
	if crashed, at := q.Crashed(); crashed {
		t.Fatalf("crashed at %.2fs en route", at)
	}
	if err := q.State.Pos.Sub(sp.Pos).Norm(); err > 0.08 {
		t.Fatalf("settling error %.3fm at %v", err, q.State.Pos)
	}
}

func TestSafetyControllerHoldsHover(t *testing.T) {
	c := NewCascade(SafetyGains(), defaultAirframe(), 250)
	sp := Setpoint{Pos: physics.Vec3{Z: 1}}
	q := flyLoop(t, c, sp, physics.Vec3{Z: 1}, 10, 250, nil)
	if crashed, at := q.Crashed(); crashed {
		t.Fatalf("safety controller crashed at %.2fs", at)
	}
	if err := q.State.Pos.Sub(sp.Pos).Norm(); err > 0.05 {
		t.Fatalf("hover error %.3fm", err)
	}
}

func TestSafetyControllerRecoversFromUpset(t *testing.T) {
	// The Simplex hand-off case: the vehicle is off-setpoint, tilted
	// and moving when the safety controller takes over.
	c := NewCascade(SafetyGains(), defaultAirframe(), 250)
	sp := Setpoint{Pos: physics.Vec3{Z: 1}}
	q := physics.NewQuad(physics.DefaultParams())
	q.State.Pos = physics.Vec3{X: 1.5, Y: -1, Z: 1.3}
	q.State.Vel = physics.Vec3{X: 1, Y: 0.5, Z: -0.3}
	q.State.Attitude = physics.FromEuler(0.25, -0.2, 0.4)
	h := q.HoverThrottle()
	q.SetMotors([4]float64{h, h, h, h})
	q.SettleRotors()
	suite := sensors.NewSuite(sensors.Noise{}, nil)
	const physDT = 0.0001
	for i := 0; i < 150000; i++ { // 15 s
		sec := float64(i) * physDT
		if i%40 == 0 { // 250 Hz
			us := uint64(sec * 1e6)
			in := Inputs{
				IMU: suite.SampleIMU(q.State, q.Params.Gravity, us), GPS: suite.SampleGPS(q.State, us),
				Baro: suite.SampleBaro(q.State, us),
				RC:   sensors.RCReading{TimeUS: us, Mode: sensors.ModePosition},
			}
			q.SetMotors(c.Compute(&in, sp))
		}
		q.Step(physDT)
	}
	if crashed, at := q.Crashed(); crashed {
		t.Fatalf("safety controller failed to recover, crashed at %.2fs", at)
	}
	if err := q.State.Pos.Sub(sp.Pos).Norm(); err > 0.1 {
		t.Fatalf("recovery error %.3fm", err)
	}
}

func TestControllerRejectsWindDisturbance(t *testing.T) {
	c := NewCascade(ComplexGains(), defaultAirframe(), 250)
	sp := Setpoint{Pos: physics.Vec3{Z: 1}}
	gust := func(sec float64) physics.Vec3 {
		return physics.Vec3{X: 0.4 * math.Sin(2*math.Pi*sec/3), Y: 0.3}
	}
	q := flyLoop(t, c, sp, physics.Vec3{Z: 1}, 15, 250, gust)
	if crashed, _ := q.Crashed(); crashed {
		t.Fatal("crashed under mild wind")
	}
	if err := q.State.Pos.Sub(sp.Pos).Norm(); err > 0.25 {
		t.Fatalf("wind-hold error %.3fm", err)
	}
}

func TestControllerDegradesAtLowRate(t *testing.T) {
	// Sanity for the DoS experiments: the same controller run at a
	// crippled 10 Hz must perform visibly worse than at 250 Hz (it is
	// the mechanism by which resource DoS translates into flight
	// degradation).
	spot := physics.Vec3{Z: 1}
	fast := flyLoop(t, NewCascade(ComplexGains(), defaultAirframe(), 250),
		Setpoint{Pos: spot}, spot, 8, 250,
		func(sec float64) physics.Vec3 {
			return physics.Vec3{X: 0.5 * math.Sin(sec*4), Y: 0.4 * math.Cos(sec*3)}
		})
	slow := flyLoop(t, NewCascade(ComplexGains(), defaultAirframe(), 250),
		Setpoint{Pos: spot}, spot, 8, 10,
		func(sec float64) physics.Vec3 {
			return physics.Vec3{X: 0.5 * math.Sin(sec*4), Y: 0.4 * math.Cos(sec*3)}
		})
	fastErr := fast.State.Pos.Sub(spot).Norm()
	slowErr := slow.State.Pos.Sub(spot).Norm()
	slowCrashed, _ := slow.Crashed()
	if !slowCrashed && slowErr < 2*fastErr {
		t.Fatalf("10Hz control err %.3f vs 250Hz %.3f: starved loop not visibly degraded", slowErr, fastErr)
	}
}

func TestManualMode(t *testing.T) {
	c := NewCascade(ComplexGains(), defaultAirframe(), 250)
	q := physics.NewQuad(physics.DefaultParams())
	q.State.Pos = physics.Vec3{Z: 1}
	h := q.HoverThrottle()
	q.SetMotors([4]float64{h, h, h, h})
	q.SettleRotors()
	suite := sensors.NewSuite(sensors.Noise{}, nil)
	// Hold a small forward pitch stick for 2 s.
	for i := 0; i < 20000; i++ {
		sec := float64(i) * 0.0001
		if i%40 == 0 {
			us := uint64(sec * 1e6)
			in := Inputs{
				IMU: suite.SampleIMU(q.State, q.Params.Gravity, us), GPS: suite.SampleGPS(q.State, us),
				RC: sensors.RCReading{TimeUS: us, Mode: sensors.ModeManual, Pitch: 0.3, Throttle: 0.55},
			}
			q.SetMotors(c.Compute(&in, Setpoint{}))
		}
		q.Step(0.0001)
	}
	if q.State.Vel.X <= 0.1 {
		t.Fatalf("forward stick gave vx=%v, want forward motion", q.State.Vel.X)
	}
}

func TestDTClampsOnStall(t *testing.T) {
	c := NewCascade(ComplexGains(), defaultAirframe(), 250)
	if got := c.dt(1000); got != 1.0/250 {
		t.Fatalf("first dt = %v, want default", got)
	}
	if got := c.dt(5000); math.Abs(got-0.004) > 1e-12 {
		t.Fatalf("dt = %v, want 4ms", got)
	}
	// A 2 s gap (stalled stream) falls back to the default step.
	if got := c.dt(2_005_000); got != 1.0/250 {
		t.Fatalf("stalled dt = %v, want default", got)
	}
}

func TestWrapAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi / 2, math.Pi / 2},
		{3 * math.Pi, math.Pi},
		{-3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
	}
	for _, tc := range cases {
		if got := wrapAngle(tc.in); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("wrapAngle(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestGainPresetsDiffer(t *testing.T) {
	cg, sg := ComplexGains(), SafetyGains()
	if sg.VelMax >= cg.VelMax {
		t.Fatal("safety controller should have a tighter velocity envelope")
	}
	if sg.TiltMax >= cg.TiltMax {
		t.Fatal("safety controller should have a tighter tilt envelope")
	}
	if sg.VelI != 0 {
		t.Fatal("safety controller should be integral-free for verifiability")
	}
}
