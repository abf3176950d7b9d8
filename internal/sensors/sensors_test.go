package sensors

import (
	"math"
	"testing"

	"containerdrone/internal/physics"
	"containerdrone/internal/sim"
)

// gravity is the prototype airframe's, m/s².
var gravity = physics.DefaultParams().Gravity

// testState is a level, slowly moving airframe 1.2 m up.
func testState() physics.State {
	return physics.State{
		Pos:      physics.Vec3{X: 0.5, Y: -0.3, Z: 1.2},
		Vel:      physics.Vec3{X: 0.1},
		Attitude: physics.IdentityQuat(),
	}
}

func TestNoiseFreeIMUMatchesTruth(t *testing.T) {
	s := NewSuite(Noise{}, nil)
	st := testState()
	st.Omega = physics.Vec3{X: 0.2, Y: -0.1, Z: 0.05}
	r := s.SampleIMU(st, gravity, 123)
	if r.TimeUS != 123 {
		t.Fatalf("TimeUS = %d", r.TimeUS)
	}
	if r.Gyro != st.Omega {
		t.Fatalf("noise-free gyro = %v, want %v", r.Gyro, st.Omega)
	}
	if r.Quat != st.Attitude {
		t.Fatal("attitude estimate differs from truth in noise-free suite")
	}
}

func TestIMULevelAccelIsGravityReaction(t *testing.T) {
	s := NewSuite(Noise{}, nil)
	st := testState()
	r := s.SampleIMU(st, gravity, 0)
	if math.Abs(r.Accel.Z-gravity) > 1e-9 {
		t.Fatalf("level specific force Z = %v, want +g", r.Accel.Z)
	}
	if math.Abs(r.Accel.X) > 1e-9 || math.Abs(r.Accel.Y) > 1e-9 {
		t.Fatalf("level specific force lateral = %v", r.Accel)
	}
}

func TestIMUGyroBiasApplied(t *testing.T) {
	n := Noise{GyroBias: physics.Vec3{X: 0.01}}
	s := NewSuite(n, nil)
	st := testState()
	r := s.SampleIMU(st, gravity, 0)
	if math.Abs(r.Gyro.X-0.01) > 1e-12 {
		t.Fatalf("gyro bias missing: %v", r.Gyro.X)
	}
}

func TestBaroAltitude(t *testing.T) {
	s := NewSuite(Noise{}, nil)
	st := testState()
	r := s.SampleBaro(st, 7)
	if math.Abs(r.AltM-1.2) > 1e-9 {
		t.Fatalf("baro alt = %v, want 1.2", r.AltM)
	}
	if r.Pressure >= 101325 {
		t.Fatalf("pressure at 1.2m = %v, want below sea level pressure", r.Pressure)
	}
}

func TestBaroPressureDecreasesWithAltitude(t *testing.T) {
	s := NewSuite(Noise{}, nil)
	st := testState()
	low := s.SampleBaro(st, 0)
	st.Pos.Z = 50
	high := s.SampleBaro(st, 1)
	if high.Pressure >= low.Pressure {
		t.Fatal("pressure did not decrease with altitude")
	}
}

func TestGPSTracksPosition(t *testing.T) {
	s := NewSuite(Noise{}, nil)
	st := testState()
	r := s.SampleGPS(st, 9)
	if r.Pos != st.Pos || r.Vel != st.Vel {
		t.Fatalf("noise-free GPS differs from truth: %+v", r)
	}
	if !r.FixOK || r.NumSats < 4 {
		t.Fatal("GPS fix should be valid")
	}
}

func TestNoisyGPSStaysNearTruth(t *testing.T) {
	rng := sim.NewRNG(1)
	s := NewSuite(DefaultNoise(), rng.Norm)
	st := testState()
	for i := 0; i < 1000; i++ {
		r := s.SampleGPS(st, uint64(i))
		if r.Pos.Sub(st.Pos).Norm() > 0.02 {
			t.Fatalf("Vicon-grade noise moved fix by %v m", r.Pos.Sub(st.Pos).Norm())
		}
	}
}

func TestNoiseIsDeterministic(t *testing.T) {
	st := testState()
	a := NewSuite(DefaultNoise(), sim.NewRNG(5).Norm)
	b := NewSuite(DefaultNoise(), sim.NewRNG(5).Norm)
	for i := 0; i < 100; i++ {
		ra, rb := a.SampleIMU(st, gravity, uint64(i)), b.SampleIMU(st, gravity, uint64(i))
		if ra != rb {
			t.Fatal("same-seed sensor suites diverged")
		}
	}
}

func TestRCScriptDefault(t *testing.T) {
	s := NewRCScript()
	r := s.Sample(1000)
	if r.Mode != ModePosition {
		t.Fatalf("default mode = %v, want position", r.Mode)
	}
	if r.Throttle != 0.5 || r.Roll != 0 {
		t.Fatalf("default sticks = %+v, want centered", r)
	}
	if r.TimeUS != 1000 {
		t.Fatalf("TimeUS = %d", r.TimeUS)
	}
}

func TestRCScriptSteps(t *testing.T) {
	s := NewRCScript().
		Add(0, RCReading{Mode: ModeManual, Throttle: 0.6}).
		Add(5_000_000, RCReading{Mode: ModePosition, Throttle: 0.5})
	if got := s.Sample(1_000_000); got.Mode != ModeManual {
		t.Fatalf("mode at 1s = %v, want manual", got.Mode)
	}
	if got := s.Sample(5_000_000); got.Mode != ModePosition {
		t.Fatalf("mode at 5s = %v, want position", got.Mode)
	}
	if got := s.Sample(9_000_000); got.Mode != ModePosition {
		t.Fatalf("mode at 9s = %v, want position", got.Mode)
	}
}

func TestRCScriptOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Add did not panic")
		}
	}()
	NewRCScript().Add(100, RCReading{}).Add(50, RCReading{})
}

func TestFlightModeString(t *testing.T) {
	if ModeManual.String() != "manual" || ModePosition.String() != "position" {
		t.Fatal("mode names wrong")
	}
	if FlightMode(99).String() != "unknown" {
		t.Fatal("unknown mode name wrong")
	}
}
