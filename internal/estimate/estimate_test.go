package estimate

import (
	"math"
	"testing"

	"containerdrone/internal/physics"
	"containerdrone/internal/sensors"
	"containerdrone/internal/sim"
)

// feedHover primes a filter with one level hover sample at t=0.
func feedHover(f *Filter) {
	f.FeedIMU(sensors.IMUReading{
		TimeUS: 0,
		Accel:  physics.Vec3{Z: 9.81},
		Quat:   physics.IdentityQuat(),
	})
	f.FeedFix(sensors.GPSReading{TimeUS: 0, Pos: physics.Vec3{Z: 1}, FixOK: true})
}

func TestInitializesLevelFromAccel(t *testing.T) {
	f := New(DefaultConfig())
	feedHover(f)
	st := f.State()
	if st.Attitude.TiltAngle() > 0.01 {
		t.Fatalf("initial tilt %v from level accel", st.Attitude.TiltAngle())
	}
	if !st.Healthy {
		t.Fatal("not healthy after first samples")
	}
}

func TestGyroIntegrationTracksRotation(t *testing.T) {
	f := New(DefaultConfig())
	feedHover(f)
	// Rotate at 0.5 rad/s about X for 1 s, sampled at 250 Hz. Keep the
	// accelerometer consistent with the rotating body so the
	// correction term does not fight the motion.
	truth := physics.IdentityQuat()
	omega := physics.Vec3{X: 0.5}
	for i := 1; i <= 250; i++ {
		truth = truth.Integrate(omega, 0.004)
		f.FeedIMU(sensors.IMUReading{
			TimeUS: uint64(i * 4000),
			Gyro:   omega,
			Accel:  truth.Conj().Rotate(physics.Vec3{Z: 9.81}),
		})
	}
	roll, _, _ := f.State().Attitude.Euler()
	if math.Abs(roll-0.5) > 0.05 {
		t.Fatalf("estimated roll %v after 1s at 0.5 rad/s", roll)
	}
}

func TestAccelCorrectionRemovesDrift(t *testing.T) {
	f := New(DefaultConfig())
	feedHover(f)
	// Stationary vehicle, but gyro has a constant bias: the
	// accelerometer correction must bound the attitude error.
	bias := physics.Vec3{X: 0.02}  // 1.1°/s of drift
	for i := 1; i <= 250*30; i++ { // 30 s
		f.FeedIMU(sensors.IMUReading{
			TimeUS: uint64(i * 4000),
			Gyro:   bias,
			Accel:  physics.Vec3{Z: 9.81},
		})
	}
	tilt := f.State().Attitude.TiltAngle()
	// Unbounded integration would reach 33°; correction holds it near
	// the bias/gain equilibrium (0.02/0.5 = 0.04 rad).
	if tilt > 0.08 {
		t.Fatalf("tilt drifted to %.3f rad despite accel correction", tilt)
	}
}

func TestPositionDeadReckoningBetweenFixes(t *testing.T) {
	f := New(DefaultConfig())
	feedHover(f)
	f.FeedFix(sensors.GPSReading{TimeUS: 0, Pos: physics.Vec3{Z: 1}, Vel: physics.Vec3{X: 1}, FixOK: true})
	// 100 ms of IMU-only propagation at 1 m/s.
	for i := 1; i <= 25; i++ {
		f.FeedIMU(sensors.IMUReading{TimeUS: uint64(i * 4000), Accel: physics.Vec3{Z: 9.81}})
	}
	st := f.State()
	if math.Abs(st.Pos.X-0.1) > 0.02 {
		t.Fatalf("dead-reckoned X = %v, want ≈0.1", st.Pos.X)
	}
}

func TestFixPullsPositionBack(t *testing.T) {
	f := New(DefaultConfig())
	feedHover(f)
	// Inject dead-reckoning error, then several fixes at the truth.
	for i := 1; i <= 25; i++ {
		f.FeedIMU(sensors.IMUReading{TimeUS: uint64(i * 4000), Accel: physics.Vec3{Z: 9.81}})
	}
	for k := 1; k <= 20; k++ {
		us := uint64(100_000 + k*100_000)
		f.FeedFix(sensors.GPSReading{TimeUS: us, Pos: physics.Vec3{X: 2, Z: 1}, FixOK: true})
		f.FeedIMU(sensors.IMUReading{TimeUS: us + 4000, Accel: physics.Vec3{Z: 9.81}})
	}
	if math.Abs(f.State().Pos.X-2) > 0.1 {
		t.Fatalf("position %v did not converge to the fix", f.State().Pos)
	}
}

func TestBadFixIgnored(t *testing.T) {
	f := New(DefaultConfig())
	feedHover(f)
	before := f.State().Pos
	f.FeedFix(sensors.GPSReading{TimeUS: 5000, Pos: physics.Vec3{X: 99}, FixOK: false})
	if f.State().Pos != before {
		t.Fatal("FixOK=false fix was consumed")
	}
}

func TestLongIMUGapMarksUnhealthy(t *testing.T) {
	f := New(DefaultConfig())
	feedHover(f)
	f.FeedIMU(sensors.IMUReading{TimeUS: 500_000, Accel: physics.Vec3{Z: 9.81}}) // 500 ms gap
	if f.State().Healthy {
		t.Fatal("filter healthy across a 500ms IMU gap")
	}
	// A fresh fix restores health.
	f.FeedFix(sensors.GPSReading{TimeUS: 510_000, Pos: physics.Vec3{Z: 1}, FixOK: true})
	if !f.State().Healthy {
		t.Fatal("fix did not restore health")
	}
}

func TestOutOfOrderIMUDropped(t *testing.T) {
	f := New(DefaultConfig())
	feedHover(f)
	f.FeedIMU(sensors.IMUReading{TimeUS: 8000, Accel: physics.Vec3{Z: 9.81}})
	st := f.State()
	f.FeedIMU(sensors.IMUReading{TimeUS: 4000, Gyro: physics.Vec3{X: 10}, Accel: physics.Vec3{Z: 9.81}})
	if f.State() != st {
		t.Fatal("out-of-order sample mutated the estimate")
	}
}

func TestStaleness(t *testing.T) {
	f := New(DefaultConfig())
	feedHover(f)
	f.FeedIMU(sensors.IMUReading{TimeUS: 4000, Accel: physics.Vec3{Z: 9.81}})
	if got := f.IMUStalenessUS(10_000); got != 6000 {
		t.Fatalf("staleness = %d, want 6000", got)
	}
	if got := New(DefaultConfig()).IMUStalenessUS(10_000); got != 0 {
		t.Fatalf("unprimed staleness = %d, want 0", got)
	}
}

func TestGPSLikeCarriesState(t *testing.T) {
	f := New(DefaultConfig())
	feedHover(f)
	g := f.GPSLike()
	if g.Pos != f.State().Pos || !g.FixOK {
		t.Fatalf("GPSLike = %+v", g)
	}
}

// End-to-end: track a noisy simulated hover and stay close to truth.
func TestTracksNoisyHover(t *testing.T) {
	rng := sim.NewRNG(3)
	suite := sensors.NewSuite(sensors.DefaultNoise(), rng.Norm)
	q := physics.NewQuad(physics.DefaultParams())
	q.State.Pos = physics.Vec3{Z: 1}
	h := q.HoverThrottle()
	q.SetMotors([4]float64{h, h, h, h})
	q.SettleRotors()

	f := New(DefaultConfig())
	const dt = 0.0001
	for i := 0; i < 100000; i++ { // 10 s
		us := uint64(float64(i) * dt * 1e6)
		if i%40 == 0 { // 250 Hz IMU
			f.FeedIMU(suite.SampleIMU(q.State, q.Params.Gravity, us))
		}
		if i%10000 == 0 { // 10 Hz fix
			f.FeedFix(suite.SampleGPS(q.State, us))
		}
		q.Step(dt)
	}
	st := f.State()
	if st.Pos.Sub(q.State.Pos).Norm() > 0.2 {
		t.Fatalf("position estimate error %.3fm", st.Pos.Sub(q.State.Pos).Norm())
	}
	if st.Attitude.TiltAngle() > 0.05 {
		t.Fatalf("attitude estimate tilt %.3f rad at hover", st.Attitude.TiltAngle())
	}
}
