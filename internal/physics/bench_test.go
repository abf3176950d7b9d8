package physics

import "testing"

// BenchmarkQuadStep steps a level hover at rest. The attitude never
// moves, so Quat.Integrate returns early and this measures the cheap
// path only; BenchmarkQuadStepFlying measures a vehicle in flight.
func BenchmarkQuadStep(b *testing.B) {
	q := NewQuad(DefaultParams())
	q.State.Pos = Vec3{Z: 10}
	h := q.HoverThrottle()
	q.SetMotors([4]float64{h, h, h, h})
	q.SettleRotors()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Step(0.0001)
	}
}

func BenchmarkQuatIntegrate(b *testing.B) {
	q := IdentityQuat()
	omega := Vec3{X: 0.1, Y: -0.2, Z: 0.05}
	for i := 0; i < b.N; i++ {
		q = q.Integrate(omega, 0.0001)
	}
	_ = q
}

func BenchmarkQuatRotate(b *testing.B) {
	q := FromEuler(0.1, 0.2, 0.3)
	v := Vec3{1, 2, 3}
	var out Vec3
	for i := 0; i < b.N; i++ {
		out = q.Rotate(v)
	}
	_ = out
}

func BenchmarkWindStep(b *testing.B) {
	n := 0.0
	w := NewWind(0.25, 0.6, 2, func() float64 { n += 0.1; return n - 1 })
	for i := 0; i < b.N; i++ {
		w.Step(0.01)
	}
}

// BenchmarkQuadStepFlying steps a maneuvering vehicle: nonzero body
// rates, asymmetric rotor commands still spinning up, and a wind
// disturbance, so every step runs the full rotor, torque and attitude
// integration. Every 2000 steps (0.2 s simulated) the state, including
// the crash flag, is reset before the vehicle can tumble, so the cost
// measured is one airframe tick in flight, never the frozen crash path.
func BenchmarkQuadStepFlying(b *testing.B) {
	start := NewQuad(DefaultParams())
	start.State.Pos = Vec3{Z: 10}
	start.State.Vel = Vec3{X: 0.4, Y: -0.2, Z: 0.1}
	start.State.Attitude = FromEuler(0.05, -0.03, 0.2)
	start.State.Omega = Vec3{X: 0.3, Y: -0.2, Z: 0.1}
	h := start.HoverThrottle()
	start.SetMotors([4]float64{h, h, h, h})
	start.SettleRotors()
	start.SetMotors([4]float64{h + 0.004, h - 0.002, h + 0.002, h - 0.004})
	start.SetDisturbance(Vec3{X: 0.3, Y: -0.1}, Vec3{})
	q := *start
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2000 == 0 {
			if crashed, _ := q.Crashed(); crashed {
				b.Fatal("vehicle crashed; the benchmark measured the frozen path")
			}
			q = *start
		}
		q.Step(0.0001)
	}
}
