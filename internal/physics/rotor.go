package physics

// Rotor models one motor+propeller as a first-order lag from commanded
// normalized throttle to achieved throttle, with a quadratic thrust
// map and a reaction (yaw) torque proportional to thrust. The lag is
// what makes stale actuator commands — the symptom of every DoS attack
// in the paper — physically consequential; Quad.Step advances it.
type Rotor struct {
	// MaxThrust is the thrust in newtons at full throttle.
	MaxThrust float64
	// TorqueCoeff maps thrust to reaction torque, N·m per N.
	TorqueCoeff float64
	// TimeConstant is the first-order lag time constant in seconds.
	TimeConstant float64
	// Direction is +1 for counter-clockwise rotors, -1 for clockwise;
	// it signs the reaction torque.
	Direction float64

	command  float64 // commanded throttle in [0,1]
	throttle float64 // achieved throttle in [0,1]

	// thrustLoss is 1 - efficiency: the fraction of the thrust map
	// lost to physical degradation (prop damage, bearing wear). Stored
	// as a loss so the zero value is a healthy rotor.
	thrustLoss float64

	// Memoized lag coefficient: dt and TimeConstant are fixed within a
	// run, so 1-exp(-dt/τ) is computed once instead of every step.
	alphaDT  float64
	alphaTau float64
	alpha    float64
}

// SetCommand sets the commanded throttle; values are clamped to [0,1]
// the way an ESC clamps its input.
func (r *Rotor) SetCommand(u float64) { r.command = clamp01(u) }

// Command returns the last commanded throttle.
func (r *Rotor) Command() float64 { return r.command }

// Throttle returns the achieved throttle after the motor lag.
func (r *Rotor) Throttle() float64 { return r.throttle }

// Settle snaps the achieved throttle to the current command,
// bypassing the lag. Scenario setup uses it to start a vehicle that is
// already in steady flight, as the paper's experiments do (the
// operator first flies to a safe height, then the scenario begins).
func (r *Rotor) Settle() { r.throttle = r.command }

// SetEfficiency sets the thrust-efficiency factor, clamped to [0,1].
// The fault layer's rotor-decay injector ramps it down mid-flight.
func (r *Rotor) SetEfficiency(e float64) { r.thrustLoss = 1 - clamp01(e) }

// Efficiency returns the current thrust-efficiency factor (1 for a
// healthy rotor).
func (r *Rotor) Efficiency() float64 { return 1 - r.thrustLoss }

// Thrust returns the current thrust in newtons. Thrust scales with
// the square of the (normalized) rotor speed, approximated here by the
// achieved throttle, degraded by the efficiency factor.
func (r *Rotor) Thrust() float64 {
	return r.MaxThrust * (1 - r.thrustLoss) * r.throttle * r.throttle
}

// ReactionTorque returns the signed yaw reaction torque in N·m.
func (r *Rotor) ReactionTorque() float64 {
	return r.Direction * r.TorqueCoeff * r.Thrust()
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
