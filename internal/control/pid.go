// Package control implements the flight controllers of both Simplex
// sides: the PX4-style cascaded complex controller that runs inside
// the container and the conservative, exhaustively-testable safety
// controller that runs on the host. Both drive a quad-X motor mixer
// matched to the physics package's rotor geometry.
package control

// PID is a discrete PID regulator with output clamping and integrator
// anti-windup. The zero value is a zero-gain (inert) regulator.
type PID struct {
	Kp, Ki, Kd float64
	// OutLimit clamps the output to ±OutLimit (0 = unclamped).
	OutLimit float64
	// ILimit clamps the integrator state to ±ILimit (0 = unclamped).
	ILimit float64

	integ   float64
	prevErr float64
	primed  bool
}

// Update advances the regulator by dt seconds with the given error
// and returns the control output.
func (p *PID) Update(err, dt float64) float64 {
	if dt <= 0 {
		return p.output(err, 0)
	}
	p.integ += err * dt
	if p.ILimit > 0 {
		if p.integ > p.ILimit {
			p.integ = p.ILimit
		} else if p.integ < -p.ILimit {
			p.integ = -p.ILimit
		}
	}
	var deriv float64
	if p.primed {
		deriv = (err - p.prevErr) / dt
	}
	p.prevErr = err
	p.primed = true
	return p.output(err, deriv)
}

func (p *PID) output(err, deriv float64) float64 {
	out := p.Kp*err + p.Ki*p.integ + p.Kd*deriv
	if p.OutLimit > 0 {
		if out > p.OutLimit {
			out = p.OutLimit
		} else if out < -p.OutLimit {
			out = -p.OutLimit
		}
	}
	return out
}

// Integrator exposes the integrator state for telemetry and tests.
func (p *PID) Integrator() float64 { return p.integ }

// LowPass is a first-order low-pass filter: state += α(in − state).
type LowPass struct {
	// Alpha in (0,1]; 1 = no filtering.
	Alpha  float64
	state  float64
	primed bool
}

// Update folds a sample in and returns the filtered value. The first
// sample initializes the state directly.
func (f *LowPass) Update(in float64) float64 {
	if !f.primed {
		f.state = in
		f.primed = true
		return in
	}
	a := f.Alpha
	if a <= 0 {
		a = 1
	} else if a > 1 {
		a = 1
	}
	f.state += a * (in - f.state)
	return f.state
}

// Value returns the current filter state.
func (f *LowPass) Value() float64 { return f.state }

func clamp(x, limit float64) float64 {
	if limit <= 0 {
		return x
	}
	if x > limit {
		return limit
	}
	if x < -limit {
		return -limit
	}
	return x
}
