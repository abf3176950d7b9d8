package physics

import "math"

// Wind is a light turbulence model: a slowly-varying mean gust plus
// band-limited noise, producing the persistent disturbances that make
// degraded control visibly drift (Figs 4–7 all show setpoint error
// under disturbance). It is deterministic given its noise source.
type Wind struct {
	// MeanForce is the steady force amplitude in newtons.
	MeanForce float64
	// GustForce is the peak of the random gust component in newtons.
	GustForce float64
	// Period is the dominant gust period in seconds.
	Period float64

	noise func() float64 // standard normal source
	st    WindState
}

// NewWind builds a wind model; norm must return standard normal
// samples (wire it to sim.RNG.Norm).
func NewWind(mean, gust, period float64, norm func() float64) *Wind {
	return &Wind{MeanForce: mean, GustForce: gust, Period: period, noise: norm}
}

// WindState is the model's per-run state, which a snapshot holds
// whole; the noise source stays with its owner (its RNG stream is
// captured separately).
type WindState struct {
	state Vec3 // filtered gust state
	t     float64
}

// SnapshotInto captures the model's dynamic state into st.
func (w *Wind) SnapshotInto(st *WindState) { *st = w.st }

// RestoreFrom rewinds the model to a captured state, keeping its own
// noise source.
func (w *Wind) RestoreFrom(st *WindState) { w.st = *st }

// Step advances the model by dt seconds and returns the world-frame
// force to apply to the airframe.
func (w *Wind) Step(dt float64) Vec3 {
	w.st.t += dt
	// First-order coloured noise per axis.
	if w.Period > 0 && w.noise != nil {
		alpha := dt / w.Period
		if alpha > 1 {
			alpha = 1
		}
		w.st.state.X += alpha * (w.GustForce*w.noise() - w.st.state.X)
		w.st.state.Y += alpha * (w.GustForce*w.noise() - w.st.state.Y)
		w.st.state.Z += alpha * (0.5*w.GustForce*w.noise() - w.st.state.Z)
	}
	// Slowly rotating mean component.
	angle := 2 * math.Pi * w.st.t / math.Max(w.Period*8, 1e-9)
	mean := Vec3{
		X: w.MeanForce * math.Cos(angle),
		Y: w.MeanForce * math.Sin(angle),
	}
	return mean.Add(w.st.state)
}
