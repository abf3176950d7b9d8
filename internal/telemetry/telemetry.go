// Package telemetry records flight trajectories and computes the
// summary metrics the paper's figures are read by: setpoint vs
// estimated position per axis (Figs 4–7 are exactly such plots),
// plus RMS tracking error, maximum deviation and the crash flag.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"containerdrone/internal/physics"
)

// Sample is one trajectory point.
type Sample struct {
	Time     time.Duration
	Setpoint physics.Vec3
	Position physics.Vec3
	Roll     float64
	Pitch    float64
	Yaw      float64
	Source   string // active controller ("complex"/"safety")
}

// FlightLog is an append-only trajectory recording.
type FlightLog struct {
	st LogState
}

// NewFlightLog returns an empty log.
func NewFlightLog() *FlightLog { return &FlightLog{} }

// NewFlightLogCap returns an empty log presized for n samples, so a
// run whose sample count is known up front (duration × sample rate)
// never reallocates in Add.
func NewFlightLogCap(n int) *FlightLog {
	if n < 0 {
		n = 0
	}
	return &FlightLog{st: LogState{samples: make([]Sample, 0, n)}}
}

// Add appends a sample.
func (l *FlightLog) Add(s Sample) { l.st.samples = append(l.st.samples, s) }

// LogState is a flight log's per-run state: the samples recorded so
// far and the crash mark. A snapshot holds one whole, its samples
// deep-copied. The zero value is ready for SnapshotInto, which reuses
// its sample buffer across captures.
type LogState struct {
	samples []Sample
	crashed bool
	crashAt time.Duration
}

// SnapshotInto deep-copies the log into st; the state shares no memory
// with the log afterwards.
func (l *FlightLog) SnapshotInto(st *LogState) {
	samples := append(st.samples[:0], l.st.samples...)
	*st = l.st
	st.samples = samples
}

// RestoreFrom rewinds the log to a captured state, reusing the log's
// backing storage.
func (l *FlightLog) RestoreFrom(st *LogState) {
	samples := append(l.st.samples[:0], st.samples...)
	l.st = *st
	l.st.samples = samples
}

// MarkCrash records the vehicle crash time (first call wins).
func (l *FlightLog) MarkCrash(at time.Duration) {
	if !l.st.crashed {
		l.st.crashed = true
		l.st.crashAt = at
	}
}

// Crashed reports whether and when the vehicle crashed.
func (l *FlightLog) Crashed() (bool, time.Duration) { return l.st.crashed, l.st.crashAt }

// Samples returns the recorded trajectory (caller must not mutate).
func (l *FlightLog) Samples() []Sample { return l.st.samples }

// Len returns the number of samples.
func (l *FlightLog) Len() int { return len(l.st.samples) }

// Window returns the samples with from <= Time < to.
func (l *FlightLog) Window(from, to time.Duration) []Sample {
	var out []Sample
	for _, s := range l.st.samples {
		if s.Time >= from && s.Time < to {
			out = append(out, s)
		}
	}
	return out
}

// Metrics summarizes tracking quality over a set of samples.
type Metrics struct {
	RMSError     float64 // m, 3D RMS setpoint error
	MaxDeviation float64 // m, worst 3D setpoint error
	MaxTilt      float64 // rad, worst roll/pitch magnitude
	Samples      int
}

// Degrees converts an angle from radians to degrees — the shared
// tilt-formatting helper of every summary printer.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }

// MaxTiltDeg returns the worst tilt in degrees.
func (m Metrics) MaxTiltDeg() float64 { return Degrees(m.MaxTilt) }

// Compute derives metrics from samples.
func Compute(samples []Sample) Metrics {
	var m Metrics
	m.Samples = len(samples)
	if len(samples) == 0 {
		return m
	}
	sumSq := 0.0
	for _, s := range samples {
		err := s.Position.Sub(s.Setpoint).Norm()
		sumSq += err * err
		if err > m.MaxDeviation {
			m.MaxDeviation = err
		}
		tilt := math.Max(math.Abs(s.Roll), math.Abs(s.Pitch))
		if tilt > m.MaxTilt {
			m.MaxTilt = tilt
		}
	}
	m.RMSError = math.Sqrt(sumSq / float64(len(samples)))
	return m
}

// Metrics over the whole log.
func (l *FlightLog) Metrics() Metrics { return Compute(l.st.samples) }

// WindowMetrics computes metrics over [from, to).
func (l *FlightLog) WindowMetrics(from, to time.Duration) Metrics {
	return Compute(l.Window(from, to))
}

// WriteCSV emits the trajectory in the column layout of the paper's
// figures: time, setpoint and estimate per axis, attitude, source.
func (l *FlightLog) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "t_s,x_sp,x,y_sp,y,z_sp,z,roll,pitch,yaw,source"); err != nil {
		return err
	}
	for _, s := range l.st.samples {
		_, err := fmt.Fprintf(w, "%.3f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%s\n",
			s.Time.Seconds(),
			s.Setpoint.X, s.Position.X,
			s.Setpoint.Y, s.Position.Y,
			s.Setpoint.Z, s.Position.Z,
			s.Roll, s.Pitch, s.Yaw, s.Source)
		if err != nil {
			return err
		}
	}
	return nil
}

// Sparkline renders one axis of the trajectory as a compact ASCII
// strip for terminal output: width columns spanning the log duration.
func (l *FlightLog) Sparkline(axis func(Sample) float64, width int) string {
	if len(l.st.samples) == 0 || width <= 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	min, max := math.Inf(1), math.Inf(-1)
	for _, s := range l.st.samples {
		v := axis(s)
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	if max-min < 1e-9 {
		max = min + 1e-9
	}
	var b strings.Builder
	per := len(l.st.samples) / width
	if per < 1 {
		per = 1
	}
	for i := 0; i < len(l.st.samples); i += per {
		v := axis(l.st.samples[i])
		idx := int((v - min) / (max - min) * float64(len(levels)-1))
		if idx < 0 {
			idx = 0
		} else if idx >= len(levels) {
			idx = len(levels) - 1
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}

// AxisX/AxisY/AxisZ are Sparkline accessors.
func AxisX(s Sample) float64 { return s.Position.X }

// AxisY returns the Y coordinate of a sample.
func AxisY(s Sample) float64 { return s.Position.Y }

// AxisZ returns the Z coordinate of a sample.
func AxisZ(s Sample) float64 { return s.Position.Z }
