package control

import (
	"time"

	"containerdrone/internal/physics"
)

// Waypoint is one leg of a mission: fly to Pos, then hold for Hold.
type Waypoint struct {
	Pos    physics.Vec3
	Yaw    float64
	Hold   time.Duration
	Radius float64 // acceptance radius, m (0 → 0.15 m default)
}

// Mission sequences waypoints and slew-limits the emitted setpoint —
// the "advanced functionality" (mission planning, smooth trajectories)
// that distinguishes the complex controller from the safety
// controller in the paper's system model.
type Mission struct {
	Waypoints []Waypoint
	// SlewRate limits setpoint motion in m/s (0 = jump immediately).
	SlewRate float64

	st MissionState
}

// NewMission builds a mission with a 1.5 m/s setpoint slew.
func NewMission(wps ...Waypoint) *Mission {
	return &Mission{Waypoints: wps, SlewRate: 1.5}
}

// Done reports whether every waypoint has been visited and held.
func (m *Mission) Done() bool { return m.st.idx >= len(m.Waypoints) }

// MissionState is the mission's progress, which a snapshot holds
// whole; the waypoint list and slew rate are configuration and stay
// with their owner.
type MissionState struct {
	idx       int
	holdUntil time.Duration
	holding   bool
	current   Setpoint
	primed    bool
}

// SnapshotInto captures the mission's progress into st.
func (m *Mission) SnapshotInto(st *MissionState) { *st = m.st }

// RestoreFrom rewinds the mission to a captured state, keeping its own
// waypoint list.
func (m *Mission) RestoreFrom(st *MissionState) { m.st = *st }

// Target returns the active waypoint, or false when the mission is
// complete.
func (m *Mission) Target() (Waypoint, bool) {
	if m.Done() {
		return Waypoint{}, false
	}
	return m.Waypoints[m.st.idx], true
}

// Update advances the mission state machine with the vehicle's
// position and returns the (slew-limited) setpoint to track. After
// completion it keeps returning the final waypoint.
func (m *Mission) Update(now time.Duration, pos physics.Vec3, dt float64) Setpoint {
	if !m.st.primed {
		m.st.current = Setpoint{Pos: pos}
		m.st.primed = true
	}
	var goal Setpoint
	if m.Done() {
		if n := len(m.Waypoints); n > 0 {
			last := m.Waypoints[n-1]
			goal = Setpoint{Pos: last.Pos, Yaw: last.Yaw}
		} else {
			goal = m.st.current
		}
	} else {
		wp := m.Waypoints[m.st.idx]
		goal = Setpoint{Pos: wp.Pos, Yaw: wp.Yaw}
		radius := wp.Radius
		if radius <= 0 {
			radius = 0.15
		}
		if pos.Sub(wp.Pos).Norm() <= radius {
			if !m.st.holding {
				m.st.holding = true
				m.st.holdUntil = now + wp.Hold
			}
			if now >= m.st.holdUntil {
				m.st.idx++
				m.st.holding = false
			}
		} else {
			m.st.holding = false
		}
	}
	// Slew-limit the emitted position setpoint toward the goal.
	if m.SlewRate <= 0 || dt <= 0 {
		m.st.current = goal
		return m.st.current
	}
	delta := goal.Pos.Sub(m.st.current.Pos)
	maxStep := m.SlewRate * dt
	if d := delta.Norm(); d > maxStep {
		delta = delta.Scale(maxStep / d)
	}
	m.st.current.Pos = m.st.current.Pos.Add(delta)
	m.st.current.Yaw = goal.Yaw
	return m.st.current
}
