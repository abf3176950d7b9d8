package monitor

import (
	"fmt"
	"time"
)

// Envelope rules extend the paper's two security rules (§III-E) with
// the physical-state envelopes the Simplex literature monitors (e.g.
// VirtualDrone's safety envelopes): a geofence around the intended
// position and a descent-rate bound. They catch failure modes the
// attitude rule can miss — our UDP-flood experiments showed a control
// loop can lose altitude while oscillating below the attitude
// threshold.

// Extended rule identifiers.
const (
	RuleGeofence Rule = "geofence"
	RuleDescent  Rule = "descent-rate"
)

// EnvelopeRules configures the extended rules; zero values disable a
// rule.
type EnvelopeRules struct {
	// GeofenceRadius is the maximum tolerated distance from the
	// reference position, in meters.
	GeofenceRadius float64
	// MaxDescentRate is the maximum tolerated downward speed, m/s.
	MaxDescentRate float64
	// Hold requires a violation to persist before firing.
	Hold time.Duration
}

// DefaultEnvelopeRules returns the thresholds used by the extended
// experiments: 2 m fence, 1.5 m/s descent, 50 ms persistence.
func DefaultEnvelopeRules() EnvelopeRules {
	return EnvelopeRules{
		GeofenceRadius: 2.0,
		MaxDescentRate: 1.5,
		Hold:           50 * time.Millisecond,
	}
}

// envelopeState tracks per-rule persistence.
type envelopeState struct {
	badSince time.Duration
	bad      bool
}

// SetEnvelope installs the extended rules on the monitor. Passing the
// zero value removes them.
func (m *Monitor) SetEnvelope(r EnvelopeRules) {
	m.envelope = r
	m.st.geoState = envelopeState{}
	m.st.desState = envelopeState{}
}

// Envelope returns the configured extended rules.
func (m *Monitor) Envelope() EnvelopeRules { return m.envelope }

// CheckEnvelope evaluates the extended rules. posErr is the distance
// from the reference position (m); vz the vertical speed (m/s, up
// positive). Call alongside Check from the monitor task.
func (m *Monitor) CheckEnvelope(now time.Duration, posErr, vz float64) {
	if !m.st.armed || m.st.output == OutputSafety {
		return
	}
	if m.envelope.GeofenceRadius > 0 {
		if m.persist(&m.st.geoState, now, posErr > m.envelope.GeofenceRadius) {
			m.trip(now, RuleGeofence, fmt.Sprintf("position error %.2fm", posErr))
			return
		}
	}
	if m.envelope.MaxDescentRate > 0 {
		if m.persist(&m.st.desState, now, -vz > m.envelope.MaxDescentRate) {
			m.trip(now, RuleDescent, fmt.Sprintf("descending at %.2fm/s", -vz))
		}
	}
}

// persist implements the hold-time debounce shared by the envelope
// rules and reports whether the violation has persisted long enough.
func (m *Monitor) persist(st *envelopeState, now time.Duration, violating bool) bool {
	if !violating {
		st.bad = false
		return false
	}
	if !st.bad {
		st.bad = true
		st.badSince = now
	}
	return now-st.badSince >= m.envelope.Hold
}
