// Package attack implements the adversary of the paper's threat model
// (§III-B): malicious code smuggled into the container through an
// update, able to run any program inside the CCE but unable to escape
// it. Four concrete attacks cover the paper's experiments plus the
// CPU-DoS case the defenses are designed around:
//
//   - Bandwidth: the IsolBench-style memory hog of §V-B (Figs 4/5),
//   - Flood: the UDP packet flood of §V-C (Fig 7),
//   - KillController: the §V-D attack that shuts down the complex
//     controller mid-flight (Fig 6),
//   - CPUHog: a busy-loop spinner targeting CPU time (§III-C).
package attack

import (
	"fmt"
	"time"

	"containerdrone/internal/sched"
)

// BandwidthAccessRate is the default memory demand of the Bandwidth
// attack: several times the bus capacity, matching IsolBench's
// sequential read/write of a large array.
const BandwidthAccessRate = 400e6 // accesses per second

// Bandwidth returns the memory-intensive busy task. It is "the only
// process running inside the container" in the paper's experiment, so
// it gets the whole container core to itself.
func Bandwidth(core int, accessRate float64) *sched.Task {
	if accessRate <= 0 {
		accessRate = BandwidthAccessRate
	}
	return &sched.Task{
		Name:       "attack-bandwidth",
		Core:       core,
		Priority:   sched.PrioContainer,
		AccessRate: accessRate,
		MemBound:   1, // pure pointer-chasing: fully memory bound
	}
}

// CPUHog returns a pure compute spinner at the given priority (the
// priority cap of the container decides how much damage it can do).
func CPUHog(core, priority int) *sched.Task {
	return &sched.Task{
		Name:     "attack-cpuhog",
		Core:     core,
		Priority: priority,
	}
}

// Flood generates a UDP packet flood against a host port. The send
// function abstracts the container's network namespace (wired to
// Container.SendBurst by the framework); the flood task runs inside
// the container and emits a burst of packets every period, handed to
// send in one call.
type Flood struct {
	// PacketsPerSecond is the attempted flood rate.
	PacketsPerSecond float64
	// PayloadSize is the size of each junk datagram.
	PayloadSize int

	send    func(payload []byte, n int)
	payload []byte
	sent    int64
}

// NewFlood builds a flood generator. send must enqueue n copies of
// one datagram toward the victim port.
func NewFlood(send func(payload []byte, n int), pktPerSec float64, payloadSize int) *Flood {
	if pktPerSec <= 0 {
		pktPerSec = 20000
	}
	if payloadSize <= 0 {
		payloadSize = 64
	}
	f := &Flood{
		PacketsPerSecond: pktPerSec,
		PayloadSize:      payloadSize,
		send:             send,
		payload:          make([]byte, payloadSize),
	}
	for i := range f.payload {
		f.payload[i] = 0xA5 // junk, deliberately not valid MAVLink
	}
	return f
}

// Sent reports packets emitted so far (attempted sends, whatever the
// fabric then did with them).
func (f *Flood) Sent() int64 { return f.sent }

// Task returns the scheduler task that drives the flood: a 1 kHz
// periodic task emitting PacketsPerSecond/1000 datagrams per job. The
// flood costs the attacker little CPU — the damage is in the network.
func (f *Flood) Task(core int) *sched.Task {
	period := time.Millisecond
	burst := int(f.PacketsPerSecond * period.Seconds())
	if burst < 1 {
		burst = 1
	}
	return &sched.Task{
		Name:     "attack-udpflood",
		Core:     core,
		Priority: sched.PrioContainer,
		Period:   period,
		WCET:     200 * time.Microsecond,
		Work: func(time.Duration) {
			f.send(f.payload, burst)
			f.sent += int64(burst)
		},
	}
}

// KillController is the §V-D attack: terminate the complex controller
// to deny its output entirely while freeing the container's resources
// for other attack code. It is expressed as a function the scenario
// schedules at the attack time.
func KillController(kill func()) func(now time.Duration) {
	return func(time.Duration) { kill() }
}

// Plan names an attack scenario and its start time, used by the
// scenario runner and the experiment harness.
type Plan struct {
	Kind  Kind
	Start time.Duration
	// Rate parameterizes the attack: accesses/s for Bandwidth,
	// packets/s for Flood; ignored otherwise.
	Rate float64
	// Member selects whose container the attack code runs in (fleet
	// member index, 0 = the leader — the only member of a single-drone
	// scenario).
	Member int
	// Target selects the member a Flood aims at (its HCE motor port).
	// Target == Member models the paper's in-drone flood; a different
	// Target models a compromised swarm member attacking a peer across
	// the shared fabric. Ignored by the other kinds.
	Target int
}

// Active reports whether the plan schedules a real attack (any kind
// other than KindNone).
func (p Plan) Active() bool { return p.Kind != KindNone }

// Kind enumerates the implemented attacks.
type Kind int

// Attack kinds.
const (
	KindNone Kind = iota
	KindBandwidth
	KindFlood
	KindKill
	KindCPUHog
)

// String names the attack kind.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindBandwidth:
		return "bandwidth"
	case KindFlood:
		return "udp-flood"
	case KindKill:
		return "kill-controller"
	case KindCPUHog:
		return "cpu-hog"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind resolves a kind from its string name.
func ParseKind(s string) (Kind, error) {
	for _, k := range []Kind{KindNone, KindBandwidth, KindFlood, KindKill, KindCPUHog} {
		if k.String() == s {
			return k, nil
		}
	}
	return KindNone, fmt.Errorf("attack: unknown kind %q", s)
}
