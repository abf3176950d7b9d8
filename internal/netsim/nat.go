package netsim

import (
	"errors"
	"fmt"
)

// NATTable models the iptables DNAT rules Docker installs for port
// mapping with hairpin NAT enabled (paper §IV-B: "port mapping is
// achieved only through modification of iptables rules, no port
// binding or user proxy process is involved"). A rule rewrites
// datagrams addressed to hostAddr:hostPort toward the container
// endpoint; hairpin mode lets the *container itself* reach its own
// published port through the host address, which a userland proxy
// cannot do.
type NATTable struct {
	hostHost string
	rules    map[int]Addr // host port → container endpoint
	hairpin  bool
	// conntrack counts translations per host port, the analog of the
	// kernel's connection-tracking statistics. Counters are boxed so
	// cached send paths can bump them without a map lookup per packet.
	translations map[int]*int64
	// gen invalidates cached resolutions whenever the rule set changes.
	gen int
}

// ErrNATConflict reports a duplicate host-port rule.
var ErrNATConflict = errors.New("netsim: host port already mapped")

// NewNATTable builds an empty table for the given host identity.
func NewNATTable(hostHost string, hairpin bool) *NATTable {
	return &NATTable{
		hostHost:     hostHost,
		rules:        make(map[int]Addr),
		hairpin:      hairpin,
		translations: make(map[int]*int64),
	}
}

// AddRule publishes a container endpoint on a host port.
func (n *NATTable) AddRule(hostPort int, containerDst Addr) error {
	if _, dup := n.rules[hostPort]; dup {
		return fmt.Errorf("%w: %d", ErrNATConflict, hostPort)
	}
	n.rules[hostPort] = containerDst
	if n.translations[hostPort] == nil {
		n.translations[hostPort] = new(int64)
	}
	n.gen++
	return nil
}

// RemoveRule withdraws a mapping (container stop).
func (n *NATTable) RemoveRule(hostPort int) {
	delete(n.rules, hostPort)
	n.gen++
}

// Gen identifies the current rule-set revision; cached resolutions
// carrying an older Gen must re-resolve.
func (n *NATTable) Gen() int { return n.gen }

// Rules returns the number of installed rules.
func (n *NATTable) Rules() int { return len(n.rules) }

// Hairpin reports whether hairpin mode is on.
func (n *NATTable) Hairpin() bool { return n.hairpin }

// Translations returns how many datagrams were rewritten for a host
// port.
func (n *NATTable) Translations(hostPort int) int64 {
	if ct := n.translations[hostPort]; ct != nil {
		return *ct
	}
	return 0
}

// Translate applies the DNAT rules to a datagram from src to dst and
// returns the effective destination. Rules apply when dst is the host
// address and a rule exists for the port; traffic from the container
// side is translated only in hairpin mode.
func (n *NATTable) Translate(src, dst Addr) Addr {
	to, ct := n.Resolve(src, dst)
	if ct != nil {
		*ct++
	}
	return to
}

// Resolve applies the DNAT rules like Translate but without counting:
// it returns the effective destination plus the rule's conntrack
// counter (nil when no rule applied). Callers that cache the resolved
// destination bump the counter once per datagram sent through it.
func (n *NATTable) Resolve(src, dst Addr) (Addr, *int64) {
	if dst.Host != n.hostHost {
		return dst, nil
	}
	to, ok := n.rules[dst.Port]
	if !ok {
		return dst, nil
	}
	fromContainer := src.Host == to.Host
	if fromContainer && !n.hairpin {
		// Without hairpin NAT the container's own published port is
		// unreachable via the host address (the classic Docker
		// userland-proxy asymmetry).
		return dst, nil
	}
	return to, n.translations[dst.Port]
}
