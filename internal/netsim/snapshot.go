package netsim

import "time"

// NetworkState is a deep mid-run snapshot of the fabric's dynamic
// state: queued and in-flight packets (payload bytes copied out of the
// pool), token-bucket levels, per-endpoint statistics, open partitions,
// link parameters, and the fabric clock. Topology (endpoints, limits,
// routes) is NOT part of the state — a snapshot restores onto a
// network built from the same scenario, which already has the same
// endpoints bound.
//
// Ownership: the state shares no memory with the network it was taken
// from or any network it is restored onto; the source may keep running
// and the state stays valid. The zero value is ready for SnapshotInto,
// which reuses the state's buffers across captures.
type NetworkState struct {
	now        time.Duration
	link       LinkParams
	endpoints  []endpointState
	limits     []bucketState
	partitions []hostPair
	inflight   []flightState
}

type endpointState struct {
	addr   Addr
	stats  Stats
	queued []packetState
}

type packetState struct {
	src, dst Addr
	payload  []byte // owned by the state, deep-copied both ways
	sentAt   time.Duration
}

type bucketState struct {
	addr   Addr
	tokens float64
	last   time.Duration
}

// flightState is one in-flight run: n copies of one packet, held as
// one payload copy.
type flightState struct {
	packetState
	at time.Duration
	n  int
}

func capturePacket(dst *packetState, p *Packet) {
	dst.src = p.Src
	dst.dst = p.Dst
	dst.payload = append(dst.payload[:0], p.Payload...)
	dst.sentAt = p.SentAt
}

// SnapshotInto captures the network's dynamic state into st, reusing
// st's buffers. Snapshots must be taken at a tick boundary (between
// Step calls), when no receive call is mid-flight.
func (n *Network) SnapshotInto(st *NetworkState) {
	st.now = n.now
	st.link = n.link

	st.endpoints = st.endpoints[:0]
	for _, ep := range n.endpoints {
		if cap(st.endpoints) > len(st.endpoints) {
			st.endpoints = st.endpoints[:len(st.endpoints)+1]
		} else {
			st.endpoints = append(st.endpoints, endpointState{})
		}
		es := &st.endpoints[len(st.endpoints)-1]
		es.addr = ep.addr
		es.stats = ep.stats
		es.queued = es.queued[:0]
		for i := 0; i < ep.count; i++ {
			slot := ep.head + i
			if slot >= len(ep.ring) {
				slot -= len(ep.ring)
			}
			if cap(es.queued) > len(es.queued) {
				es.queued = es.queued[:len(es.queued)+1]
			} else {
				es.queued = append(es.queued, packetState{})
			}
			capturePacket(&es.queued[len(es.queued)-1], &ep.ring[slot])
		}
	}

	st.limits = st.limits[:0]
	for addr, tb := range n.limits {
		st.limits = append(st.limits, bucketState{addr: addr, tokens: tb.tokens, last: tb.last})
	}

	st.partitions = st.partitions[:0]
	for pair := range n.partitions {
		st.partitions = append(st.partitions, pair)
	}

	st.inflight = st.inflight[:0]
	for i := range n.inflight {
		f := &n.inflight[i]
		if cap(st.inflight) > len(st.inflight) {
			st.inflight = st.inflight[:len(st.inflight)+1]
		} else {
			st.inflight = append(st.inflight, flightState{})
		}
		fs := &st.inflight[len(st.inflight)-1]
		capturePacket(&fs.packetState, &f.pkt)
		fs.at = f.at
		fs.n = f.n
	}
}

// RestoreFrom rewinds the network to a captured state. The network
// must carry the same topology as the capture source (same scenario,
// same Binds and Limits); a missing endpoint or bucket panics. Queued
// and in-flight payloads are re-materialized from the pool, one buffer
// per in-flight run as at capture, so the state remains valid for
// further restores.
func (n *Network) RestoreFrom(st *NetworkState) {
	if len(st.endpoints) != len(n.endpoints) || len(st.limits) != len(n.limits) {
		panic("netsim: RestoreFrom with mismatched topology; source and target must share a scenario")
	}
	// Every in-flight, queued and lent payload goes back to the pool
	// before the captured traffic is re-materialized from it.
	for i := range n.inflight {
		n.putBuf(n.inflight[i].pkt.Payload)
		n.inflight[i] = flight{}
	}
	n.inflight = n.inflight[:0]
	for _, ep := range n.endpoints {
		ep.recycle()
		for ep.count > 0 {
			n.putBuf(ep.pop().Payload)
		}
	}
	n.now = st.now
	n.link = st.link

	for i := range st.endpoints {
		es := &st.endpoints[i]
		ep := n.endpoints[es.addr]
		if ep == nil {
			panic("netsim: RestoreFrom onto a network missing endpoint " + es.addr.String())
		}
		ep.stats = es.stats
		ep.head = 0
		ep.count = len(es.queued)
		if ep.count > len(ep.ring) {
			panic("netsim: RestoreFrom queue exceeds ring capacity at " + es.addr.String())
		}
		for j := range es.queued {
			ps := &es.queued[j]
			buf := append(n.getBuf(len(ps.payload)), ps.payload...)
			ep.ring[j] = Packet{Src: ps.src, Dst: ps.dst, Payload: buf, SentAt: ps.sentAt, ep: ep}
		}
	}

	for _, bs := range st.limits {
		tb := n.limits[bs.addr]
		if tb == nil {
			panic("netsim: RestoreFrom onto a network missing limit for " + bs.addr.String())
		}
		tb.tokens = bs.tokens
		tb.last = bs.last
	}

	clear(n.partitions)
	for _, pair := range st.partitions {
		if n.partitions == nil {
			n.partitions = make(map[hostPair]bool)
		}
		n.partitions[pair] = true
	}

	n.inflight = n.inflight[:0]
	for i := range st.inflight {
		fs := &st.inflight[i]
		ep := n.endpoints[fs.dst]
		if ep == nil {
			panic("netsim: RestoreFrom in-flight packet to unbound " + fs.dst.String())
		}
		buf := append(n.getBuf(len(fs.payload)), fs.payload...)
		n.inflight = append(n.inflight, flight{
			pkt: Packet{Src: fs.src, Dst: fs.dst, Payload: buf, SentAt: fs.sentAt, ep: ep},
			at:  fs.at,
			n:   fs.n,
		})
	}
}

// NATState captures a NAT table's conntrack counters, keyed by host
// port. Rules themselves are topology, rebuilt by the scenario; only
// the counters are run state.
type NATState struct {
	counts []natCount
}

type natCount struct {
	port  int
	count int64
}

// SnapshotInto captures the table's conntrack counters into st,
// reusing st's buffer.
func (n *NATTable) SnapshotInto(st *NATState) {
	st.counts = st.counts[:0]
	for port, ct := range n.translations {
		st.counts = append(st.counts, natCount{port: port, count: *ct})
	}
}

// RestoreFrom rewinds the conntrack counters to a captured state. The
// boxed counters are written in place, so cached send paths keep their
// pointers. The table must carry the capture source's counter set.
func (n *NATTable) RestoreFrom(st *NATState) {
	if len(st.counts) != len(n.translations) {
		panic("netsim: NAT RestoreFrom onto a table with a different counter set")
	}
	for _, c := range st.counts {
		ct := n.translations[c.port]
		if ct == nil {
			panic("netsim: NAT RestoreFrom onto a table missing a counter")
		}
		*ct = c.count
	}
}
