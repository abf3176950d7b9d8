// Package netsim simulates the UDP communication fabric between the
// host control environment and the container control environment: the
// docker0-style bridge, bounded receive queues, iptables-style
// token-bucket rate limits, and optional latency/jitter/loss. The
// paper's UDP DoS experiment (Fig 7) is entirely a property of this
// layer: a flood fills queues and consumes the rate budget, starving
// the legitimate motor-output stream.
//
// The fabric is allocation-free at steady state: payload bytes live in
// a free-list pool owned by the Network, receive queues are fixed
// rings sized at Bind, and Drain hands out a reused scratch slice.
//
// # Payload ownership
//
// Payloads are recycled, not garbage collected. Every receive entry
// point (Recv, Drain, RecvAll) first returns the buffers it lent on
// the previous call to the pool, so:
//
//   - a Packet.Payload is valid only until the NEXT receive call on
//     the same endpoint — after that the same backing array may be
//     rewritten with a different datagram's bytes;
//   - the slice returned by Drain is scratch, overwritten by the next
//     Drain/RecvAll on the endpoint;
//   - callers that retain a payload across receive calls (queues,
//     capture buffers, logs) must copy it first, e.g.
//     buf = append(buf[:0], pkt.Payload...).
//
// Decoding in place is safe (mavlink.Decode aliases its input), but
// the decoded frame's Payload inherits the same lifetime. The
// aliasing regression test in this package pins this contract.
package netsim

import (
	"fmt"
	"time"
)

// Addr identifies a simulated UDP endpoint.
type Addr struct {
	Host string
	Port int
}

// String renders "host:port".
func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.Host, a.Port) }

// Packet is one datagram in flight or queued.
type Packet struct {
	Src     Addr
	Dst     Addr
	Payload []byte
	SentAt  time.Duration

	// ep is the destination endpoint, resolved at send time so
	// delivery in Step never hashes the endpoint map.
	ep *Endpoint
}

// Stats counts per-endpoint delivery outcomes.
type Stats struct {
	Delivered      int64 // packets enqueued at the receiver
	Received       int64 // packets dequeued by the application
	DroppedQueue   int64 // receiver queue full
	DroppedLimit   int64 // iptables rate limit exceeded
	DroppedLoss    int64 // random link loss
	DroppedSplit   int64 // host pair partitioned (fault injection)
	BytesDelivered int64
}

// Endpoint is a bound receive queue: a fixed-capacity ring allocated
// once at Bind, so steady-state enqueue/dequeue never allocates and
// never shifts queued packets.
type Endpoint struct {
	addr  Addr
	net   *Network
	ring  []Packet // fixed ring storage, len(ring) == queue capacity
	head  int      // index of the oldest queued packet
	count int      // queued packets
	stats Stats

	// handed are pool payloads lent to the application by the previous
	// receive call; they return to the pool on the next receive call.
	handed [][]byte
	// drain is the scratch slice Drain/RecvAll hand out.
	drain []Packet
}

// Addr returns the bound address.
func (e *Endpoint) Addr() Addr { return e.addr }

// Pending returns the number of queued packets.
func (e *Endpoint) Pending() int { return e.count }

// recycle returns the payloads lent by the previous receive call to
// the network's pool. Every receive entry point calls it first, which
// is what makes the lending contract "valid until the next receive
// call on this endpoint".
func (e *Endpoint) recycle() {
	for i, p := range e.handed {
		e.net.putBuf(p)
		e.handed[i] = nil
	}
	e.handed = e.handed[:0]
}

// pop removes and returns the oldest queued packet. The caller must
// have checked count > 0. The vacated slot is left as-is: its payload
// reference pins only a pool-owned buffer, and the slot is overwritten
// on reuse.
func (e *Endpoint) pop() Packet {
	p := e.ring[e.head]
	e.head++
	if e.head == len(e.ring) {
		e.head = 0
	}
	e.count--
	e.stats.Received++
	return p
}

// Recv pops the oldest queued packet, reporting ok=false when empty.
//
// Ownership: the packet's Payload is a pooled buffer, valid only until
// the next Recv/RecvAll/Drain call on this endpoint; callers that
// retain it across receive calls must copy it.
func (e *Endpoint) Recv() (Packet, bool) {
	e.recycle()
	if e.count == 0 {
		return Packet{}, false
	}
	p := e.pop()
	e.handed = append(e.handed, p.Payload)
	return p, true
}

// Drain empties the queue, returning packets oldest-first in an
// internal scratch slice reused across calls.
//
// Ownership: both the returned slice and every packet's Payload are
// valid only until the next Recv/RecvAll/Drain call on this endpoint;
// callers that retain them must copy.
func (e *Endpoint) Drain() []Packet {
	e.recycle()
	e.drain = e.drain[:0]
	for e.count > 0 {
		p := e.pop()
		e.handed = append(e.handed, p.Payload)
		e.drain = append(e.drain, p)
	}
	return e.drain
}

// RecvAll is Drain under its historical name. Deprecated: use Drain;
// unlike the original RecvAll the result is no longer caller-owned.
func (e *Endpoint) RecvAll() []Packet { return e.Drain() }

// Stats returns a copy of the endpoint's counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// TokenBucket is the iptables `limit` match: average rate with burst.
type TokenBucket struct {
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Duration
}

// NewTokenBucket builds a full bucket with the given sustained rate
// (tokens/second) and burst capacity.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Allow consumes one token if available at time now. The bucket
// refills only when now is past the last refill; the integer test
// keeps every later packet of the same instant off the float divide.
func (b *TokenBucket) Allow(now time.Duration) bool {
	if now > b.last {
		b.tokens += (now - b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// Tokens reports the current token count (for tests and telemetry).
func (b *TokenBucket) Tokens() float64 { return b.tokens }

// NormSource supplies standard normal samples for jitter; UniformSource
// supplies uniform [0,1) samples for loss.
type (
	NormSource    func() float64
	UniformSource func() float64
)

// LinkParams models the bridge characteristics.
type LinkParams struct {
	Latency time.Duration // fixed one-way latency
	Jitter  time.Duration // 1-sigma random extra latency
	Loss    float64       // independent drop probability
}

// flight is one in-fabric packet and its delivery deadline.
type flight struct {
	pkt Packet
	at  time.Duration
}

// Network is the simulated fabric. Call Step once per simulation tick
// to move in-flight packets into receive queues.
type Network struct {
	endpoints map[Addr]*Endpoint
	limits    map[Addr]*TokenBucket
	inflight  []flight
	link      LinkParams
	now       time.Duration
	norm      NormSource
	uniform   UniformSource

	// partitions holds directed host pairs whose traffic is dropped at
	// send time — the fault layer's network-split switch. nil (the
	// common case) keeps the per-packet check to one pointer test.
	partitions map[hostPair]bool

	// free is the payload buffer pool. Send copies into a pooled
	// buffer; the buffer comes back on drop, on endpoint recycle, or
	// never grows past the population the steady-state traffic needs.
	free [][]byte

	// gen invalidates cached Routes whenever the endpoint or limit
	// tables change (Bind/Limit are setup-time operations).
	gen int
}

// New builds an empty network. The random sources may be nil when the
// link is configured without jitter or loss.
func New(norm NormSource, uniform UniformSource) *Network {
	if norm == nil {
		norm = func() float64 { return 0 }
	}
	if uniform == nil {
		uniform = func() float64 { return 1 }
	}
	return &Network{
		endpoints: make(map[Addr]*Endpoint),
		limits:    make(map[Addr]*TokenBucket),
		norm:      norm,
		uniform:   uniform,
	}
}

// getBuf returns a pooled buffer with capacity >= n, allocating only
// when the pool is empty or its top buffer is too small (buffer sizes
// converge on the largest payload in the traffic mix).
func (n *Network) getBuf(size int) []byte {
	if last := len(n.free) - 1; last >= 0 {
		b := n.free[last]
		n.free[last] = nil
		n.free = n.free[:last]
		if cap(b) >= size {
			return b[:0]
		}
	}
	return make([]byte, 0, size)
}

// putBuf returns a payload buffer to the pool.
func (n *Network) putBuf(b []byte) {
	if b == nil {
		return
	}
	n.free = append(n.free, b)
}

// SetLink configures latency/jitter/loss for all traffic.
func (n *Network) SetLink(p LinkParams) { n.link = p }

// Link returns the current link parameters, so a transient
// degradation (the jitter fault) can restore the previous state when
// its window closes.
func (n *Network) Link() LinkParams { return n.link }

// hostPair is a directed (src host, dst host) edge.
type hostPair struct{ src, dst string }

// SetPartition opens (on=true) or heals (on=false) a bidirectional
// partition between two hosts: while open, every datagram between
// them is dropped at send time and counted in DroppedSplit — the
// bridge-down failure mode of a network split.
func (n *Network) SetPartition(a, b string, on bool) {
	if n.partitions == nil {
		if !on {
			return
		}
		n.partitions = make(map[hostPair]bool)
	}
	if on {
		n.partitions[hostPair{a, b}] = true
		n.partitions[hostPair{b, a}] = true
	} else {
		delete(n.partitions, hostPair{a, b})
		delete(n.partitions, hostPair{b, a})
	}
}

// Partitioned reports whether traffic from src host to dst host is
// currently dropped.
func (n *Network) Partitioned(src, dst string) bool {
	return n.partitions != nil && n.partitions[hostPair{src, dst}]
}

// Bind creates (or returns) the endpoint for addr with the given
// receive queue capacity, preallocating its ring storage. Rebinding
// keeps the original capacity.
func (n *Network) Bind(addr Addr, queueCap int) *Endpoint {
	if ep, ok := n.endpoints[addr]; ok {
		return ep
	}
	if queueCap <= 0 {
		queueCap = 64
	}
	ep := &Endpoint{addr: addr, net: n, ring: make([]Packet, queueCap)}
	n.endpoints[addr] = ep
	n.gen++
	return ep
}

// Limit installs an iptables-style token-bucket limit on packets
// destined to addr: at most rate packets/second sustained, with the
// given burst. Passing rate <= 0 removes the limit.
func (n *Network) Limit(addr Addr, rate, burst float64) {
	n.gen++
	if rate <= 0 {
		delete(n.limits, addr)
		return
	}
	n.limits[addr] = NewTokenBucket(rate, burst)
}

// Send submits a datagram, copying the payload into a pooled buffer
// (the caller keeps ownership of payload). Drop decisions (rate limit,
// loss) happen at send time; queue-full drops happen at delivery time.
// Returns whether the packet entered the fabric.
func (n *Network) Send(src, dst Addr, payload []byte) bool {
	ep, bound := n.endpoints[dst]
	if !bound {
		return false // nothing listening: silently dropped like real UDP
	}
	return n.sendTo(ep, n.limits[dst], src, dst, payload, 1) == 1
}

// sendTo is the one resolved-destination send path, shared by Send,
// Route.Send and Route.SendBurst: count copies of payload, in send
// order, exactly as count single sends in a row would go. The
// partition is checked once per burst. The fabric clock cannot move
// inside a burst, so the bucket cannot refill either: after its first
// refusal every remaining packet is refused too, and they are counted
// at once. Each admitted packet still draws loss and jitter in turn.
func (n *Network) sendTo(ep *Endpoint, tb *TokenBucket, src, dst Addr, payload []byte, count int) int {
	if n.partitions != nil && n.partitions[hostPair{src.Host, dst.Host}] {
		ep.stats.DroppedSplit += int64(count)
		return 0
	}
	f := flight{pkt: Packet{Src: src, Dst: dst, SentAt: n.now, ep: ep}, at: n.now}
	sent := 0
	for i := 0; i < count; i++ {
		if tb != nil && !tb.Allow(n.now) {
			ep.stats.DroppedLimit += int64(count - i)
			break
		}
		if n.link.Loss > 0 && n.uniform() < n.link.Loss {
			ep.stats.DroppedLoss++
			continue
		}
		f.at = n.now + n.link.Latency
		if n.link.Jitter > 0 {
			j := time.Duration(float64(n.link.Jitter) * n.norm())
			if j < 0 {
				j = -j
			}
			f.at += j
		}
		f.pkt.Payload = append(n.getBuf(len(payload)), payload...)
		n.inflight = append(n.inflight, f)
		sent++
	}
	return sent
}

// Route is a pre-resolved unicast path: fixed source and destination
// with the endpoint and rate-limit lookups hoisted out of the
// per-packet path. High-rate senders (the Table-I streams, the UDP
// flood) send through a Route so the fabric's address maps are hashed
// once per topology change instead of once per packet.
type Route struct {
	net      *Network
	src, dst Addr
	gen      int // matches net.gen when ep/tb are current
	ep       *Endpoint
	tb       *TokenBucket
}

// Route builds a reusable sender from src to dst. Resolution is lazy
// and self-invalidating: a later Bind or Limit bumps the network's
// generation and the Route re-resolves on its next Send.
func (n *Network) Route(src, dst Addr) *Route {
	return &Route{net: n, src: src, dst: dst, gen: n.gen - 1}
}

// Send submits one datagram along the route; semantics are identical
// to Network.Send with the route's addresses.
func (r *Route) Send(payload []byte) bool {
	return r.resolve() && r.net.sendTo(r.ep, r.tb, r.src, r.dst, payload, 1) == 1
}

// SendBurst submits count (>= 0) copies of one datagram along the
// route at the current instant, exactly as count Send calls in a row
// would, and returns how many entered the fabric.
func (r *Route) SendBurst(payload []byte, count int) int {
	if !r.resolve() {
		return 0
	}
	return r.net.sendTo(r.ep, r.tb, r.src, r.dst, payload, count)
}

// resolve refreshes the route's endpoint and limit after a topology
// change and reports whether anything listens at the destination.
func (r *Route) resolve() bool {
	if n := r.net; r.gen != n.gen {
		r.ep = n.endpoints[r.dst]
		r.tb = n.limits[r.dst]
		r.gen = n.gen
	}
	return r.ep != nil
}

// Step advances the fabric to the given simulated time, delivering
// every in-flight packet whose latency has elapsed, in send order.
// Packets dropped at delivery (queue full, endpoint gone) return their
// payload buffers to the pool.
func (n *Network) Step(now time.Duration) {
	n.now = now
	kept := 0
	for i := range n.inflight {
		f := &n.inflight[i]
		if f.at > now {
			if kept != i {
				n.inflight[kept] = *f
			}
			kept++
			continue
		}
		ep := f.pkt.ep
		if ep.count >= len(ep.ring) {
			ep.stats.DroppedQueue++
			n.putBuf(f.pkt.Payload)
			continue
		}
		tail := ep.head + ep.count
		if tail >= len(ep.ring) {
			tail -= len(ep.ring)
		}
		ep.ring[tail] = f.pkt
		ep.count++
		ep.stats.Delivered++
		ep.stats.BytesDelivered += int64(len(f.pkt.Payload))
	}
	// The truncated tail keeps its payload references; they point into
	// the pool, which owns the buffers either way.
	n.inflight = n.inflight[:kept]
}

// InFlight reports packets not yet delivered.
func (n *Network) InFlight() int { return len(n.inflight) }
