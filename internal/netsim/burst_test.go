package netsim

import (
	"bytes"
	"math"
	"testing"
	"time"

	"containerdrone/internal/sim"
)

// burstFabric is one network of a burst-versus-singles pair, with
// counting random sources so the oracle can compare how many loss and
// jitter draws each side made.
type burstFabric struct {
	net            *Network
	route          *Route
	norms, uniform int

	// bufs holds every payload buffer the fabric has been seen to hand
	// out, keyed by its backing array and kept referenced so no address
	// is reused; size is their one capacity.
	bufs map[*byte][]byte
	size int
}

var (
	burstSrc = Addr{Host: "cce", Port: 40000}
	burstDst = Addr{Host: "hce", Port: 14600}
)

// newBurstFabric builds a fabric with a 4-slot receive queue on
// burstDst, an optional token bucket on it, and the given link. The
// random sources are seeded alike on both sides of a pair.
func newBurstFabric(seed uint64, link LinkParams, rate, burst float64, bind bool) *burstFabric {
	f := &burstFabric{bufs: make(map[*byte][]byte)}
	rng := sim.NewRNG(seed)
	f.net = New(
		func() float64 { f.norms++; return rng.Norm() },
		func() float64 { f.uniform++; return rng.Float64() },
	)
	if bind {
		f.net.Bind(burstDst, 4)
	}
	f.net.Limit(burstDst, rate, burst)
	f.net.SetLink(link)
	f.route = f.net.Route(burstSrc, burstDst)
	return f
}

// compareFabrics fails unless a and b hold the same state: endpoint
// counters, queued and in-flight packets (addresses, bytes, send and
// delivery instants) in order, draw counts and the bucket. In-flight
// traffic is compared packet by packet, each run expanded into its
// packets. The pools are not compared, since a run holds one buffer
// where the same single sends hold one each; checkBuffers checks each
// side's buffers on their own instead.
func compareFabrics(t *testing.T, a, b *burstFabric) {
	t.Helper()
	if a.norms != b.norms || a.uniform != b.uniform {
		t.Fatalf("draws: norm %d/%d, uniform %d/%d", a.norms, b.norms, a.uniform, b.uniform)
	}
	checkBuffers(t, a)
	checkBuffers(t, b)
	ta, tb := a.net.limits[burstDst], b.net.limits[burstDst]
	if (ta == nil) != (tb == nil) {
		t.Fatal("one side lost its bucket")
	}
	if ta != nil && (math.Float64bits(ta.tokens) != math.Float64bits(tb.tokens) || ta.last != tb.last) {
		t.Fatalf("bucket tokens/last = %v/%v, want %v/%v", ta.tokens, ta.last, tb.tokens, tb.last)
	}
	fa, fb := inflightPackets(a.net), inflightPackets(b.net)
	if len(fa) != len(fb) {
		t.Fatalf("in flight %d packets, want %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i].at != fb[i].at || !samePacket(&fa[i].pkt, &fb[i].pkt) {
			t.Fatalf("in-flight packet %d differs: %+v, want %+v", i, fa[i], fb[i])
		}
	}
	ea, eb := a.net.endpoints[burstDst], b.net.endpoints[burstDst]
	if (ea == nil) != (eb == nil) {
		t.Fatal("one side lost its endpoint")
	}
	if ea == nil {
		return
	}
	if ea.Stats() != eb.Stats() {
		t.Fatalf("stats = %+v, want %+v", ea.Stats(), eb.Stats())
	}
	if ea.count != eb.count {
		t.Fatalf("queued %d, want %d", ea.count, eb.count)
	}
	for i := 0; i < ea.count; i++ {
		pa := &ea.ring[(ea.head+i)%len(ea.ring)]
		pb := &eb.ring[(eb.head+i)%len(eb.ring)]
		if !samePacket(pa, pb) {
			t.Fatalf("queued packet %d differs: %+v, want %+v", i, *pa, *pb)
		}
	}
}

// inflightPackets expands n's in-flight runs into one flight of one
// packet each, in send order.
func inflightPackets(n *Network) []flight {
	var out []flight
	for _, f := range n.inflight {
		for j := 0; j < f.n; j++ {
			out = append(out, flight{pkt: f.pkt, at: f.at, n: 1})
		}
	}
	return out
}

// checkBuffers fails unless f's payload buffers are all accounted for:
// none appears twice across the pool, the in-flight runs, the receive
// ring and the buffers lent to the last receive call, and pool +
// distinct in-flight buffers + queued + lent equals the buffers ever
// handed out. getBuf drops a pooled buffer only when it is too small
// for the payload, so the oracle sends one payload size per fabric and
// requires every buffer to have that capacity: then nothing may leave
// circulation.
func checkBuffers(t *testing.T, f *burstFabric) {
	t.Helper()
	live := make(map[*byte]bool)
	add := func(where string, b []byte) {
		if cap(b) == 0 {
			t.Fatalf("empty buffer %s: the oracle identifies buffers by their first byte", where)
		}
		if f.size == 0 {
			f.size = cap(b)
		}
		if cap(b) != f.size {
			t.Fatalf("buffer of capacity %d %s beside capacity %d: the oracle needs one payload size", cap(b), where, f.size)
		}
		p := &b[:cap(b)][0]
		if live[p] {
			t.Fatalf("buffer %p appears twice, again %s", p, where)
		}
		live[p] = true
		if f.bufs[p] == nil {
			f.bufs[p] = b
		}
	}
	n := f.net
	for _, b := range n.free {
		add("in the pool", b)
	}
	for i := range n.inflight {
		add("in flight", n.inflight[i].pkt.Payload)
	}
	if ep := n.endpoints[burstDst]; ep != nil {
		for i := 0; i < ep.count; i++ {
			add("queued", ep.ring[(ep.head+i)%len(ep.ring)].Payload)
		}
		for _, b := range ep.handed {
			add("lent", b)
		}
	}
	if len(live) != len(f.bufs) {
		t.Fatalf("%d buffers live, but %d handed out: a buffer leaked", len(live), len(f.bufs))
	}
}

func samePacket(a, b *Packet) bool {
	return a.Src == b.Src && a.Dst == b.Dst && a.SentAt == b.SentAt &&
		a.ep.addr == b.ep.addr && bytes.Equal(a.Payload, b.Payload)
}

// stepBoth advances both fabrics to now and drains their receive
// queues, failing unless the two deliver the same payloads in order.
func stepBoth(t *testing.T, a, b *burstFabric, now time.Duration) {
	t.Helper()
	a.net.Step(now)
	b.net.Step(now)
	compareFabrics(t, a, b)
	ea, eb := a.net.endpoints[burstDst], b.net.endpoints[burstDst]
	if ea == nil {
		return
	}
	da, db := ea.Drain(), eb.Drain()
	if len(da) != len(db) {
		t.Fatalf("delivered %d packets, want %d", len(da), len(db))
	}
	for i := range da {
		if !samePacket(&da[i], &db[i]) {
			t.Fatalf("delivered packet %d differs: %+v, want %+v", i, da[i], db[i])
		}
	}
}

// burstAgainstSingles sends count copies of payload as one
// Route.SendBurst on a and as count single sends on b (Network.Send or
// Route.Send), then compares the admitted counts and the fabrics.
func burstAgainstSingles(t *testing.T, a, b *burstFabric, payload []byte, count int, viaNetwork bool) {
	t.Helper()
	got := a.route.SendBurst(payload, count)
	want := 0
	for i := 0; i < count; i++ {
		sent := false
		if viaNetwork {
			sent = b.net.Send(burstSrc, burstDst, payload)
		} else {
			sent = b.route.Send(payload)
		}
		if sent {
			want++
		}
	}
	if got != want {
		t.Fatalf("burst of %d admitted %d, singles admitted %d", count, got, want)
	}
	compareFabrics(t, a, b)
}

func TestSendBurstMatchesSingleSends(t *testing.T) {
	cases := []struct {
		name        string
		link        LinkParams
		rate, burst float64
		pre         int // packets sent at t=0 to stock the pool and draw the bucket down
		at          time.Duration
		partition   bool
		unbound     bool
		n           int
	}{
		{name: "no-limit", pre: 6, at: time.Millisecond, n: 20},
		{name: "bucket-runs-dry", rate: 8000, burst: 12, pre: 6, at: time.Millisecond, n: 20},
		{name: "empty-bucket", rate: 8000, burst: 4, pre: 10, n: 20},
		{name: "partition", rate: 8000, burst: 512, pre: 3, at: time.Millisecond, partition: true, n: 20},
		{name: "loss", link: LinkParams{Loss: 0.3}, rate: 8000, burst: 16, pre: 8, at: time.Millisecond, n: 40},
		{name: "jitter", link: LinkParams{Latency: 100 * time.Microsecond, Jitter: 300 * time.Microsecond},
			rate: 8000, burst: 30, pre: 5, at: time.Millisecond, n: 40},
		{name: "latency", link: LinkParams{Latency: 300 * time.Microsecond}, rate: 8000, burst: 30, pre: 5,
			at: time.Millisecond, n: 40},
		{name: "unbound", rate: 8000, burst: 512, at: time.Millisecond, unbound: true, n: 20},
		{name: "zero", rate: 8000, burst: 512, pre: 3, at: time.Millisecond, n: 0},
	}
	payload := bytes.Repeat([]byte{0xA5}, 64)
	for _, c := range cases {
		for _, viaNetwork := range []bool{false, true} {
			name := c.name + "/route"
			if viaNetwork {
				name = c.name + "/network"
			}
			t.Run(name, func(t *testing.T) {
				a := newBurstFabric(3, c.link, c.rate, c.burst, !c.unbound)
				b := newBurstFabric(3, c.link, c.rate, c.burst, !c.unbound)
				for _, f := range []*burstFabric{a, b} {
					for i := 0; i < c.pre; i++ {
						f.route.Send(bytes.Repeat([]byte{byte(i)}, len(payload)))
					}
				}
				stepBoth(t, a, b, 0)
				if c.partition {
					a.net.SetPartition(burstSrc.Host, burstDst.Host, true)
					b.net.SetPartition(burstSrc.Host, burstDst.Host, true)
				}
				stepBoth(t, a, b, c.at)
				burstAgainstSingles(t, a, b, payload, c.n, viaNetwork)
				stepBoth(t, a, b, c.at+time.Second)
			})
		}
	}
}

// FuzzSendBurst checks the burst path against single sends over a
// script of bursts at random sizes and instants, into a random bucket
// with loss, jitter, a latency alone, a partition or an unbound
// destination switched on by flags.
func FuzzSendBurst(f *testing.F) {
	f.Add(8000.0, 512.0, uint8(0), uint64(1), []byte{20, 10, 20, 10, 20, 0, 200, 1})
	f.Add(8000.0, 4.0, uint8(2), uint64(2), []byte{20, 1, 0, 0, 7, 3, 255, 40})
	f.Add(1000.0, 2.5, uint8(4), uint64(3), []byte{3, 0, 3, 0, 3, 1})
	f.Add(0.0, 0.0, uint8(1), uint64(4), []byte{5, 5})
	f.Add(8000.0, 512.0, uint8(8), uint64(5), []byte{20, 10})
	f.Add(8000.0, 512.0, uint8(16), uint64(6), []byte{20, 2, 20, 3, 3, 10, 20, 1})
	f.Fuzz(func(t *testing.T, rate, burst float64, flags uint8, seed uint64, script []byte) {
		// Keep the bucket finite; rate <= 0 installs no limit.
		if !(math.Abs(rate) < 1e7) {
			rate = 8000
		}
		if !(math.Abs(burst) < 1e4) {
			burst = 512
		}
		var link LinkParams
		if flags&2 != 0 {
			link.Loss = 0.3
		}
		if flags&4 != 0 {
			link.Latency = 100 * time.Microsecond
			link.Jitter = 300 * time.Microsecond
		} else if flags&16 != 0 {
			link.Latency = 300 * time.Microsecond
		}
		if len(script) > 128 {
			script = script[:128] // 64 bursts: a long script explores nothing new
		}
		a := newBurstFabric(seed, link, rate, burst, flags&8 == 0)
		b := newBurstFabric(seed, link, rate, burst, flags&8 == 0)
		if flags&1 != 0 {
			a.net.SetPartition(burstSrc.Host, burstDst.Host, true)
			b.net.SetPartition(burstSrc.Host, burstDst.Host, true)
		}
		now := time.Duration(0)
		for i := 0; i+1 < len(script); i += 2 {
			count, dt := int(script[i]), script[i+1]
			now += time.Duration(dt) * 50 * time.Microsecond
			stepBoth(t, a, b, now)
			payload := []byte{byte(i), byte(count)}
			burstAgainstSingles(t, a, b, payload, count, i%4 == 2)
		}
		stepBoth(t, a, b, now+time.Second)
	})
}

// TestSnapshotRestoresRunMidFlight captures a 20-packet run in flight
// toward a 256-slot ring with 4 free slots, restores it onto a second
// fabric built the same way, and requires both to deliver the same
// packets and count the same drops.
func TestSnapshotRestoresRunMidFlight(t *testing.T) {
	build := func() *Network {
		n := New(nil, nil)
		n.Bind(burstDst, 256)
		n.SetLink(LinkParams{Latency: 300 * time.Microsecond})
		return n
	}
	a, b := build(), build()
	for i := 0; i < 252; i++ {
		a.Send(burstSrc, burstDst, []byte{byte(i), byte(i >> 8)})
	}
	a.Step(300 * time.Microsecond)
	if got := a.endpoints[burstDst].Pending(); got != 252 {
		t.Fatalf("%d queued before the burst, want 252", got)
	}
	if sent := a.Route(burstSrc, burstDst).SendBurst(bytes.Repeat([]byte{0xA5}, 64), 20); sent != 20 {
		t.Fatalf("burst admitted %d, want 20", sent)
	}

	var st NetworkState
	a.SnapshotInto(&st)
	b.RestoreFrom(&st)
	for _, n := range []*Network{a, b} {
		if len(n.inflight) != 1 || n.InFlight() != 20 {
			t.Fatalf("%d entries carrying %d packets in flight, want one run of 20", len(n.inflight), n.InFlight())
		}
	}

	for _, now := range []time.Duration{599 * time.Microsecond, 600 * time.Microsecond} {
		a.Step(now)
		b.Step(now)
		sa, sb := a.endpoints[burstDst].Stats(), b.endpoints[burstDst].Stats()
		if sa != sb {
			t.Fatalf("at %v: stats %+v, restored %+v", now, sa, sb)
		}
	}
	if a.InFlight() != 0 || b.InFlight() != 0 {
		t.Fatalf("in flight %d and %d after delivery, want 0", a.InFlight(), b.InFlight())
	}
	if st := a.endpoints[burstDst].Stats(); st.Delivered != 256 || st.DroppedQueue != 16 {
		t.Fatalf("delivered %d, dropped at the queue %d; want 256 and 16", st.Delivered, st.DroppedQueue)
	}
	da, db := a.endpoints[burstDst].Drain(), b.endpoints[burstDst].Drain()
	if len(da) != 256 || len(db) != 256 {
		t.Fatalf("drained %d and %d packets, want 256", len(da), len(db))
	}
	for i := range da {
		if !samePacket(&da[i], &db[i]) {
			t.Fatalf("packet %d: %+v, restored %+v", i, da[i], db[i])
		}
	}
}
