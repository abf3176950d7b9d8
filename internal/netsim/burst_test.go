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
}

var (
	burstSrc = Addr{Host: "cce", Port: 40000}
	burstDst = Addr{Host: "hce", Port: 14600}
)

// newBurstFabric builds a fabric with a 4-slot receive queue on
// burstDst, an optional token bucket on it, and the given link. The
// random sources are seeded alike on both sides of a pair.
func newBurstFabric(seed uint64, link LinkParams, rate, burst float64, bind bool) *burstFabric {
	f := &burstFabric{}
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
// delivery instants) in order, draw counts, pool size and the bucket.
func compareFabrics(t *testing.T, a, b *burstFabric) {
	t.Helper()
	if a.norms != b.norms || a.uniform != b.uniform {
		t.Fatalf("draws: norm %d/%d, uniform %d/%d", a.norms, b.norms, a.uniform, b.uniform)
	}
	if len(a.net.free) != len(b.net.free) {
		t.Fatalf("pool size %d, want %d", len(a.net.free), len(b.net.free))
	}
	ta, tb := a.net.limits[burstDst], b.net.limits[burstDst]
	if (ta == nil) != (tb == nil) {
		t.Fatal("one side lost its bucket")
	}
	if ta != nil && (math.Float64bits(ta.tokens) != math.Float64bits(tb.tokens) || ta.last != tb.last) {
		t.Fatalf("bucket tokens/last = %v/%v, want %v/%v", ta.tokens, ta.last, tb.tokens, tb.last)
	}
	if len(a.net.inflight) != len(b.net.inflight) {
		t.Fatalf("in flight %d, want %d", len(a.net.inflight), len(b.net.inflight))
	}
	for i := range a.net.inflight {
		fa, fb := &a.net.inflight[i], &b.net.inflight[i]
		if fa.at != fb.at || !samePacket(&fa.pkt, &fb.pkt) {
			t.Fatalf("in-flight packet %d differs: %+v, want %+v", i, *fa, *fb)
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
						f.route.Send([]byte{byte(i)})
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
// with loss, jitter, a partition or an unbound destination switched on
// by flags.
func FuzzSendBurst(f *testing.F) {
	f.Add(8000.0, 512.0, uint8(0), uint64(1), []byte{20, 10, 20, 10, 20, 0, 200, 1})
	f.Add(8000.0, 4.0, uint8(2), uint64(2), []byte{20, 1, 0, 0, 7, 3, 255, 40})
	f.Add(1000.0, 2.5, uint8(4), uint64(3), []byte{3, 0, 3, 0, 3, 1})
	f.Add(0.0, 0.0, uint8(1), uint64(4), []byte{5, 5})
	f.Add(8000.0, 512.0, uint8(8), uint64(5), []byte{20, 10})
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
