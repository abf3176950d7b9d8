package netsim

import (
	"testing"
	"time"
)

func BenchmarkSendDeliverRecv(b *testing.B) {
	n := New(nil, nil)
	dst := Addr{Host: "hce", Port: 14600}
	src := Addr{Host: "cce", Port: 9001}
	ep := n.Bind(dst, 1024)
	payload := make([]byte, 29)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Send(src, dst, payload)
		n.Step(time.Duration(i) * 100 * time.Microsecond)
		if _, ok := ep.Recv(); !ok {
			b.Fatal("packet lost")
		}
	}
}

func BenchmarkTokenBucketAllow(b *testing.B) {
	tb := NewTokenBucket(1e6, 100)
	for i := 0; i < b.N; i++ {
		tb.Allow(time.Duration(i) * time.Microsecond)
	}
}

// BenchmarkFloodedStep times the fabric under the Fig 7 flood into
// an 8000/s, burst-512 bucket on a 256-slot queue that nothing drains.
// "burst" is the flood's shape: a 20-packet burst every 10th 100 µs
// tick (20,000 pkt/s from a 1 kHz task) through the burst path.
// "single" is four single sends every tick.
func BenchmarkFloodedStep(b *testing.B) {
	src := Addr{Host: "cce", Port: 40000}
	dst := Addr{Host: "hce", Port: 14600}
	payload := make([]byte, 64)
	flooded := func(b *testing.B, send func(n *Network, r *Route, tick int)) {
		n := New(nil, nil)
		n.Bind(dst, 256)
		n.Limit(dst, 8000, 512)
		r := n.Route(src, dst)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			send(n, r, i)
			n.Step(time.Duration(i) * 100 * time.Microsecond)
		}
	}
	b.Run("burst", func(b *testing.B) {
		flooded(b, func(_ *Network, r *Route, tick int) {
			if tick%10 == 0 {
				r.SendBurst(payload, 20)
			}
		})
	})
	b.Run("single", func(b *testing.B) {
		flooded(b, func(n *Network, _ *Route, _ int) {
			for j := 0; j < 4; j++ { // ~flood intensity per tick
				n.Send(src, dst, payload)
			}
		})
	})
}
