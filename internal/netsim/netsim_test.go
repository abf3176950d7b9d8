package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"containerdrone/internal/sim"
)

var (
	hce = Addr{Host: "hce", Port: 14600}
	cce = Addr{Host: "cce", Port: 14660}
)

func TestAddrString(t *testing.T) {
	if hce.String() != "hce:14600" {
		t.Fatalf("Addr.String = %q", hce.String())
	}
}

func TestSendAndReceive(t *testing.T) {
	n := New(nil, nil)
	ep := n.Bind(hce, 8)
	if !n.Send(cce, hce, []byte("motor")) {
		t.Fatal("send to bound endpoint failed")
	}
	n.Step(0)
	p, ok := ep.Recv()
	if !ok {
		t.Fatal("no packet delivered")
	}
	if string(p.Payload) != "motor" || p.Src != cce {
		t.Fatalf("packet = %+v", p)
	}
	if _, ok := ep.Recv(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestSendToUnboundDrops(t *testing.T) {
	n := New(nil, nil)
	if n.Send(cce, Addr{"nowhere", 1}, []byte("x")) {
		t.Fatal("send to unbound address should report false")
	}
}

func TestPayloadIsCopied(t *testing.T) {
	n := New(nil, nil)
	ep := n.Bind(hce, 8)
	buf := []byte("abc")
	n.Send(cce, hce, buf)
	buf[0] = 'z'
	n.Step(0)
	p, _ := ep.Recv()
	if string(p.Payload) != "abc" {
		t.Fatal("payload aliased caller's buffer")
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	n := New(nil, nil)
	ep := n.Bind(hce, 4)
	for i := 0; i < 10; i++ {
		n.Send(cce, hce, []byte{byte(i)})
	}
	n.Step(0)
	if ep.Pending() != 4 {
		t.Fatalf("pending = %d, want 4", ep.Pending())
	}
	st := ep.Stats()
	if st.DroppedQueue != 6 {
		t.Fatalf("DroppedQueue = %d, want 6", st.DroppedQueue)
	}
	if st.Delivered != 4 {
		t.Fatalf("Delivered = %d, want 4", st.Delivered)
	}
}

func TestFIFOOrder(t *testing.T) {
	n := New(nil, nil)
	ep := n.Bind(hce, 16)
	for i := 0; i < 5; i++ {
		n.Send(cce, hce, []byte{byte(i)})
	}
	n.Step(0)
	for i := 0; i < 5; i++ {
		p, ok := ep.Recv()
		if !ok || p.Payload[0] != byte(i) {
			t.Fatalf("packet %d out of order: %+v", i, p)
		}
	}
}

func TestRecvAll(t *testing.T) {
	n := New(nil, nil)
	ep := n.Bind(hce, 16)
	for i := 0; i < 3; i++ {
		n.Send(cce, hce, []byte{byte(i)})
	}
	n.Step(0)
	all := ep.RecvAll()
	if len(all) != 3 || all[2].Payload[0] != 2 {
		t.Fatalf("RecvAll = %v", all)
	}
	if ep.Pending() != 0 {
		t.Fatal("queue not drained")
	}
	if ep.Stats().Received != 3 {
		t.Fatalf("Received = %d", ep.Stats().Received)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	n := New(nil, nil)
	n.SetLink(LinkParams{Latency: 5 * time.Millisecond})
	ep := n.Bind(hce, 8)
	n.Step(0)
	n.Send(cce, hce, []byte("x"))
	n.Step(4 * time.Millisecond)
	if ep.Pending() != 0 {
		t.Fatal("packet arrived before its latency elapsed")
	}
	n.Step(5 * time.Millisecond)
	if ep.Pending() != 1 {
		t.Fatal("packet not delivered after latency")
	}
	if n.InFlight() != 0 {
		t.Fatal("in-flight count wrong")
	}
}

func TestLossDropsSome(t *testing.T) {
	rng := sim.NewRNG(3)
	n := New(nil, rng.Float64)
	n.SetLink(LinkParams{Loss: 0.5})
	ep := n.Bind(hce, 100000)
	const total = 10000
	for i := 0; i < total; i++ {
		n.Send(cce, hce, []byte("x"))
	}
	n.Step(0)
	st := ep.Stats()
	if st.DroppedLoss < total/3 || st.DroppedLoss > 2*total/3 {
		t.Fatalf("50%% loss dropped %d of %d", st.DroppedLoss, total)
	}
	if st.Delivered+st.DroppedLoss != total {
		t.Fatalf("delivered %d + lost %d != %d", st.Delivered, st.DroppedLoss, total)
	}
}

func TestRateLimitCapsThroughput(t *testing.T) {
	n := New(nil, nil)
	ep := n.Bind(hce, 1<<20)
	n.Limit(hce, 100, 10) // 100 pps, burst 10
	// Simulate a 10 kHz flood for one second.
	for tick := 0; tick < 10000; tick++ {
		now := time.Duration(tick) * 100 * time.Microsecond
		n.Step(now)
		n.Send(cce, hce, []byte("flood"))
	}
	n.Step(time.Second)
	st := ep.Stats()
	// Budget: 10 burst + 100/s sustained ≈ 110 packets.
	if st.Delivered > 115 || st.Delivered < 100 {
		t.Fatalf("rate-limited delivery = %d, want ≈110", st.Delivered)
	}
	if st.DroppedLimit < 9000 {
		t.Fatalf("DroppedLimit = %d, want ≈9890", st.DroppedLimit)
	}
}

// TestRateLimitHoldsOnEveryLink sends a 20-packet burst and then 20
// single sends at one instant into a 5-token bucket, on a clean, a
// lossy and a jittered link: only the bucket's 5 packets may get past
// it, to be lost or delivered, and the other 35 count as DroppedLimit.
func TestRateLimitHoldsOnEveryLink(t *testing.T) {
	for _, link := range []LinkParams{{}, {Loss: 0.3}, {Jitter: 100 * time.Microsecond}} {
		rng := sim.NewRNG(5)
		n := New(rng.Norm, rng.Float64)
		n.SetLink(link)
		ep := n.Bind(hce, 64)
		n.Limit(hce, 8000, 5)
		n.Route(cce, hce).SendBurst([]byte("flood"), 20)
		for i := 0; i < 20; i++ {
			n.Send(cce, hce, []byte("flood"))
		}
		n.Step(time.Second)
		st := ep.Stats()
		if st.DroppedLimit != 35 || st.Delivered+st.DroppedLoss != 5 {
			t.Fatalf("link %+v: limited %d, delivered %d, lost %d; want 35 limited and 5 past the bucket",
				link, st.DroppedLimit, st.Delivered, st.DroppedLoss)
		}
	}
}

func TestLimitRemoval(t *testing.T) {
	n := New(nil, nil)
	n.Bind(hce, 1024)
	n.Limit(hce, 1, 1)
	n.Limit(hce, 0, 0) // remove
	for i := 0; i < 100; i++ {
		n.Send(cce, hce, []byte("x"))
	}
	n.Step(0)
	if got := n.endpoints[hce].Stats().Delivered; got != 100 {
		t.Fatalf("after limit removal delivered = %d, want 100", got)
	}
}

func TestBindIdempotent(t *testing.T) {
	n := New(nil, nil)
	a := n.Bind(hce, 8)
	b := n.Bind(hce, 99)
	if a != b {
		t.Fatal("rebinding returned a different endpoint")
	}
}

func TestTokenBucketBasics(t *testing.T) {
	b := NewTokenBucket(10, 2)
	if !b.Allow(0) || !b.Allow(0) {
		t.Fatal("burst of 2 should allow 2")
	}
	if b.Allow(0) {
		t.Fatal("third immediate packet should be denied")
	}
	if !b.Allow(100 * time.Millisecond) { // 1 token replenished
		t.Fatal("packet after replenish should pass")
	}
}

func TestTokenBucketCapsAtBurst(t *testing.T) {
	b := NewTokenBucket(1000, 5)
	b.Allow(0)
	if got := b.Tokens(); got > 5 {
		t.Fatalf("tokens %v exceed burst", got)
	}
	// long idle: tokens must cap at burst
	b.Allow(10 * time.Second)
	if b.Tokens() > 5 {
		t.Fatalf("tokens %v exceed burst after idle", b.Tokens())
	}
}

// Property: token bucket never allows more than burst + rate·T + 1
// packets in any window of length T (conservation).
func TestTokenBucketConservationProperty(t *testing.T) {
	f := func(rate8, burst8 uint8, n16 uint16) bool {
		rate := float64(rate8%50) + 1
		burst := float64(burst8%20) + 1
		b := NewTokenBucket(rate, burst)
		steps := int(n16%2000) + 100
		allowed := 0
		for i := 0; i < steps; i++ {
			if b.Allow(time.Duration(i) * time.Millisecond) {
				allowed++
			}
		}
		windowSec := float64(steps-1) / 1000
		bound := burst + rate*windowSec + 1
		return float64(allowed) <= bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: with no loss/limit, every packet sent to a large-enough
// queue is delivered exactly once.
func TestDeliveryConservationProperty(t *testing.T) {
	f := func(count8 uint8) bool {
		count := int(count8)%100 + 1
		n := New(nil, nil)
		ep := n.Bind(hce, count)
		for i := 0; i < count; i++ {
			n.Send(cce, hce, []byte{byte(i)})
		}
		n.Step(0)
		st := ep.Stats()
		return st.Delivered == int64(count) && ep.Pending() == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
