package core

import (
	"testing"
	"time"
)

// TestFloodMotorPortCounters pins what the victim's motor port counts
// in a 30 s seed-1 flood flight: the datagrams the flood task sent, the
// ones the iptables bucket refused, the ones the full receive ring
// dropped and the ones it queued. The fabric may carry the flood's
// bursts any way it likes, but these four numbers must not move.
func TestFloodMotorPortCounters(t *testing.T) {
	cases := []struct {
		scenario                      string
		sent, limit, queue, delivered int64
	}{
		{"udpflood", 352000, 184303, 170881, 8816},
		// Member 2 floods the leader across the fleet fabric from the
		// same instant at the same rate, and the leader drains its port
		// on the same schedule, so the counts come out the same.
		{"swarm-peer-flood", 352000, 184303, 170881, 8816},
	}
	for _, c := range cases {
		t.Run(c.scenario, func(t *testing.T) {
			t.Parallel()
			cfg, err := Build(c.scenario, Options{Seed: 1, Duration: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Run()
			flood := s.drones[cfg.Attack.Member].flood
			if flood == nil {
				t.Fatal("the flood never launched")
			}
			st := s.drones[cfg.Attack.Target].hceMotorEP.Stats()
			if flood.Sent() != c.sent || st.DroppedLimit != c.limit ||
				st.DroppedQueue != c.queue || st.Delivered != c.delivered {
				t.Fatalf("sent %d, dropped by limit %d, dropped at queue %d, delivered %d; want %d, %d, %d, %d",
					flood.Sent(), st.DroppedLimit, st.DroppedQueue, st.Delivered,
					c.sent, c.limit, c.queue, c.delivered)
			}
		})
	}
}
