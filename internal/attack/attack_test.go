package attack

import (
	"testing"
	"time"

	"containerdrone/internal/sched"
)

func TestBandwidthTaskShape(t *testing.T) {
	task := Bandwidth(3, 0)
	if !task.Busy() {
		t.Fatal("Bandwidth should be a busy-loop task")
	}
	if task.AccessRate != BandwidthAccessRate {
		t.Fatalf("default access rate = %v", task.AccessRate)
	}
	if task.MemBound != 1 {
		t.Fatal("Bandwidth must be fully memory bound")
	}
	if task.Core != 3 || task.Priority != sched.PrioContainer {
		t.Fatalf("placement = core %d prio %d", task.Core, task.Priority)
	}
	custom := Bandwidth(3, 123e6)
	if custom.AccessRate != 123e6 {
		t.Fatalf("custom rate ignored: %v", custom.AccessRate)
	}
}

func TestCPUHogShape(t *testing.T) {
	task := CPUHog(2, 15)
	if !task.Busy() || task.Core != 2 || task.Priority != 15 {
		t.Fatalf("hog = %+v", task)
	}
	if task.AccessRate != 0 {
		t.Fatal("pure CPU hog should not demand memory")
	}
}

func TestFloodEmitsAtConfiguredRate(t *testing.T) {
	var got [][]byte
	f := NewFlood(func(p []byte, n int) {
		for i := 0; i < n; i++ {
			got = append(got, p)
		}
	}, 20000, 64)
	task := f.Task(3)
	if task.Period != time.Millisecond {
		t.Fatalf("flood period = %v", task.Period)
	}
	// Run the Work callback as the scheduler would, 100 times = 100 ms.
	for i := 0; i < 100; i++ {
		task.Work(time.Duration(i) * time.Millisecond)
	}
	// 20000 pkt/s over 100 ms = 2000 packets.
	if len(got) != 2000 {
		t.Fatalf("flood sent %d packets in 100ms, want 2000", len(got))
	}
	if f.Sent() != 2000 {
		t.Fatalf("Sent() = %d", f.Sent())
	}
	if len(got[0]) != 64 {
		t.Fatalf("payload size = %d", len(got[0]))
	}
}

func TestFloodDefaults(t *testing.T) {
	f := NewFlood(func([]byte, int) {}, 0, 0)
	if f.PacketsPerSecond != 20000 || f.PayloadSize != 64 {
		t.Fatalf("defaults = %v pkt/s, %d B", f.PacketsPerSecond, f.PayloadSize)
	}
}

func TestFloodPayloadIsNotMAVLink(t *testing.T) {
	f := NewFlood(func([]byte, int) {}, 1000, 32)
	if f.payload[0] == 0xFE {
		t.Fatal("flood payload accidentally looks like a MAVLink frame")
	}
}

func TestKillControllerInvokes(t *testing.T) {
	killed := false
	fn := KillController(func() { killed = true })
	fn(12 * time.Second)
	if !killed {
		t.Fatal("kill callback not invoked")
	}
}

func TestKindStrings(t *testing.T) {
	names := map[Kind]string{
		KindNone: "none", KindBandwidth: "bandwidth", KindFlood: "udp-flood",
		KindKill: "kill-controller", KindCPUHog: "cpu-hog",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
	if Kind(42).String() != "kind(42)" {
		t.Fatalf("unknown kind string = %q", Kind(42).String())
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range []Kind{KindNone, KindBandwidth, KindFlood, KindKill, KindCPUHog} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("nonsense"); err == nil {
		t.Fatal("ParseKind accepted nonsense")
	}
}

func TestBandwidthStarvesNothingByPriority(t *testing.T) {
	// CPU protection sanity: the Bandwidth task at container priority
	// cannot steal CPU from a driver-priority task on the same core —
	// its damage channel is memory only.
	cpu := sched.NewCPU(4, 100*time.Microsecond, nil, nil)
	cpu.Add(Bandwidth(3, 0))
	driver := cpu.Add(&sched.Task{
		Name: "driver", Core: 3, Priority: sched.PrioDriver,
		Period: 4 * time.Millisecond, WCET: time.Millisecond,
	})
	for i := 0; i < 1000; i++ {
		cpu.Tick(time.Duration(i) * 100 * time.Microsecond)
	}
	if driver.Stats().Missed != 0 {
		t.Fatal("bandwidth task stole CPU from a higher-priority task")
	}
}
