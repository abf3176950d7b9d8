package gcs

import (
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"containerdrone"
)

func TestTelemetryRoundTrip(t *testing.T) {
	in := Telemetry{
		TimeUS: 123456,
		Pos:    containerdrone.Vec3{X: 1.5, Y: -0.25, Z: 1.0},
		Vel:    containerdrone.Vec3{X: 0.125},
		Roll:   0.1, Pitch: -0.05, Yaw: 1.2,
		Crashed: true,
	}
	out, err := DecodeTelemetry(EncodeTelemetry(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.TimeUS != in.TimeUS || !out.Crashed {
		t.Fatalf("out = %+v", out)
	}
	if math.Abs(out.Pos.X-1.5) > 1e-6 || math.Abs(out.Yaw-1.2) > 1e-6 {
		t.Fatalf("values drifted: %+v", out)
	}
}

func TestSetpointRoundTrip(t *testing.T) {
	in := Setpoint{Pos: containerdrone.Vec3{X: 2, Y: -1, Z: 1.5}, Yaw: 0.5}
	out, err := DecodeSetpoint(EncodeSetpoint(in))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Pos.Y+1) > 1e-6 || math.Abs(out.Yaw-0.5) > 1e-6 {
		t.Fatalf("out = %+v", out)
	}
}

func TestDecodersRejectWrongSize(t *testing.T) {
	if _, err := DecodeTelemetry(make([]byte, 5)); err == nil {
		t.Fatal("short telemetry accepted")
	}
	if _, err := DecodeSetpoint(make([]byte, 100)); err == nil {
		t.Fatal("long setpoint accepted")
	}
}

func TestNoPeerError(t *testing.T) {
	link, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer link.Close()
	if err := link.SendTelemetry(Telemetry{}); !errors.Is(err, ErrNoPeer) {
		t.Fatalf("err = %v, want ErrNoPeer", err)
	}
}

func TestLinkOverLoopback(t *testing.T) {
	link, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer link.Close()

	var mu sync.Mutex
	var got []Setpoint
	link.SetOnSetpoint(func(sp Setpoint) {
		mu.Lock()
		got = append(got, sp)
		mu.Unlock()
	})

	station, err := Dial(link.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer station.Close()

	// Uplink a setpoint; the link locks onto the station as its peer.
	want := Setpoint{Pos: containerdrone.Vec3{X: 3, Z: 2}, Yaw: 0.25}
	if err := station.SendSetpoint(want); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("setpoint never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	if math.Abs(got[0].Pos.X-3) > 1e-6 {
		mu.Unlock()
		t.Fatalf("setpoint = %+v", got[0])
	}
	mu.Unlock()

	// Downlink telemetry back to the station.
	sent := Telemetry{TimeUS: 42, Pos: containerdrone.Vec3{Z: 1}}
	if err := link.SendTelemetry(sent); err != nil {
		t.Fatal(err)
	}
	recv, err := station.RecvTelemetry(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if recv.TimeUS != 42 || math.Abs(recv.Pos.Z-1) > 1e-6 {
		t.Fatalf("telemetry = %+v", recv)
	}
}

func TestLinkFixedPeer(t *testing.T) {
	link, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer link.Close()
	station, err := Dial(link.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer station.Close()
	link.SetPeer(station.conn.LocalAddr().(*net.UDPAddr))
	if err := link.SendTelemetry(Telemetry{TimeUS: 7}); err != nil {
		t.Fatal(err)
	}
	recv, err := station.RecvTelemetry(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if recv.TimeUS != 7 {
		t.Fatalf("telemetry = %+v", recv)
	}
}

func TestCloseIdempotent(t *testing.T) {
	link, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	if err := link.Close(); err != nil {
		t.Fatal(err)
	}
	if err := link.Close(); err != nil {
		t.Fatal(err)
	}
}
