// Package gcs implements the ground-control-station link of the
// paper's system context: modern UAVs "are networked robots equipped
// with capable communication channels" speaking MAVLink to a GCS
// (§IV-C). The link serves flight telemetry over a real UDP socket
// (stdlib net, loopback-friendly) and accepts setpoint commands, so a
// simulated flight can be watched and steered by external tooling.
//
// The wire format reuses the framework's MAVLink codec with two
// GCS-specific messages: TELEMETRY (downlink) and SETPOINT (uplink).
// The link is deliberately one-directional per socket pair and
// stateless per datagram, like the real protocol.
//
// The package is part of the public SDK surface: pair it with a
// containerdrone.Observer to downlink a live run (see
// examples/gcslive).
package gcs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"containerdrone"
	"containerdrone/internal/mavlink"
)

// Message ids for the GCS link (distinct from the Table-I streams).
const (
	MsgIDTelemetry uint8 = 77
	MsgIDSetpoint  uint8 = 78
)

// Payload sizes.
const (
	TelemetryPayloadSize = 8 + 12 + 12 + 12 + 1 // time, pos, vel, rpy, flags
	SetpointPayloadSize  = 12 + 4               // pos, yaw
)

// RegisterMessages declares the GCS messages with the codec. Safe to
// call once per process; the mavlink package panics on duplicates, so
// the package init does it exactly once.
func init() {
	mavlink.RegisterExternal(MsgIDTelemetry, "GCS_TELEMETRY", TelemetryPayloadSize, 201)
	mavlink.RegisterExternal(MsgIDSetpoint, "GCS_SETPOINT", SetpointPayloadSize, 137)
}

// Telemetry is one downlink sample.
type Telemetry struct {
	TimeUS  uint64
	Pos     containerdrone.Vec3
	Vel     containerdrone.Vec3
	Roll    float64
	Pitch   float64
	Yaw     float64
	Crashed bool
}

// Setpoint is one uplink command.
type Setpoint struct {
	Pos containerdrone.Vec3
	Yaw float64
}

// EncodeTelemetry packs a downlink sample.
func EncodeTelemetry(t Telemetry) []byte {
	p := make([]byte, TelemetryPayloadSize)
	binary.LittleEndian.PutUint64(p[0:], t.TimeUS)
	putF32(p[8:], t.Pos.X)
	putF32(p[12:], t.Pos.Y)
	putF32(p[16:], t.Pos.Z)
	putF32(p[20:], t.Vel.X)
	putF32(p[24:], t.Vel.Y)
	putF32(p[28:], t.Vel.Z)
	putF32(p[32:], t.Roll)
	putF32(p[36:], t.Pitch)
	putF32(p[40:], t.Yaw)
	if t.Crashed {
		p[44] = 1
	}
	return p
}

// DecodeTelemetry unpacks a downlink sample.
func DecodeTelemetry(p []byte) (Telemetry, error) {
	if len(p) != TelemetryPayloadSize {
		return Telemetry{}, fmt.Errorf("gcs: telemetry payload %d bytes, want %d", len(p), TelemetryPayloadSize)
	}
	var t Telemetry
	t.TimeUS = binary.LittleEndian.Uint64(p[0:])
	t.Pos = containerdrone.Vec3{X: getF32(p[8:]), Y: getF32(p[12:]), Z: getF32(p[16:])}
	t.Vel = containerdrone.Vec3{X: getF32(p[20:]), Y: getF32(p[24:]), Z: getF32(p[28:])}
	t.Roll = getF32(p[32:])
	t.Pitch = getF32(p[36:])
	t.Yaw = getF32(p[40:])
	t.Crashed = p[44] == 1
	return t, nil
}

// EncodeSetpoint packs an uplink command.
func EncodeSetpoint(sp Setpoint) []byte {
	p := make([]byte, SetpointPayloadSize)
	putF32(p[0:], sp.Pos.X)
	putF32(p[4:], sp.Pos.Y)
	putF32(p[8:], sp.Pos.Z)
	putF32(p[12:], sp.Yaw)
	return p
}

// DecodeSetpoint unpacks an uplink command.
func DecodeSetpoint(p []byte) (Setpoint, error) {
	if len(p) != SetpointPayloadSize {
		return Setpoint{}, fmt.Errorf("gcs: setpoint payload %d bytes, want %d", len(p), SetpointPayloadSize)
	}
	var sp Setpoint
	sp.Pos = containerdrone.Vec3{X: getF32(p[0:]), Y: getF32(p[4:]), Z: getF32(p[8:])}
	sp.Yaw = getF32(p[12:])
	return sp, nil
}

func putF32(b []byte, v float64) { binary.LittleEndian.PutUint32(b, math.Float32bits(float32(v))) }
func getF32(b []byte) float64    { return float64(math.Float32frombits(binary.LittleEndian.Uint32(b))) }

// Link is the vehicle side of the GCS connection: it owns a UDP
// socket, pushes telemetry to the last peer that spoke (or a fixed
// peer), and surfaces received setpoint commands.
type Link struct {
	conn *net.UDPConn

	mu         sync.Mutex
	peer       *net.UDPAddr
	seq        uint8
	closed     bool
	onSetpoint func(Setpoint)

	wg sync.WaitGroup
}

// ErrNoPeer is returned by SendTelemetry before any peer is known.
var ErrNoPeer = errors.New("gcs: no peer (no GCS datagram received and no fixed peer set)")

// Listen opens the vehicle-side socket on addr (e.g. "127.0.0.1:0")
// and starts the receive loop.
func Listen(addr string) (*Link, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	l := &Link{conn: conn}
	l.wg.Add(1)
	go l.recvLoop()
	return l, nil
}

// Addr returns the bound socket address.
func (l *Link) Addr() *net.UDPAddr { return l.conn.LocalAddr().(*net.UDPAddr) }

// SetPeer fixes the downlink destination (otherwise the link locks on
// to the first GCS that sends a datagram).
func (l *Link) SetPeer(addr *net.UDPAddr) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.peer = addr
}

// SetOnSetpoint installs f to run, on the link's receive goroutine,
// for each setpoint command received from then on; nil removes it. The
// receive loop starts in Listen, so the callback is handed over under
// the link's lock.
func (l *Link) SetOnSetpoint(f func(Setpoint)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onSetpoint = f
}

// SendTelemetry pushes one sample to the GCS.
func (l *Link) SendTelemetry(t Telemetry) error {
	l.mu.Lock()
	peer := l.peer
	l.seq++
	seq := l.seq
	l.mu.Unlock()
	if peer == nil {
		return ErrNoPeer
	}
	frame := mavlink.Encode(mavlink.Frame{
		Seq: seq, SysID: 1, CompID: 1,
		MsgID: MsgIDTelemetry, Payload: EncodeTelemetry(t),
	})
	_, err := l.conn.WriteToUDP(frame, peer)
	return err
}

func (l *Link) recvLoop() {
	defer l.wg.Done()
	buf := make([]byte, 512)
	for {
		n, from, err := l.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		l.mu.Lock()
		if l.peer == nil {
			l.peer = from
		}
		cb := l.onSetpoint
		l.mu.Unlock()
		frame, _, err := mavlink.Decode(buf[:n])
		if err != nil || frame.MsgID != MsgIDSetpoint {
			continue
		}
		sp, err := DecodeSetpoint(frame.Payload)
		if err != nil {
			continue
		}
		if cb != nil {
			cb(sp)
		}
	}
}

// Close shuts the link down and waits for the receive loop.
func (l *Link) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	err := l.conn.Close()
	l.wg.Wait()
	return err
}

// Station is the GCS side: it sends setpoints and receives telemetry.
type Station struct {
	conn    *net.UDPConn
	vehicle *net.UDPAddr
	seq     uint8
}

// Dial connects a station to a vehicle link address.
func Dial(vehicle *net.UDPAddr) (*Station, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	return &Station{conn: conn, vehicle: vehicle}, nil
}

// SendSetpoint uplinks a position command.
func (s *Station) SendSetpoint(sp Setpoint) error {
	s.seq++
	frame := mavlink.Encode(mavlink.Frame{
		Seq: s.seq, SysID: 255, CompID: 1,
		MsgID: MsgIDSetpoint, Payload: EncodeSetpoint(sp),
	})
	_, err := s.conn.WriteToUDP(frame, s.vehicle)
	return err
}

// RecvTelemetry blocks for one telemetry frame or the deadline.
func (s *Station) RecvTelemetry(timeout time.Duration) (Telemetry, error) {
	if err := s.conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return Telemetry{}, err
	}
	buf := make([]byte, 512)
	for {
		n, _, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return Telemetry{}, err
		}
		frame, _, err := mavlink.Decode(buf[:n])
		if err != nil || frame.MsgID != MsgIDTelemetry {
			continue
		}
		return DecodeTelemetry(frame.Payload)
	}
}

// Close releases the station socket.
func (s *Station) Close() error { return s.conn.Close() }
