package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"replidtn/internal/wire/prim"
)

// newDialer returns a Dialer of the test's own, closed when the test ends.
func newDialer(tb testing.TB) *Dialer {
	d := &Dialer{}
	tb.Cleanup(d.Close)
	return d
}

// netDial opens a raw TCP connection for protocol-abuse tests.
func netDial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, time.Second)
}

// rawFrame assembles one wire frame by hand, so tests can forge any byte of
// it — unlike wireIO's writers, nothing here is checked against a cap.
func rawFrame(msgType byte, body []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)+1))
	return append(append(frame, msgType), body...)
}

// hugeHeader is a frame length prefix claiming 1 GiB, with no body behind
// it: a reader that tried to buffer the body would block until its deadline
// instead of failing fast on the prefix.
var hugeHeader = binary.LittleEndian.AppendUint32(nil, 1<<30)

// rawHello forges a hello frame with the given magic, version byte and ID.
func rawHello(magic string, ver byte, id string) []byte {
	body := append([]byte(magic), ver)
	return rawFrame(frameHello, prim.AppendString(body, id))
}

// openHostile dials addr and completes an honest hello exchange, returning
// the framing layer for the test to misbehave on from there.
func openHostile(addr string) (*wireIO, error) {
	conn, err := netDial(addr)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(time.Now().Add(3 * time.Second))
	w := newWireIO(conn, 0)
	if err := w.writeHello("evil"); err != nil {
		return nil, err
	}
	if _, err := w.readHello(); err != nil {
		return nil, err
	}
	return w, nil
}

// expectClosed verifies the peer closes the connection without sending
// another byte.
func expectClosed(conn net.Conn) error {
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var b [1]byte
	if n, err := conn.Read(b[:]); err == nil || n > 0 {
		return errors.New("expected connection close, peer kept talking")
	}
	return nil
}
