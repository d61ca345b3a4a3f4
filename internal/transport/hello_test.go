package transport

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"replidtn/internal/obs"
)

// TestIncompatibleHelloRefused pins the one interoperability rule: there is
// a single protocol, so a peer whose hello carries a different version byte
// — or is not ours at all — is refused, by the serving and by the dialing
// side alike, classified "protocol", with the store and knowledge untouched.
func TestIncompatibleHelloRefused(t *testing.T) {
	dl := newDialer(t)
	for name, helloFrame := range map[string][]byte{
		"older version": rawHello(helloMagic, protocolVersion-1, "peer"),
		"newer version": rawHello(helloMagic, protocolVersion+1, "peer"),
		"wrong magic":   rawHello("GOB!", protocolVersion, "peer"),
	} {
		for _, side := range []string{"serve", "dial"} {
			t.Run(name+"/"+side, func(t *testing.T) {
				a := node(t, "a", "addr:a")
				sendMsg(a, "addr:a", "addr:peer")
				knowBefore := a.Knowledge()
				m := &obs.TransportMetrics{}
				var err error
				if side == "serve" {
					srv := NewServer(a, 0)
					srv.Metrics = m
					err = srv.serveConn(replay(helloFrame))
					// Refused means no hello reply either.
					if m.FramesWritten.Value() != 0 {
						t.Error("server answered a hello it refused")
					}
				} else {
					ln, lerr := net.Listen("tcp", "127.0.0.1:0")
					if lerr != nil {
						t.Fatal(lerr)
					}
					defer ln.Close()
					go func() {
						conn, err := ln.Accept()
						if err != nil {
							return
						}
						defer conn.Close()
						conn.Write(helloFrame)
						io.Copy(io.Discard, conn) // hold the line until the dialer hangs up
					}()
					_, err = dl.Encounter(a, ln.Addr().String(), 0, 2*time.Second, DialOptions{Metrics: m})
				}
				if !errors.Is(err, errVersionMismatch) {
					t.Errorf("err = %v, want errVersionMismatch", err)
				}
				if spans := m.Spans.Snapshot(); len(spans) != 1 || spans[0].Err != "protocol" {
					t.Errorf("spans = %+v, want one with class protocol", spans)
				}
				if m.ValidationRejected.Value() != 0 || m.EncounterErrors.Value() != 1 {
					t.Errorf("counters: %+v", m.Snapshot())
				}
				if total, _, _ := a.StoreLen(); total != 1 || !a.Knowledge().Equal(knowBefore) {
					t.Error("refused hello perturbed the replica")
				}
			})
		}
	}
}

// TestOversizedHelloRejected: the hello is capped at maxHelloFrame whatever
// MaxWireBytes says, so a replica ID past its 256 bytes — or a header merely
// claiming a huge hello — is rejected on the length prefix, before any body
// is buffered, as a validation error.
func TestOversizedHelloRejected(t *testing.T) {
	for name, frame := range map[string][]byte{
		"long replica ID": rawHello(helloMagic, protocolVersion, strings.Repeat("x", 300)),
		"header only":     hugeHeader,
	} {
		srv := NewServer(node(t, "a", "addr:a"), 0)
		err := srv.serveConn(replay(frame))
		if errClass(err) != "validation" || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%s: err = %v, want a validation error naming the limit", name, err)
		}
	}
}

// readHello recycles the hello's frame before the caller uses the ID, so the
// ID must be a copy: a view would change under the next frame any connection
// reads into that buffer.
func TestHelloIDDoesNotAliasFrame(t *testing.T) {
	frame := rawHello(helloMagic, protocolVersion, "alice")
	id, err := newWireIO(replay(frame), 0).readHello()
	if err != nil {
		t.Fatal(err)
	}
	reused := make([]*frameBuf, 8) // the hello's buffer among them
	for i := range reused {
		reused[i] = getFrame(len(frame) - 4)
		b := reused[i].b[:cap(reused[i].b)]
		for j := range b {
			b[j] = 0xa5
		}
	}
	for _, f := range reused {
		putFrame(f)
	}
	if id != "alice" {
		t.Fatalf("hello ID read %q after its frame buffer was reused, want %q", id, "alice")
	}
}
