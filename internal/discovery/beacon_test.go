package discovery

import (
	"bytes"
	"strings"
	"testing"

	"replidtn/internal/obs"
	"replidtn/internal/vclock"
	"replidtn/internal/wire/prim"
)

// rawBeacon builds a beacon frame field by field, so tests can forge the
// magic and version a real sender never gets wrong.
func rawBeacon(magic string, version byte, id, addr string) []byte {
	buf := append([]byte(magic), version)
	buf = prim.AppendString(buf, id)
	return prim.AppendString(buf, addr)
}

// beaconSeeds builds the fuzz seed inputs, shared by the fuzz target and the
// corpus generator so the checked-in files never drift from f.Add.
func beaconSeeds() map[string][]byte {
	valid := appendBeacon(nil, beacon{ID: "peer", TCPAddr: "127.0.0.1:9300"})
	return map[string][]byte{
		"seed-empty":        {},
		"seed-valid":        valid,
		"seed-bad-magic":    rawBeacon("GOB!", beaconVersion, "peer", "127.0.0.1:9300"),
		"seed-bad-version":  rawBeacon(beaconMagic, beaconVersion+1, "peer", "127.0.0.1:9300"),
		"seed-oversized-id": rawBeacon(beaconMagic, beaconVersion, strings.Repeat("x", maxBeaconID+1), "a"),
		"seed-truncated":    valid[:len(valid)-3],
		"seed-trailing":     append(bytes.Clone(valid), 0),
	}
}

// TestHostileBeaconsRejected feeds every way a datagram can be wrong through
// the receive path: each is counted as received and rejected, and none
// reaches the registry. A well-formed beacon whose ID is exactly at the cap
// then registers, so the rejections are not an artifact of a broken receive
// path.
func TestHostileBeaconsRejected(t *testing.T) {
	valid := appendBeacon(nil, beacon{ID: "peer", TCPAddr: "127.0.0.1:9300"})
	cases := map[string][]byte{
		"wrong magic":   rawBeacon("GOB!", beaconVersion, "peer", "127.0.0.1:9300"),
		"wrong version": rawBeacon(beaconMagic, beaconVersion+1, "peer", "127.0.0.1:9300"),
		"oversized id":  rawBeacon(beaconMagic, beaconVersion, strings.Repeat("x", maxBeaconID+1), "127.0.0.1:9300"),
		"trailing byte": append(bytes.Clone(valid), 0),
		"truncated":     valid[:len(valid)-1],
		"magic only":    []byte(beaconMagic),
		"own id":        appendBeacon(nil, beacon{ID: "self", TCPAddr: "127.0.0.1:9100"}),
		"no address":    appendBeacon(nil, beacon{ID: "peer"}),
	}
	for name, frame := range cases {
		t.Run(name, func(t *testing.T) {
			var m obs.DiscoveryMetrics
			d := New(Config{Self: "self", TCPAddr: "127.0.0.1:9100", Metrics: &m})
			d.ingest(frame)
			if m.BeaconsReceived.Value() != 1 || m.BeaconsRejected.Value() != 1 {
				t.Errorf("received %d, rejected %d; want 1 and 1",
					m.BeaconsReceived.Value(), m.BeaconsRejected.Value())
			}
			if got := d.Peers(); len(got) != 0 {
				t.Errorf("rejected beacon reached the registry: %v", got)
			}
		})
	}
	var m obs.DiscoveryMetrics
	d := New(Config{Self: "self", TCPAddr: "127.0.0.1:9100", Metrics: &m})
	atCap := vclock.ReplicaID(strings.Repeat("p", maxBeaconID))
	d.ingest(appendBeacon(nil, beacon{ID: atCap, TCPAddr: "127.0.0.1:9300"}))
	if got := d.Peers(); len(got) != 1 || got[0].ID != atCap || got[0].Addr != "127.0.0.1:9300" {
		t.Errorf("valid beacon registered %v", got)
	}
	if m.BeaconsRejected.Value() != 0 {
		t.Errorf("valid beacon counted as rejected")
	}
}

// FuzzBeaconDecode feeds arbitrary datagrams to the beacon decoder, which
// anyone who can reach the UDP port can address. Invalid input must only
// error, never panic, and a datagram that decodes re-encodes to a frame that
// decodes to the same beacon and encodes to the same bytes again. The seed
// corpus under testdata/fuzz is regenerated with
// `go test -tags corpusgen -run WriteFuzzCorpus ./internal/discovery/`.
func FuzzBeaconDecode(f *testing.F) {
	for _, seed := range beaconSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBeacon(data)
		if err != nil {
			return
		}
		enc := appendBeacon(nil, b)
		b2, err := decodeBeacon(enc)
		if err != nil {
			t.Fatalf("re-encoded beacon does not decode: %v", err)
		}
		if b2 != b {
			t.Fatalf("round trip changed the beacon: %+v -> %+v", b, b2)
		}
		if enc2 := appendBeacon(nil, b2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n%x\n%x", enc, enc2)
		}
	})
}
