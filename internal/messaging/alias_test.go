package messaging

import (
	"path/filepath"
	"testing"

	"replidtn/internal/persist/wal"
	"replidtn/internal/replica"
)

// A sender that reuses its send buffer must not rewrite a message under an
// unchanged version: the stored, versioned payload is the endpoint's own copy,
// and with it every copy a peer or the journal takes later.
func TestSendCopiesBodyAndRecipients(t *testing.T) {
	fsys, err := wal.NewOSFS(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	db, err := wal.Open(fsys, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := NewEndpoint(Config{NodeID: "a", Addresses: []string{"user:alice"}})
	if err := db.Attach(a.Replica()); err != nil {
		t.Fatal(err)
	}
	b := NewEndpoint(Config{NodeID: "b", Addresses: []string{"user:bob"}})

	buf, to := []byte("original body"), []string{"user:bob"}
	msg, err := a.Send("user:alice", to, buf)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, "SCRIBBLED....")
	to[0] = "user:eve"

	check := func(where string, r *replica.Replica) {
		t.Helper()
		e := r.Entry(msg.ID)
		if e == nil {
			t.Fatalf("%s: message not stored", where)
		}
		if got := string(e.Item.Payload); got != "original body" {
			t.Errorf("%s holds payload %q, want the bytes that were sent", where, got)
		}
		if got := e.Item.Meta.Destinations; len(got) != 1 || got[0] != "user:bob" {
			t.Errorf("%s holds destinations %v, want [user:bob]", where, got)
		}
	}
	check("the sender's store", a.Replica())
	replica.Encounter(a.Replica(), b.Replica(), 0)
	check("a peer after one sync", b.Replica())
	if inbox := b.Inbox(); len(inbox) != 1 || string(inbox[0].Message.Body) != "original body" {
		t.Errorf("peer received %+v", inbox)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := wal.Open(fsys, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close() //lint:allow errdiscard -- read-only reopen in a test
	snap, err := reopened.Load()
	if err != nil {
		t.Fatal(err)
	}
	back := replica.New(replica.Config{ID: "a", OwnAddresses: []string{"user:alice"}})
	if err := back.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	check("the reopened WAL", back)
}
