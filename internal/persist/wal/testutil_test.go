package wal

// Shared test machinery: a deterministic scripted workload that exercises
// every journaled mutation kind, used by the round-trip tests, the
// crash-point matrix, and the differential property test. Snapshot equality
// lives in DiffSnapshots (diff.go), shared with dtnbench's reopen check.

import (
	"fmt"
	"testing"

	"replidtn/internal/filter"
	"replidtn/internal/item"
	"replidtn/internal/replica"
)

// mustSnapshot captures a replica snapshot or fails the test.
func mustSnapshot(t testing.TB, r *replica.Replica) *replica.Snapshot {
	t.Helper()
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return snap
}

// frameRecord frames an arbitrary kind and payload as one CRC-valid record,
// for feeding the readers frames no writer produces.
func frameRecord(kind uint8, payload []byte) ([]byte, error) {
	buf, start := beginRecord(nil, kind)
	return finishRecord(append(buf, payload...), start)
}

// mergeRecorder wraps an FS and classifies each manifest commit that keeps
// the live log — a merge; a flush rotates the log — as full (the merge took
// in the oldest segment, so one segment is left) or partial, summing the
// bytes of the segments merges wrote.
type mergeRecorder struct {
	FS
	log           string
	full, partial int
	bytes         int
}

func (m *mergeRecorder) Rename(oldname, newname string) error {
	if err := m.FS.Rename(oldname, newname); err != nil || newname != manifestName {
		return err
	}
	man, _, err := readManifest(m.FS)
	if err != nil {
		return err
	}
	if man.Log == m.log {
		if len(man.Segments) == 1 {
			m.full++
		} else {
			m.partial++
		}
		data, err := m.FS.ReadFile(man.Segments[len(man.Segments)-1])
		if err != nil {
			return err
		}
		m.bytes += len(data)
	}
	m.log = man.Log
	return nil
}

// scriptEnv is the deterministic workload harness: a journaled replica under
// test plus a peer that feeds it sync batches, so the script covers every
// mutation kind — creates, updates, tombstones, batch application with
// relayed items and evictions, knowledge merges, identity changes, and
// expiry purges.
type scriptEnv struct {
	t    testing.TB
	r    *replica.Replica
	peer *replica.Replica
	now  int64
}

const scriptSteps = 24

// newScriptEnv builds the pair. The replica under test has a small relay
// capacity (evictions), knowledge merging on (MutMerge), and a scripted
// clock (expiry).
func newScriptEnv(t testing.TB) *scriptEnv {
	env := &scriptEnv{t: t, now: 1000}
	env.r = replica.New(replica.Config{
		ID:             "node-a",
		OwnAddresses:   []string{"alice"},
		RelayCapacity:  3,
		MergeKnowledge: true,
		Now:            func() int64 { return env.now },
	})
	env.peer = replica.New(replica.Config{
		ID:           "node-b",
		OwnAddresses: []string{"bob"},
		Filter:       filter.NewAddresses("alice", "bob", "carol", "dave"),
	})
	return env
}

// step runs scripted operation i on the replica under test. Steps are pure
// functions of (i, prior steps): replaying the same prefix always yields the
// same state, which is what the crash-point oracle relies on.
func (env *scriptEnv) step(i int) {
	t, r, peer := env.t, env.r, env.peer
	t.Helper()
	switch i % 8 {
	case 0: // local create, addressed to self (delivery path)
		r.CreateItem(item.Metadata{Destinations: []string{"alice"}}, []byte(fmt.Sprintf("local-%d", i)))
	case 1: // peer creates for third parties; sync feeds relays -> eviction pressure
		for j := 0; j < 2; j++ {
			peer.CreateItem(item.Metadata{Destinations: []string{"carol"}}, []byte(fmt.Sprintf("relay-%d-%d", i, j)))
		}
		env.sync()
	case 2: // update an item created in step i-2 (version chain, Prior)
		items := r.Items()
		if len(items) > 0 {
			if _, err := r.UpdateItem(items[0].ID, []byte(fmt.Sprintf("upd-%d", i))); err != nil {
				t.Fatalf("update: %v", err)
			}
		}
	case 3: // peer creates for us; sync delivers (MutLearn + MutPut + deliver)
		peer.CreateItem(item.Metadata{Destinations: []string{"alice"}, Created: env.now, Expires: env.now + 300}, []byte(fmt.Sprintf("inbound-%d", i)))
		env.sync()
	case 4: // tombstone (delete propagates like an update)
		items := r.Items()
		if len(items) > 1 {
			if _, err := r.DeleteItem(items[len(items)-1].ID); err != nil {
				t.Fatalf("delete: %v", err)
			}
		}
	case 5: // identity change: pick up carol's mail too (MutIdentity + reclassification)
		addrs := []string{"alice"}
		if i%16 == 5 {
			addrs = []string{"alice", "carol"}
		}
		r.SetIdentity(addrs, nil)
	case 6: // time passes; expire lifetimed items (MutRemove via purge)
		env.now += 400
		r.PurgeExpired()
	case 7: // another sync round; peer's wider filter covers ours -> MutMerge
		peer.CreateItem(item.Metadata{Destinations: []string{"dave"}}, []byte(fmt.Sprintf("wide-%d", i)))
		env.sync()
	}
}

// sync runs one target-side sync round: the replica under test pulls from
// the peer and applies the batch.
func (env *scriptEnv) sync() {
	req := env.r.MakeSyncRequest(0)
	resp := env.peer.HandleSyncRequest(req)
	env.r.ApplyBatch(resp)
}

// runScript executes steps [from, to) — the full script is [0, scriptSteps).
func (env *scriptEnv) runScript(from, to int) {
	for i := from; i < to; i++ {
		env.step(i)
	}
}
