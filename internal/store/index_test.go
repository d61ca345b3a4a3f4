package store

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/vclock"
)

// indexOrders are the two orderings the store instantiates the B-tree with —
// the ID index and one creator's version run; every index test runs over
// both.
var indexOrders = []struct {
	name  string
	order entryOrder
}{
	{"by-id", orderByID},
	{"by-version", orderInRun},
}

// checkIndexInvariants walks the tree verifying B-tree structure: key order,
// node occupancy, and uniform leaf depth. It returns the tree's height.
func checkIndexInvariants(t *testing.T, ix *entryIndex) int {
	t.Helper()
	if ix.root == nil {
		if ix.size != 0 {
			t.Fatalf("nil root with size %d", ix.size)
		}
		return 0
	}
	var prev *Entry
	counted := 0
	leafDepth := -1
	var walk func(n *indexNode, depth int)
	walk = func(n *indexNode, depth int) {
		if n != ix.root && len(n.entries) < indexMinItems {
			t.Fatalf("underfull node: %d entries at depth %d", len(n.entries), depth)
		}
		if len(n.entries) > indexMaxItems {
			t.Fatalf("overfull node: %d entries", len(n.entries))
		}
		internal := len(n.children) > 0
		if internal && len(n.children) != len(n.entries)+1 {
			t.Fatalf("node has %d entries but %d children", len(n.entries), len(n.children))
		}
		if !internal {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("leaf depth %d != %d", depth, leafDepth)
			}
		}
		for i, e := range n.entries {
			if internal {
				walk(n.children[i], depth+1)
			}
			if prev != nil && ix.order(prev, e) >= 0 {
				t.Fatalf("order violation: %s@%s !< %s@%s", prev.Item.ID, prev.Item.Version, e.Item.ID, e.Item.Version)
			}
			prev = e
			counted++
		}
		if internal {
			walk(n.children[len(n.children)-1], depth+1)
		}
	}
	walk(ix.root, 0)
	if counted != ix.size {
		t.Fatalf("walk found %d entries, size says %d", counted, ix.size)
	}
	return leafDepth + 1
}

// refKey identifies an entry under either ordering: the version fields stay
// zero for the ID order, whose key is the ID alone.
type refKey struct {
	version vclock.Version
	id      item.ID
}

// TestIndexDifferential drives the B-tree and a map-based reference with the
// same random operation stream and demands identical contents throughout,
// under both orderings. Versions are drawn from one creator (a version run)
// independently of IDs, collide across IDs and include seq 0, so the two
// orders disagree and the run order needs its ID tie-break.
func TestIndexDifferential(t *testing.T) {
	for _, tc := range indexOrders {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			ix := entryIndex{order: tc.order}
			ref := make(map[refKey]*Entry)

			randomEntry := func() (*Entry, refKey) {
				it := mkItem(fmt.Sprintf("r%d", rng.Intn(20)), uint64(rng.Intn(200)+1))
				it.Version = vclock.Version{Replica: "v", Seq: uint64(rng.Intn(40))}
				key := refKey{id: it.ID}
				if tc.name == "by-version" {
					key.version = it.Version
				}
				return &Entry{Item: it}, key
			}
			for op := 0; op < 20000; op++ {
				e, key := randomEntry()
				switch rng.Intn(3) {
				case 0, 1: // insert or replace
					prev := ix.replaceOrInsert(e)
					if prev != ref[key] {
						t.Fatalf("op %d: replaceOrInsert(%+v) returned %v, ref had %v", op, key, prev, ref[key])
					}
					ref[key] = e
				case 2: // delete
					got := ix.delete(e)
					if got != ref[key] {
						t.Fatalf("op %d: delete(%+v) returned %v, ref had %v", op, key, got, ref[key])
					}
					delete(ref, key)
				}
				if ix.size != len(ref) {
					t.Fatalf("op %d: len %d != ref %d", op, ix.size, len(ref))
				}
				if op%500 == 0 {
					checkIndexInvariants(t, &ix)
					assertSameOrder(t, &ix, ref)
				}
			}
			checkIndexInvariants(t, &ix)
			assertSameOrder(t, &ix, ref)

			// Drain completely to exercise every delete rebalancing path.
			rest := make([]*Entry, 0, len(ref))
			for _, e := range ref {
				rest = append(rest, e)
			}
			sort.Slice(rest, func(i, j int) bool { return tc.order(rest[i], rest[j]) < 0 })
			rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
			for _, e := range rest {
				if ix.delete(e) != e {
					t.Fatalf("drain: delete(%s@%s) did not find the entry", e.Item.ID, e.Item.Version)
				}
			}
			if ix.size != 0 {
				t.Fatalf("drained index has %d entries", ix.size)
			}
			checkIndexInvariants(t, &ix)
		})
	}
}

// assertSameOrder checks that ascend yields exactly the reference contents in
// the index's order.
func assertSameOrder(t *testing.T, ix *entryIndex, ref map[refKey]*Entry) {
	t.Helper()
	want := make([]*Entry, 0, len(ref))
	for _, e := range ref {
		want = append(want, e)
	}
	sort.Slice(want, func(i, j int) bool { return ix.order(want[i], want[j]) < 0 })
	i := 0
	ix.ascend(func(e *Entry) bool {
		if i >= len(want) {
			t.Fatalf("ascend yielded extra entry %s", e.Item.ID)
		}
		if e != want[i] {
			t.Fatalf("ascend[%d] = %s@%s, want %s@%s", i, e.Item.ID, e.Item.Version, want[i].Item.ID, want[i].Item.Version)
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("ascend yielded %d entries, want %d", i, len(want))
	}
}

// TestIndexAscendEarlyStop verifies the walk halts when fn returns false.
func TestIndexAscendEarlyStop(t *testing.T) {
	for _, tc := range indexOrders {
		ix := entryIndex{order: tc.order}
		for i := 1; i <= 100; i++ {
			ix.replaceOrInsert(&Entry{Item: mkItem("a", uint64(i))})
		}
		n := 0
		ix.ascend(func(*Entry) bool {
			n++
			return n < 7
		})
		if n != 7 {
			t.Fatalf("%s: early stop visited %d entries, want 7", tc.name, n)
		}
	}
}

// TestIndexReset verifies reset empties the tree.
func TestIndexReset(t *testing.T) {
	for _, tc := range indexOrders {
		ix := entryIndex{order: tc.order}
		e := &Entry{Item: mkItem("a", 1)}
		ix.replaceOrInsert(e)
		ix.reset()
		if ix.size != 0 || ix.delete(e) != nil {
			t.Fatalf("%s: reset left entries behind", tc.name)
		}
	}
}
