package store

import (
	"cmp"

	"replidtn/internal/item"
	"replidtn/internal/vclock"
)

// entryIndex is an in-memory B-tree over store entries under one entryOrder.
// It is maintained incrementally on every store mutation so that in-order
// iteration needs no per-call allocation or sorting — the sync hot path
// iterates candidates straight off the index. DTN7 keeps its bundle store
// behind maintained indexes for the same reason.
//
// The tree follows the classic structure: every node holds between
// indexMinItems and indexMaxItems entries (the root may hold fewer), inserts
// split full nodes on the way down, and deletes grow underfull nodes by
// stealing from or merging with a sibling on the way down.
type entryIndex struct {
	order entryOrder
	root  *indexNode
	size  int
}

// entryOrder is the three-way comparison an index is sorted by. Entries that
// compare equal are the same key: inserting one replaces the other.
type entryOrder func(a, b *Entry) int

// orderByID sorts by item ID, the store's deterministic iteration order.
func orderByID(a, b *Entry) int { return a.Item.ID.Compare(b.Item.ID) }

// runKey places an entry in its creator's version run: Seq − 1, so Seq 0,
// which no floor covers (Knowledge.Contains never reports it known), wraps to
// the largest key. Floor f leaves e uncovered exactly when runKey(e) >= f.
func runKey(e *Entry) uint64 { return e.Item.Version.Seq - 1 }

// orderInRun sorts one creator's versions by (runKey, ID): ascending seq,
// seq 0 last. The ID tie-break keeps the order total when a restored
// snapshot carries one version under two IDs.
func orderInRun(a, b *Entry) int {
	if c := cmp.Compare(runKey(a), runKey(b)); c != 0 {
		return c
	}
	return orderByID(a, b)
}

const (
	// indexMinItems is the minimum entries per non-root node (t-1 for B-tree
	// minimum degree t=16).
	indexMinItems = 15
	// indexMaxItems is the maximum entries per node (2t-1).
	indexMaxItems = 2*indexMinItems + 1
)

type indexNode struct {
	entries  []*Entry
	children []*indexNode
}

// find returns the position of key in n.entries, or the child index to
// descend into when absent.
func (n *indexNode) find(order entryOrder, key *Entry) (int, bool) {
	lo, hi := 0, len(n.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch c := order(n.entries[mid], key); {
		case c == 0:
			return mid, true
		case c < 0:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// replaceOrInsert adds e to the index, returning the entry it replaced (nil
// when the key is new).
func (ix *entryIndex) replaceOrInsert(e *Entry) *Entry {
	if ix.root == nil {
		ix.root = &indexNode{entries: []*Entry{e}}
		ix.size = 1
		return nil
	}
	// A key above every other (a writer's next item) ends the rightmost leaf.
	if n := ix.rightmost(); len(n.entries) > 0 && len(n.entries) < indexMaxItems && ix.order(n.entries[len(n.entries)-1], e) < 0 {
		n.entries = append(n.entries, e)
		ix.size++
		return nil
	}
	if len(ix.root.entries) >= indexMaxItems {
		mid, right := ix.root.split(indexMaxItems / 2)
		ix.root = &indexNode{
			entries:  []*Entry{mid},
			children: []*indexNode{ix.root, right},
		}
	}
	prev := ix.root.insert(ix.order, e)
	if prev == nil {
		ix.size++
	}
	return prev
}

// split divides n at index i, returning the promoted entry and the new right
// sibling.
func (n *indexNode) split(i int) (*Entry, *indexNode) {
	mid := n.entries[i]
	right := &indexNode{}
	right.entries = append(right.entries, n.entries[i+1:]...)
	n.entries = n.entries[:i]
	if len(n.children) > 0 {
		right.children = append(right.children, n.children[i+1:]...)
		n.children = n.children[:i+1]
	}
	return mid, right
}

// maybeSplitChild splits child i when full, reporting whether it did.
func (n *indexNode) maybeSplitChild(i int) bool {
	if len(n.children[i].entries) < indexMaxItems {
		return false
	}
	child := n.children[i]
	mid, right := child.split(indexMaxItems / 2)
	n.entries = append(n.entries, nil)
	copy(n.entries[i+1:], n.entries[i:])
	n.entries[i] = mid
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	return true
}

func (n *indexNode) insert(order entryOrder, e *Entry) *Entry {
	i, found := n.find(order, e)
	if found {
		prev := n.entries[i]
		n.entries[i] = e
		return prev
	}
	if len(n.children) == 0 {
		n.entries = append(n.entries, nil)
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = e
		return nil
	}
	if n.maybeSplitChild(i) {
		// The promoted separator may be the key itself or may shift the
		// descent one child to the right.
		switch c := order(n.entries[i], e); {
		case c == 0:
			prev := n.entries[i]
			n.entries[i] = e
			return prev
		case c < 0:
			i++
		}
	}
	return n.children[i].insert(order, e)
}

// removeKind selects what (*indexNode).remove removes.
type removeKind int

const (
	removeKey removeKind = iota // the entry comparing equal to a given key
	removeMax                   // the subtree's maximum entry
)

// delete removes and returns the entry comparing equal to key (nil when
// absent).
func (ix *entryIndex) delete(key *Entry) *Entry {
	if ix.root == nil || len(ix.root.entries) == 0 {
		return nil
	}
	out := ix.root.remove(ix.order, key, removeKey)
	if len(ix.root.entries) == 0 && len(ix.root.children) > 0 {
		ix.root = ix.root.children[0]
	}
	if out != nil {
		ix.size--
	}
	return out
}

func (n *indexNode) remove(order entryOrder, key *Entry, kind removeKind) *Entry {
	var i int
	var found bool
	switch kind {
	case removeMax:
		if len(n.children) == 0 {
			out := n.entries[len(n.entries)-1]
			n.entries = n.entries[:len(n.entries)-1]
			return out
		}
		i = len(n.entries)
	case removeKey:
		i, found = n.find(order, key)
		if len(n.children) == 0 {
			if !found {
				return nil
			}
			out := n.entries[i]
			copy(n.entries[i:], n.entries[i+1:])
			n.entries = n.entries[:len(n.entries)-1]
			return out
		}
	}
	if len(n.children[i].entries) <= indexMinItems {
		return n.growChildAndRemove(order, i, key, kind)
	}
	if found {
		// Replace the separator with its in-order predecessor, pulled from
		// the (sufficiently full) left subtree.
		out := n.entries[i]
		n.entries[i] = n.children[i].remove(order, nil, removeMax)
		return out
	}
	return n.children[i].remove(order, key, kind)
}

// growChildAndRemove brings child i above the minimum occupancy — stealing
// from a sibling or merging with one — then retries the removal from n.
func (n *indexNode) growChildAndRemove(order entryOrder, i int, key *Entry, kind removeKind) *Entry {
	switch {
	case i > 0 && len(n.children[i-1].entries) > indexMinItems:
		// Steal the left sibling's last entry through the separator.
		child, left := n.children[i], n.children[i-1]
		child.entries = append(child.entries, nil)
		copy(child.entries[1:], child.entries)
		child.entries[0] = n.entries[i-1]
		n.entries[i-1] = left.entries[len(left.entries)-1]
		left.entries = left.entries[:len(left.entries)-1]
		if len(left.children) > 0 {
			child.children = append(child.children, nil)
			copy(child.children[1:], child.children)
			child.children[0] = left.children[len(left.children)-1]
			left.children = left.children[:len(left.children)-1]
		}
	case i < len(n.entries) && len(n.children[i+1].entries) > indexMinItems:
		// Steal the right sibling's first entry through the separator.
		child, right := n.children[i], n.children[i+1]
		child.entries = append(child.entries, n.entries[i])
		n.entries[i] = right.entries[0]
		copy(right.entries, right.entries[1:])
		right.entries = right.entries[:len(right.entries)-1]
		if len(right.children) > 0 {
			child.children = append(child.children, right.children[0])
			copy(right.children, right.children[1:])
			right.children = right.children[:len(right.children)-1]
		}
	default:
		// Merge child i with its right sibling (or left, at the end).
		if i >= len(n.entries) {
			i--
		}
		child, right := n.children[i], n.children[i+1]
		child.entries = append(child.entries, n.entries[i])
		child.entries = append(child.entries, right.entries...)
		child.children = append(child.children, right.children...)
		copy(n.entries[i:], n.entries[i+1:])
		n.entries = n.entries[:len(n.entries)-1]
		copy(n.children[i+1:], n.children[i+2:])
		n.children = n.children[:len(n.children)-1]
	}
	return n.remove(order, key, kind)
}

// ascend calls fn for every entry in ascending index order until fn returns
// false, reporting whether the walk ran to completion.
func (ix *entryIndex) ascend(fn func(*Entry) bool) bool {
	if ix.root == nil {
		return true
	}
	return ix.root.ascend(fn)
}

func (n *indexNode) ascend(fn func(*Entry) bool) bool {
	internal := len(n.children) > 0
	for i, e := range n.entries {
		if internal && !n.children[i].ascend(fn) {
			return false
		}
		if !fn(e) {
			return false
		}
	}
	if internal {
		return n.children[len(n.children)-1].ascend(fn)
	}
	return true
}

// ascendFrom calls fn, in order and until it returns false, for the entries
// of n's subtree whose runKey is at least key, reporting whether fn never
// stopped it. It adds every entry it hands fn to *examined; the binary
// search that finds the first of them counts for nothing.
func (n *indexNode) ascendFrom(key uint64, fn func(*Entry) bool, examined *int) bool {
	i, hi := 0, len(n.entries)
	for key > 0 && i < hi {
		mid := int(uint(i+hi) >> 1)
		if runKey(n.entries[mid]) < key {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	for internal := len(n.children) > 0; ; i++ {
		if internal && !n.children[i].ascendFrom(key, fn, examined) {
			return false
		}
		if i == len(n.entries) {
			return true
		}
		*examined++
		if !fn(n.entries[i]) {
			return false
		}
		key = 0 // everything after entry i is at least key
	}
}

// rightmost returns the leaf holding the largest entries.
func (ix *entryIndex) rightmost() *indexNode {
	n := ix.root
	for len(n.children) > 0 {
		n = n.children[len(n.children)-1]
	}
	return n
}

// versionRun is one creator's versions in a runSet, under orderInRun: the
// unit a walk skips or seeks in.
type versionRun struct {
	creator vclock.ReplicaID
	entries entryIndex
	// top is the run's largest runKey: floor f covers the whole run exactly
	// when top < f, a test that touches no entry.
	top      uint64
	disorder int // how many of its entries break ID order (disorders)
	// slot is the run's position in runSet.runs.
	slot int
}

// disorders reports 1 unless e is an unmodified original — its item ID is
// its version's (creator, seq) — filed under its destinations.
func disorders(e *Entry) int {
	if v := e.Item.Version; e.byDest && v.Seq > 0 && e.Item.ID == (item.ID{Creator: v.Replica, Num: v.Seq}) {
		return 0
	}
	return 1
}

// runSet holds one version run per creator, found through runOf. A new run
// is appended and an emptied one replaced by the last, so filing costs the
// same however many runs exist. to is a destination's set's address.
type runSet struct {
	runs  []*versionRun
	runOf map[vclock.ReplicaID]*versionRun
	to    string
}

// file adds e to its creator's run, opening the run if new (never empty).
func (rs *runSet) file(e *Entry) bool {
	c := e.Item.Version.Replica
	r := rs.runOf[c]
	if r == nil {
		r = &versionRun{creator: c, entries: entryIndex{order: orderInRun}, slot: len(rs.runs)}
		rs.runs = append(rs.runs, r)
		rs.runOf[c] = r
	}
	r.entries.replaceOrInsert(e)
	r.top = max(r.top, runKey(e))
	r.disorder += disorders(e)
	return false
}

// unfile takes e out of its creator's run, reporting whether the set emptied.
func (rs *runSet) unfile(e *Entry) (empty bool) {
	r := rs.runOf[e.Item.Version.Replica]
	r.entries.delete(e)
	r.disorder -= disorders(e)
	switch {
	case r.entries.size == 0:
		last := rs.runs[len(rs.runs)-1]
		rs.runs[r.slot], last.slot = last, r.slot
		rs.runs[len(rs.runs)-1] = nil
		rs.runs = rs.runs[:len(rs.runs)-1]
		delete(rs.runOf, r.creator)
	case runKey(e) == r.top:
		last := r.entries.rightmost().entries
		r.top = runKey(last[len(last)-1])
	}
	return len(rs.runs) == 0
}

// rangeAbove walks the set for RangeAbove.
func (rs *runSet) rangeAbove(floor func(vclock.ReplicaID, bool) uint64, fn func(*Entry) bool, examined *int) {
	for _, r := range rs.runs {
		if f := floor(r.creator, r.disorder == 0); r.top >= f {
			r.entries.root.ascendFrom(f, fn, examined)
		}
	}
}

// reset empties the index.
func (ix *entryIndex) reset() {
	ix.root = nil
	ix.size = 0
}
