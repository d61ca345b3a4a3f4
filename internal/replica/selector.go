package replica

import (
	"slices"

	"replidtn/internal/item"
	"replidtn/internal/routing"
	"replidtn/internal/store"
)

// syncCandidate is one store entry admitted to batch selection. It is a
// value of a pointer, a priority and a 16-byte transient, so batch assembly
// allocates nothing per scanned entry.
type syncCandidate struct {
	entry    *store.Entry
	priority routing.Priority
	// transient is the policy-built transient; zero for substrate-class
	// candidates, which transmit the stored one.
	transient item.Transient
}

// batchSelector assembles a synchronization batch as a stream: candidates
// are offered one at a time and only the top-K worth transmitting are
// retained, in a bounded max-heap whose root is the worst retained candidate
// (the first to displace). This turns batch assembly from
// O(candidates · log candidates) with a full materialized sort into
// O(candidates · log K) with O(K) memory — the difference between sorting a
// 100k-entry store and keeping one item when the encounter budget is one
// message.
//
// When limit <= 0 the batch is unbounded: candidates are collected and fully
// sorted at finish. A bounded set is a sorted list until a candidate arrives
// out of transmission order.
//
// The retained set is always the first min(total, limit) items of the full
// priority ordering, so any truncation rule that takes a prefix of that
// ordering (MaxItems, the MaxBytes scan) computes identical results on the
// selector's output — the property the differential test pins down.
type batchSelector struct {
	limit int
	// room is the bounded heap's capacity, allocated whole on the first
	// offer unless cands, the serve's reused buffer, already has it: the
	// limit, or the store's length when that is smaller.
	room  int
	cands []syncCandidate
	total int
	heap  bool // cands is a heap, not a sorted list
}

// keptCands bounds the candidate buffer a replica keeps between serves, at
// 40 KiB. A serve on the paper's full trace offers at most 307 candidates;
// only a bulk pull, such as a first contact with a large store, grows the
// buffer past the bound, and keeping it would hold that size for the
// replica's life.
const keptCands = 1024

// candLess reports whether a transmits before b: priority order (class
// descending, cost ascending), ties broken by item ID. Within one batch the
// order is total because item IDs are unique.
func candLess(a, b *syncCandidate) bool { return before(a.priority, a.entry.Item.ID, b) }

// before reports whether a candidate (pr, id) transmits before b.
func before(pr routing.Priority, id item.ID, b *syncCandidate) bool {
	if pr != b.priority {
		return pr.Before(b.priority)
	}
	return id.Compare(b.entry.Item.ID) < 0
}

// offer considers one candidate for the batch, reporting whether it was
// retained.
func (sel *batchSelector) offer(c syncCandidate) bool {
	sel.total++
	n := len(sel.cands)
	switch {
	case !sel.admits(c.priority, c.entry.Item.ID):
		return false // not better than the worst retained candidate
	case sel.limit <= 0, !sel.heap && (n == 0 || candLess(&sel.cands[n-1], &c)):
		if cap(sel.cands) < sel.room {
			sel.cands = make([]syncCandidate, 0, sel.room)
		}
		sel.cands = append(sel.cands, c)
		return true
	}
	for i := n/2 - 1; !sel.heap && i >= 0; i-- {
		sel.siftDown(i, n)
	}
	sel.heap = true
	if len(sel.cands) < sel.limit {
		sel.cands = append(sel.cands, c)
		sel.siftUp(n)
	} else {
		sel.cands[0] = c
		sel.siftDown(0, n)
	}
	return true
}

// admits reports whether a candidate of priority pr and ID id would be
// retained if offered now.
func (sel *batchSelector) admits(pr routing.Priority, id item.ID) bool {
	worst := len(sel.cands) - 1 // a sorted list's last, a heap's root
	if sel.heap {
		worst = 0
	}
	return sel.limit <= 0 || len(sel.cands) < sel.limit || before(pr, id, &sel.cands[worst])
}

// finish returns the retained candidates in transmission order. The selector
// must not be used afterwards.
func (sel *batchSelector) finish() []syncCandidate {
	if sel.limit <= 0 {
		slices.SortFunc(sel.cands, func(a, b syncCandidate) int {
			if candLess(&a, &b) {
				return -1
			}
			if candLess(&b, &a) {
				return 1
			}
			return 0
		})
		return sel.cands
	}
	if !sel.heap {
		return sel.cands
	}
	// Heapsort in place: repeatedly move the heap's worst element to the
	// end, leaving the slice in ascending transmission order.
	for end := len(sel.cands) - 1; end > 0; end-- {
		sel.cands[0], sel.cands[end] = sel.cands[end], sel.cands[0]
		sel.siftDown(0, end)
	}
	return sel.cands
}

// siftUp restores the heap property ("worst at root") after an append.
func (sel *batchSelector) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !candLess(&sel.cands[parent], &sel.cands[i]) {
			return
		}
		sel.cands[i], sel.cands[parent] = sel.cands[parent], sel.cands[i]
		i = parent
	}
}

// siftDown restores the heap property below i within cands[:n].
func (sel *batchSelector) siftDown(i, n int) {
	for {
		left, right := 2*i+1, 2*i+2
		worst := i
		if left < n && candLess(&sel.cands[worst], &sel.cands[left]) {
			worst = left
		}
		if right < n && candLess(&sel.cands[worst], &sel.cands[right]) {
			worst = right
		}
		if worst == i {
			return
		}
		sel.cands[i], sel.cands[worst] = sel.cands[worst], sel.cands[i]
		i = worst
	}
}
