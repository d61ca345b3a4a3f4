// Package item is a transientleak-analyzer fixture mimicking the real item
// package: the analyzer recognizes the Transient type by its name and the
// "item" import-path segment.
package item

// Transient is host-specific, never-replicated per-copy metadata.
type Transient struct {
	v   [3]int32
	has uint8
}

// Item is the replicated part.
type Item struct {
	ID      string
	Payload []byte
}

// Entry pairs a stored item with its host-local transient state, like a
// store entry.
type Entry struct {
	Item      Item
	Transient Transient
}
