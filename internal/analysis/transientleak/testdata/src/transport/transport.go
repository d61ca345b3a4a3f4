// Package transport is a transientleak-analyzer fixture: a package above
// the codec, handing it values to encode.
package transport

import (
	"fixtures/item"
	"fixtures/wire"
	"fixtures/wire/items"
)

// sendBinary ships a transient value through the binary codec.
func sendBinary(buf []byte, tr item.Transient) []byte {
	return wire.AppendTransient(buf, tr) // want `transient host-specific metadata reaches wire.AppendTransient`
}

// sendEntry ships a transient-bearing struct through its codec, whose own
// crossing is annotated: nothing to flag here.
func sendEntry(buf []byte, e *item.Entry) []byte {
	return wire.AppendEntry(buf, e)
}

// sendBinaryClean ships only replicated state through the codec.
func sendBinaryClean(buf []byte, it *item.Item) []byte {
	return wire.AppendItem(buf, it)
}

// sendBinaryAllowed is a sanctioned crossing outside the codec.
func sendBinaryAllowed(buf []byte, tr item.Transient) []byte {
	return wire.AppendTransient(buf, tr) //lint:allow transientleak -- fixture: policy-mediated transmit transient, an explicit wire field of the sync protocol
}

// sendBatchItem ships a transient through the leaf's batch-item layout.
func sendBatchItem(buf []byte, e *item.Entry) []byte {
	return items.AppendBatchItem(buf, &e.Item, e.Transient) // want `transient host-specific metadata reaches items.AppendBatchItem`
}

// sendBatchItemAllowed is the sanctioned sync-batch crossing, through the
// leaf.
func sendBatchItemAllowed(buf []byte, e *item.Entry) []byte {
	//lint:allow transientleak -- fixture: policy-mediated transmit transient, an explicit wire field of the sync protocol
	return items.AppendBatchItem(buf, &e.Item, e.Transient)
}
