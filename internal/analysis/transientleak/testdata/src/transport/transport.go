// Package transport is a transientleak-analyzer fixture: a wire-handling
// package (segment "transport"), where frame structs are also checked.
package transport

import (
	"fixtures/item"
	"fixtures/wire"
)

// frame carries transient state in an exported field: the wire contract
// would replicate host-local metadata.
type frame struct {
	Item      item.Item
	Transient item.Transient // want `frame struct frame carries transient host-specific metadata`
}

// nested reaches Transient through an exported struct chain.
type nested struct {
	Entries []item.Entry // want `frame struct nested carries transient host-specific metadata`
}

// cleanFrame only moves replicated state; the unexported transient field is
// never serialized and deliberately host-local.
type cleanFrame struct {
	Item item.Item
	hops item.Transient
}

// sendBinary ships a transient value through the binary codec.
func sendBinary(buf []byte, tr item.Transient) []byte {
	return wire.AppendTransient(buf, tr) // want `transient host-specific metadata reaches wire.AppendTransient`
}

// sendBinaryEntry ships a transient-bearing struct through the codec.
func sendBinaryEntry(buf []byte, e *item.Entry) []byte {
	return wire.AppendEntry(buf, e) // want `transient host-specific metadata reaches wire.AppendEntry`
}

// sendBinaryClean ships only replicated state through the codec.
func sendBinaryClean(buf []byte, it *item.Item) []byte {
	return wire.AppendItem(buf, it)
}

// sendBinaryAllowed is the sanctioned crossing under the binary codec.
func sendBinaryAllowed(buf []byte, tr item.Transient) []byte {
	return wire.AppendTransient(buf, tr) //lint:allow transientleak -- fixture: policy-mediated transmit transient, an explicit wire field of the sync protocol
}
