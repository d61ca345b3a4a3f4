// Package wire is a transientleak-analyzer fixture mimicking the binary
// codec: any Append* function in a package with a "wire" import-path
// segment is a serialization entry point.
package wire

import "fixtures/item"

// AppendTransient mimics the codec's transient serializer — the entry point
// itself; the codecs that call it annotate the sanctioned crossings.
func AppendTransient(buf []byte, tr item.Transient) []byte {
	return append(buf, 0)
}

// AppendItem serializes replicated state only.
func AppendItem(buf []byte, it *item.Item) []byte {
	return append(buf, it.Payload...)
}

// AppendEntry serializes a transient-bearing entry: the codec's own
// crossing carries the justification, so its callers need none.
func AppendEntry(buf []byte, e *item.Entry) []byte {
	buf = AppendItem(buf, &e.Item)
	return AppendTransient(buf, e.Transient) //lint:allow transientleak -- fixture: the entry codec's sanctioned crossing
}

// AppendLeak is a codec that ships a transient without saying why.
func AppendLeak(buf []byte, e *item.Entry) []byte {
	return AppendTransient(buf, e.Transient) // want `transient host-specific metadata reaches wire.AppendTransient`
}
