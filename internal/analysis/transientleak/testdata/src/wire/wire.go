// Package wire is a transientleak-analyzer fixture mimicking the binary
// codec: any Append* function in a package with a "wire" import-path
// segment is a serialization entry point.
package wire

import "fixtures/item"

// AppendTransient mimics the codec's transient serializer — the entry point
// itself; callers shipping transients through it annotate the sanctioned
// crossings.
func AppendTransient(buf []byte, tr item.Transient) []byte {
	for k := range tr {
		buf = append(buf, k...)
	}
	return buf
}

// AppendItem serializes replicated state only.
func AppendItem(buf []byte, it *item.Item) []byte {
	return append(buf, it.Payload...)
}

// AppendEntry serializes a transient-bearing entry: the codec's own
// internal crossing carries the justification.
func AppendEntry(buf []byte, e *item.Entry) []byte {
	buf = AppendItem(buf, &e.Item)
	return AppendTransient(buf, e.Transient) //lint:allow transientleak -- fixture: the entry codec's sanctioned internal crossing
}
