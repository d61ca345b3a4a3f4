// Package items is a transientleak-analyzer fixture mimicking the codec's
// item-layer leaf: a subpackage of wire, whose Append* functions are
// serialization entry points like every package's under a "wire" import-path
// segment.
package items

import "fixtures/item"

// AppendTransient mimics the leaf's transient serializer.
func AppendTransient(buf []byte, tr item.Transient) []byte {
	return append(buf, 0)
}

// AppendBatchItem mimics the leaf's batch-item layout: it writes the
// transient its caller passed, so its callers are the crossings.
func AppendBatchItem(buf []byte, it *item.Item, tr item.Transient) []byte {
	buf = append(buf, it.Payload...)
	return AppendTransient(buf, tr) //lint:allow transientleak -- fixture: the layout writes its caller's transient; the caller is the crossing
}

// AppendCopy writes a transient through the leaf without saying why.
func AppendCopy(buf []byte, tr item.Transient) []byte {
	return AppendTransient(buf, tr) // want `transient host-specific metadata reaches items.AppendTransient`
}
