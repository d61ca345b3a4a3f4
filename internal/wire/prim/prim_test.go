package prim

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var buf []byte
	buf = AppendUvarint(buf, 0)
	buf = AppendUvarint(buf, math.MaxUint64)
	buf = AppendVarint(buf, -1)
	buf = AppendVarint(buf, math.MinInt64)
	buf = AppendBool(buf, true)
	buf = AppendBool(buf, false)
	buf = AppendUint32(buf, 0xdeadbeef)
	buf = AppendUint64(buf, 0xfeedfacecafebeef)
	buf = AppendFloat64(buf, -3.25)
	buf = AppendString(buf, "héllo")
	buf = AppendString(buf, "")

	d := NewDecoder(buf)
	if got := d.Uvarint(); got != 0 {
		t.Errorf("uvarint = %d, want 0", got)
	}
	if got := d.Uvarint(); got != math.MaxUint64 {
		t.Errorf("uvarint = %d, want max", got)
	}
	if got := d.Varint(); got != -1 {
		t.Errorf("varint = %d, want -1", got)
	}
	if got := d.Varint(); got != math.MinInt64 {
		t.Errorf("varint = %d, want min", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("bools did not round-trip")
	}
	if got := d.Uint32(); got != 0xdeadbeef {
		t.Errorf("uint32 = %#x", got)
	}
	if got := d.Uint64(); got != 0xfeedfacecafebeef {
		t.Errorf("uint64 = %#x", got)
	}
	if got := d.Float64(); got != -3.25 {
		t.Errorf("float64 = %v", got)
	}
	if got := d.String(); got != "héllo" {
		t.Errorf("string = %q", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("string = %q, want empty", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestNilAwareRoundTrip(t *testing.T) {
	var buf []byte
	buf = AppendBytes(buf, nil)
	buf = AppendBytes(buf, []byte{})
	buf = AppendBytes(buf, []byte("abc"))
	buf = AppendStrings(buf, nil)
	buf = AppendStrings(buf, []string{})
	buf = AppendStrings(buf, []string{"x", ""})

	d := NewDecoder(buf)
	if got := d.Bytes(); got != nil {
		t.Errorf("nil bytes decoded as %v", got)
	}
	if got := d.Bytes(); got == nil || len(got) != 0 {
		t.Errorf("empty bytes decoded as %v", got)
	}
	if got := d.BytesCopy(); string(got) != "abc" {
		t.Errorf("bytes = %q", got)
	}
	if got := d.Strings(); got != nil {
		t.Errorf("nil strings decoded as %v", got)
	}
	if got := d.Strings(); got == nil || len(got) != 0 {
		t.Errorf("empty strings decoded as %v", got)
	}
	if got := d.Strings(); !reflect.DeepEqual(got, []string{"x", ""}) {
		t.Errorf("strings = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDecoderHostileInput(t *testing.T) {
	t.Run("truncated", func(t *testing.T) {
		d := NewDecoder([]byte{0x80}) // unterminated varint
		d.Uvarint()
		if !errors.Is(d.Err(), ErrTruncated) {
			t.Errorf("err = %v, want ErrTruncated", d.Err())
		}
	})
	t.Run("trailing", func(t *testing.T) {
		d := NewDecoder([]byte{1, 2, 3})
		d.Byte()
		if err := d.Finish(); !errors.Is(err, ErrTrailing) {
			t.Errorf("Finish = %v, want ErrTrailing", err)
		}
	})
	t.Run("bad bool", func(t *testing.T) {
		d := NewDecoder([]byte{7})
		d.Bool()
		if d.Err() == nil {
			t.Error("bool byte 7 accepted")
		}
	})
	t.Run("forged string count", func(t *testing.T) {
		// Claims 2^40 strings with 2 bytes of input: must fail before any
		// allocation sized from the count.
		buf := AppendUvarint(nil, 1<<40+1)
		d := NewDecoder(buf)
		if got := d.Strings(); got != nil || d.Err() == nil {
			t.Errorf("forged count decoded: %v, err %v", got, d.Err())
		}
	})
	t.Run("forged bytes length", func(t *testing.T) {
		buf := AppendUvarint(nil, 1<<40)
		d := NewDecoder(buf)
		if got := d.Bytes(); got != nil || !errors.Is(d.Err(), ErrTruncated) {
			t.Errorf("forged length decoded: %v, err %v", got, d.Err())
		}
	})
	t.Run("sticky error", func(t *testing.T) {
		d := NewDecoder(nil)
		d.Byte()
		first := d.Err()
		d.Uint64()
		_ = d.String()
		if d.Err() != first {
			t.Errorf("error not sticky: %v then %v", first, d.Err())
		}
	})
}

// TestFrontCodedList round-trips a sorted name list through the front
// coder, checks the sizer against every name's encoding, and pins the
// bytes of the trace's neighbours: "bus08" after "bus07" is one header byte
// and its one new byte.
func TestFrontCodedList(t *testing.T) {
	names := []string{"", "a", "bus07", "bus08", "bus08x", "dtn://node/alpha", "dtn://node/beta", "dtn://nodes", "z"}
	var buf []byte
	prev := ""
	for _, s := range names {
		n := len(buf)
		buf = AppendFrontCoded(buf, prev, s)
		if got := len(buf) - n; got != SizeFrontCoded(prev, s) {
			t.Errorf("SizeFrontCoded(%q, %q) = %d, encoding is %d bytes", prev, s, SizeFrontCoded(prev, s), got)
		}
		if _, shared := frontHeader(prev, s); len(s)-shared < 16 && len(buf)-n > SizeString(s) {
			t.Errorf("%q after %q costs %d bytes, more than AppendString's %d", s, prev, len(buf)-n, SizeString(s))
		}
		prev = s
	}
	d := NewDecoder(buf)
	prev = ""
	for _, want := range names {
		got := d.FrontCoded(prev)
		if got != want {
			t.Fatalf("decoded %q after %q, want %q", got, prev, want)
		}
		prev = got
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := AppendFrontCoded(nil, "bus07", "bus08"); !reflect.DeepEqual(got, []byte{1<<3 | 4, '8'}) {
		t.Errorf("bus08 after bus07 encodes to %x", got)
	}
}

// TestFrontCodedHostile rejects a shared prefix longer than the previous
// name and a suffix longer than the input left.
func TestFrontCodedHostile(t *testing.T) {
	for _, tc := range []struct {
		name string
		prev string
		data []byte
	}{
		{"prefix past the previous name", "ab", []byte{0<<3 | 3}},
		{"suffix past the input", "", []byte{5 << 3, 'a', 'b'}},
		{"huge suffix length", "", AppendUvarint(nil, math.MaxUint64)},
	} {
		d := NewDecoder(tc.data)
		if got := d.FrontCoded(tc.prev); d.Err() == nil {
			t.Errorf("%s: decoded %q, want an error", tc.name, got)
		}
	}
}
