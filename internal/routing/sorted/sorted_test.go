package sorted

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"replidtn/internal/wire/prim"
)

// model is the Go map a Map must agree with.
type model map[string]int

func (m model) check(t *testing.T, got Map[string, int]) bool {
	t.Helper()
	if got.Len() != len(m) {
		t.Logf("%d entries, want %d", got.Len(), len(m))
		return false
	}
	for i, e := range got.Entries() {
		if i > 0 && got.Entries()[i-1].Key >= e.Key {
			t.Logf("keys %q then %q", got.Entries()[i-1].Key, e.Key)
			return false
		}
		if v, ok := m[e.Key]; !ok || v != e.Val {
			t.Logf("%q = %d, want %d (held %v)", e.Key, e.Val, v, ok)
			return false
		}
	}
	return true
}

func (m model) clone() model {
	out := make(model, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// TestMapAgainstModel drives a Map and a Go map through random Sets, Gets,
// in-place Updates, Adopts and Merges, publishing copies along the way: the Map
// always holds what the Go map holds, in strictly ascending key order, and
// every published copy keeps what it held when it was published.
func TestMapAgainstModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		key := func() string { return fmt.Sprintf("k%02d", rng.Intn(40)) }
		var m Map[string, int]
		want := model{}
		type published struct {
			m    Map[string, int]
			want model
		}
		var pubs []published
		var merged Map[string, int] // Merge's destination, refilled each time
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(11); {
			case op < 4:
				k, v := key(), rng.Intn(100)
				m.Set(k, v)
				want[k] = v
			case op < 5:
				k := key()
				got, ok := m.Get(k)
				if v, held := want[k]; got != v || ok != held {
					t.Logf("Get(%q) = %d, %v; want %d, %v", k, got, ok, v, held)
					return false
				}
			case op < 7: // fold another map in: keep the larger, drop multiples of 7
				var b Map[string, int]
				bw := model{}
				for n := rng.Intn(12); n > 0; n-- {
					k, v := key(), rng.Intn(100)
					b.Set(k, v)
					bw[k] = v
				}
				m.Update(b, func(_ string, cur, v *int) (int, bool) {
					switch {
					case cur == nil:
						return *v, *v%7 != 0
					case v == nil || *cur >= *v:
						return *cur, *cur%7 != 0
					}
					return *v, *v%7 != 0
				})
				for k, v := range bw {
					if cur, ok := want[k]; !ok || v > cur {
						want[k] = v
					}
				}
				for k, v := range want {
					if v%7 == 0 {
						delete(want, k)
					}
				}
			case op < 8: // adopt another map's larger values
				var b Map[string, int]
				for n := rng.Intn(12); n > 0; n-- {
					b.Set(key(), rng.Intn(100))
				}
				m.Adopt(b, func(v, cur *int) bool { return *v > *cur })
				for _, e := range b.Entries() {
					if cur, ok := want[e.Key]; !ok || e.Val > cur {
						want[e.Key] = e.Val
					}
				}
				if rng.Intn(2) == 0 {
					pubs = append(pubs, published{m.Share(), want.clone()})
				}
			case op < 9:
				pubs = append(pubs, published{m.Share(), want.clone()})
			case op < 10: // a clone is its holder's: writing it leaves m alone
				c := m.Clone()
				c.Set(key(), -1)
			default: // m and another merged into a map of their own
				b := FromMap(map[string]int{key(): 1, key(): 2})
				merged.Merge(m, b, func(_ string, cur, v *int) (int, bool) {
					if v != nil {
						return *v, true
					}
					return *cur, true
				})
				w := want.clone()
				for _, e := range b.Entries() {
					w[e.Key] = e.Val
				}
				if !w.check(t, merged) {
					return false
				}
			}
			if !want.check(t, m) {
				return false
			}
		}
		for _, p := range pubs {
			if !p.want.check(t, p.m) {
				t.Log("a published copy changed")
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSearch: search finds every key — present or not — where a linear
// scan does, from the empty map up.
func TestSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 70; n++ {
		var m Map[string, int]
		for m.Len() < n {
			m.Set(fmt.Sprintf("k%03d", rng.Intn(200)), 0)
		}
		for p := 0; p < 210; p++ {
			k := fmt.Sprintf("k%03d", p)
			want := slices.IndexFunc(m.Entries(), func(e Entry[string, int]) bool { return e.Key >= k })
			if want < 0 {
				want = n
			}
			if i, ok := Search(m.Entries(), k); i != want || ok != (want < n && m.Entries()[want].Key == k) {
				t.Fatalf("%d entries: Search(%q) = %d, %v; want %d", n, k, i, ok, want)
			}
		}
	}
}

// TestUpdateInPlace: an owner's Update that adds no key writes over its own
// entries and allocates nothing; a shared map is copied and the copy held
// elsewhere is left as it was.
func TestUpdateInPlace(t *testing.T) {
	m := FromMap(map[string]int{"a": 1, "b": 2, "c": 3})
	b := FromMap(map[string]int{"b": 20})
	add := func(_ string, cur, v *int) (int, bool) {
		sum := 0
		for _, x := range []*int{cur, v} {
			if x != nil {
				sum += *x
			}
		}
		return sum, true
	}
	if allocs := testing.AllocsPerRun(20, func() { m.Update(b, add) }); allocs != 0 {
		t.Errorf("in-place Update allocates %v times", allocs)
	}
	held := m.Share()
	m.Update(b, add)
	if v, _ := held.Get("b"); v != 2+21*20 {
		t.Errorf("published copy reads b = %d", v)
	}
	if v, _ := m.Get("b"); v != 2+22*20 {
		t.Errorf("owner reads b = %d", v)
	}
	// Keys of b alone overtake the walk: the result moves out of the way.
	m.Update(FromMap(map[string]int{"0": 0, "aa": 0, "z": 0}), add)
	if got := fmt.Sprint(m.Entries()); got != "[{0 0} {a 1} {aa 0} {b 442} {c 3} {z 0}]" {
		t.Errorf("entries %s", got)
	}
}

// TestAdoptWritesOnlyChanges: an owner's Adopt that changes nothing writes
// nothing and allocates nothing, and a shared map is copied only at its
// first change, the copy held elsewhere left as it was.
func TestAdoptWritesOnlyChanges(t *testing.T) {
	m := FromMap(map[string]int{"a": 1, "b": 2, "c": 3})
	larger := func(v, cur *int) bool { return *v > *cur }
	older := FromMap(map[string]int{"a": 0, "c": 3})
	if allocs := testing.AllocsPerRun(20, func() { m.Adopt(older, larger) }); allocs != 0 {
		t.Errorf("Adopt of nothing new allocates %v times", allocs)
	}
	held := m.Share()
	m.Adopt(older, larger)
	if &m.Entries()[0] != &held.Entries()[0] {
		t.Error("a shared map was copied although nothing changed")
	}
	m.Adopt(FromMap(map[string]int{"c": 30}), larger)
	if got := fmt.Sprint(held.Entries(), m.Entries()); got != "[{a 1} {b 2} {c 3}] [{a 1} {b 2} {c 30}]" {
		t.Errorf("held, owner: %s", got)
	}
	bump := FromMap(map[string]int{"b": 20}) // one newer value per run
	if allocs := testing.AllocsPerRun(20, func() {
		v, _ := bump.Get("b")
		bump.Set("b", v+1)
		m.Adopt(bump, larger)
	}); allocs != 0 {
		t.Errorf("in-place Adopt of one change allocates %v times", allocs)
	}
	m.Adopt(FromMap(map[string]int{"0": 0, "aa": 0, "z": 0}), larger)
	if got := fmt.Sprint(m.Entries()); got != "[{0 0} {a 1} {aa 0} {b 41} {c 30} {z 0}]" {
		t.Errorf("entries %s", got)
	}
}

// TestReleaseCountsShares: a write copies while any share is out, so with
// two outstanding, giving one back still copies; once both are back, writes
// land in place. Giving back a share of entries the owner has since copied,
// or a share that was itself shared, gives back nothing.
func TestReleaseCountsShares(t *testing.T) {
	m := FromMap(map[string]int{"a": 1, "b": 2})
	one, two := m.Share(), m.Share()
	m.Release(one)
	m.Set("a", 10)
	if v, _ := two.Get("a"); v != 1 {
		t.Fatalf("a share still out reads a = %d after the owner's write", v)
	}
	m.Release(one) // of the entries m copied away from: nothing back
	three := m.Share()
	m.Release(two)
	m.Set("b", 20)
	if v, _ := three.Get("b"); v != 2 {
		t.Fatalf("a released stale share gave back the live one: b = %d", v)
	}
	m.Release(three)
	if allocs := testing.AllocsPerRun(10, func() { m.Set("b", 21) }); allocs != 0 {
		t.Errorf("with every share back, a write allocates %v times", allocs)
	}
	four := m.Share()
	held := four.Share() // four's holder shares it on
	m.Release(four)
	m.Set("a", 11)
	if v, _ := held.Get("a"); v != 10 {
		t.Errorf("a share of a share reads a = %d after the owner's write", v)
	}
}

func appendInt(buf []byte, v int) []byte { return prim.AppendVarint(buf, int64(v)) }

// TestCodec: Append, Size and Read agree, and Read refuses every map with
// another encoding than its one.
func TestCodec(t *testing.T) {
	m := FromMap(map[string]int{"a": 1, "bb": -2, "c": 300})
	buf := Append(nil, m, appendInt)
	if n := Size(m, func(v int) int { return prim.SizeVarint(int64(v)) }); n != len(buf) {
		t.Errorf("Size %d, Append wrote %d bytes", n, len(buf))
	}
	d := prim.NewDecoder(buf)
	back := Read[string](d, func() int { return int(d.Varint()) })
	if err := d.Finish(); err != nil || !bytes.Equal(Append(nil, back, appendInt), buf) {
		t.Errorf("round trip: %v, err %v", back.Entries(), err)
	}
	two := Append(nil, FromMap(map[string]int{"a": 1, "b": 2}), appendInt)
	for name, buf := range map[string][]byte{
		"unsorted":  bytes.Replace(two, []byte("\x01a"), []byte("\x01c"), 1),
		"duplicate": bytes.Replace(two, []byte("\x01b"), []byte("\x01a"), 1),
		"forged":    prim.AppendUvarint(nil, 1<<40),
		"truncated": two[:len(two)-1],
	} {
		d := prim.NewDecoder(buf)
		Read[string](d, func() int { return int(d.Varint()) })
		if d.Finish() == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}
