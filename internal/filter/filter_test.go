package filter

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"replidtn/internal/item"
)

func msgTo(dests ...string) *item.Item {
	return &item.Item{Meta: item.Metadata{Kind: "message", Destinations: dests}}
}

func TestAllMatchesEverything(t *testing.T) {
	if !(All{}).Match(msgTo()) || !(All{}).Match(msgTo("x")) {
		t.Error("All must match every item")
	}
}

func TestNoneMatchesNothing(t *testing.T) {
	if (None{}).Match(msgTo("x")) {
		t.Error("None must match nothing")
	}
}

func TestAddressesMatch(t *testing.T) {
	f := NewAddresses("user:1", "user:2")
	if !f.Match(msgTo("user:2")) {
		t.Error("expected match on listed address")
	}
	if !f.Match(msgTo("user:9", "user:1")) {
		t.Error("expected match when any destination is listed")
	}
	if f.Match(msgTo("user:9")) {
		t.Error("unexpected match on unlisted address")
	}
	if f.Match(msgTo()) {
		t.Error("unexpected match on item with no destinations")
	}
}

func TestAddressesAddContainsList(t *testing.T) {
	f := NewAddresses("b")
	f.Add("a")
	if !f.Contains("a") || !f.Contains("b") || f.Contains("c") {
		t.Error("Contains mismatch after Add")
	}
	got := f.List()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("List() = %v, want sorted [a b]", got)
	}
	if f.Len() != 2 {
		t.Errorf("Len() = %d", f.Len())
	}
}

func TestAddressesZeroValueAdd(t *testing.T) {
	var f Addresses
	f.Add("x")
	if !f.Contains("x") {
		t.Error("zero-value Addresses should accept Add")
	}
}

func TestCoversRelations(t *testing.T) {
	a := NewAddresses("u1")
	ab := NewAddresses("u1", "u2")
	cases := []struct {
		name  string
		f, g  Filter
		wants bool
	}{
		{"all covers addresses", All{}, ab, true},
		{"all covers none", All{}, None{}, true},
		{"addresses do not cover all", ab, All{}, false},
		{"superset covers subset", ab, a, true},
		{"subset does not cover superset", a, ab, false},
		{"addresses cover none", a, None{}, true},
		{"none covers none", None{}, None{}, true},
		{"none does not cover addresses", None{}, a, false},
		{"kind covers same kind", Kind{Name: "m"}, Kind{Name: "m"}, true},
		{"kind does not cover other kind", Kind{Name: "m"}, Kind{Name: "n"}, false},
		{"or covers member", NewOr(a, Kind{Name: "m"}), a, true},
		{"or covers or of covered", NewOr(ab), NewOr(a), true},
		{"or does not cover uncovered", NewOr(a), ab, false},
	}
	for _, tc := range cases {
		if got := tc.f.Covers(tc.g); got != tc.wants {
			t.Errorf("%s: Covers = %v, want %v", tc.name, got, tc.wants)
		}
	}
}

func TestOrMatch(t *testing.T) {
	f := NewOr(NewAddresses("u1"), Kind{Name: "news"})
	if !f.Match(msgTo("u1")) {
		t.Error("or should match via address member")
	}
	news := &item.Item{Meta: item.Metadata{Kind: "news"}}
	if !f.Match(news) {
		t.Error("or should match via kind member")
	}
	if f.Match(msgTo("u2")) {
		t.Error("or should not match unrelated item")
	}
}

func TestKindMatch(t *testing.T) {
	f := Kind{Name: "message"}
	if !f.Match(msgTo("x")) {
		t.Error("kind filter should match message items")
	}
	if f.Match(&item.Item{Meta: item.Metadata{Kind: "photo"}}) {
		t.Error("kind filter should not match other kinds")
	}
}

func TestStrings(t *testing.T) {
	cases := []struct {
		f    Filter
		want string
	}{
		{All{}, "all"},
		{None{}, "none"},
		{NewAddresses("b", "a"), "addr(a,b)"},
		{Kind{Name: "m"}, "kind(m)"},
		{NewOr(None{}, All{}), "or(none,all)"},
	}
	for _, tc := range cases {
		if got := tc.f.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// TestPropCoversImpliesMatchContainment checks the soundness contract of
// Covers on random address filters: if f.Covers(g) then every item g matches
// must also match f.
func TestPropCoversImpliesMatchContainment(t *testing.T) {
	addrs := []string{"a", "b", "c", "d", "e"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pick := func() *Addresses {
			f := NewAddresses()
			for _, a := range addrs {
				if rng.Intn(2) == 0 {
					f.Add(a)
				}
			}
			return f
		}
		fa, fb := pick(), pick()
		if !fa.Covers(fb) {
			return true // vacuously fine
		}
		for _, a := range addrs {
			it := msgTo(a)
			if fb.Match(it) && !fa.Match(it) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAddressesAgainstPlainMap drives Addresses and a plain set with the same
// random operations, across the size where Match changes from comparing to
// hashing, and holds every read method to the set's answer.
func TestAddressesAgainstPlainMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	addr := func() string { return fmt.Sprintf("user:%d", rng.Intn(80)) }
	for round := 0; round < 300; round++ {
		size := rng.Intn(65)
		var initial []string
		for i := rng.Intn(size + 1); i > 0; i-- {
			initial = append(initial, addr()) // duplicates included
		}
		f := NewAddresses(initial...)
		if rng.Intn(8) == 0 {
			f, initial = &Addresses{}, nil // the zero value is a usable empty filter
		}
		want := make(map[string]struct{})
		for _, a := range initial {
			want[a] = struct{}{}
		}
		for len(want) < size {
			a := addr()
			f.Add(a)
			want[a] = struct{}{}
		}
		list := make([]string, 0, len(want))
		for a := range want {
			list = append(list, a)
		}
		sort.Strings(list)
		if got := f.List(); !reflect.DeepEqual(got, list) || f.Len() != len(want) {
			t.Fatalf("round %d: List = %v (Len %d), want %v", round, got, f.Len(), list)
		}
		for i := 0; i < 200; i++ {
			dests := make([]string, rng.Intn(4))
			hit := false
			for j := range dests {
				dests[j] = addr()
				_, ok := want[dests[j]]
				hit = hit || ok
			}
			if got := f.Match(msgTo(dests...)); got != hit {
				t.Fatalf("round %d (%d addresses): Match(%v) = %v, want %v", round, len(want), dests, got, hit)
			}
			a := addr()
			if _, ok := want[a]; f.Contains(a) != ok {
				t.Fatalf("round %d: Contains(%q) = %v, want %v", round, a, !ok, ok)
			}
		}
		// Covers is subset-of: against a random subset, and against one with a
		// stranger added.
		var subset []string
		for _, a := range list {
			if rng.Intn(2) == 0 {
				subset = append(subset, a)
			}
		}
		if !f.Covers(NewAddresses(subset...)) || !f.Covers(None{}) {
			t.Fatalf("round %d: %v does not cover its subset %v", round, list, subset)
		}
		if f.Covers(NewAddresses(append(subset, "user:stranger")...)) || f.Covers(All{}) {
			t.Fatalf("round %d: %v covers a filter with an address it lacks", round, list)
		}
	}
}

// TestCoversIsSetInclusion: between two address filters, Covers is set
// inclusion, for sets of 0 to 20 addresses on either side — across fewAddrs,
// where Contains turns from comparing to hashing — drawn from a pool small
// enough that inclusion holds often.
func TestCoversIsSetInclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func() (*Addresses, map[string]bool) {
		f, set := NewAddresses(), make(map[string]bool)
		for n := rng.Intn(21); len(set) < n; {
			a := fmt.Sprintf("user:%d", rng.Intn(24))
			f.Add(a)
			set[a] = true
		}
		return f, set
	}
	var held, failed int
	for round := 0; round < 2000; round++ {
		f, fset := draw()
		o, oset := draw()
		if rng.Intn(3) == 0 { // o drawn from f, so that inclusion holds
			o, oset = NewAddresses(), make(map[string]bool)
			for _, a := range f.list {
				if rng.Intn(3) > 0 {
					o.Add(a)
					oset[a] = true
				}
			}
		}
		want := true
		for a := range oset {
			want = want && fset[a]
		}
		if got := f.Covers(o); got != want {
			t.Fatalf("%v covers %v: %v, want %v", f, o, got, want)
		}
		if want && len(oset) > 1 {
			held++
		} else if !want {
			failed++
		}
	}
	if held < 100 || failed < 100 {
		t.Errorf("corpus too thin: inclusion of 2+ addresses held %d times, failed %d", held, failed)
	}
}
