package routing

import (
	"math"
	"testing"
)

func TestPriorityBefore(t *testing.T) {
	cases := []struct {
		name string
		p, q Priority
		want bool
	}{
		{"higher class first", Priority{Class: ClassFilter}, Priority{Class: ClassHigh}, true},
		{"lower class later", Priority{Class: ClassLow}, Priority{Class: ClassNormal}, false},
		{"same class lower cost first", Priority{Class: ClassNormal, Cost: 1}, Priority{Class: ClassNormal, Cost: 2}, true},
		{"same class higher cost later", Priority{Class: ClassNormal, Cost: 3}, Priority{Class: ClassNormal, Cost: 2}, false},
		{"inf cost sorts last", Priority{Class: ClassNormal, Cost: 1}, Priority{Class: ClassNormal, Cost: math.Inf(1)}, true},
		{"class beats cost", Priority{Class: ClassHigh, Cost: 100}, Priority{Class: ClassNormal, Cost: 0}, true},
	}
	for _, tc := range cases {
		if got := tc.p.Before(tc.q); got != tc.want {
			t.Errorf("%s: Before = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		ClassSkip:    "skip",
		ClassLowest:  "lowest",
		ClassLow:     "low",
		ClassNormal:  "normal",
		ClassHigh:    "high",
		ClassHighest: "highest",
		ClassFilter:  "filter",
		Class(99):    "unknown",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, want)
		}
	}
}
