package prophet

import (
	"encoding/hex"
	"testing"
)

// TestRequestAndDeltaBytesGolden pins the encoding of a request and of a
// delta a small fleet produces — encounters, aging passes between them, a
// re-homing. The bytes were generated while the vectors were hash maps;
// keeping them sorted must not move one.
func TestRequestAndDeltaBytesGolden(t *testing.T) {
	clk := &simClock{t: 1000}
	unit := DefaultParams().AgingUnit
	var ps []*Policy
	for i := 0; i < 5; i++ {
		ps = append(ps, newPolicy(clk, addr(i)))
	}
	meet := func(i, j int) {
		ps[i].ProcessReq(id(j), reqFrom(ps[j]))
		ps[j].ProcessReq(id(i), reqFrom(ps[i]))
	}
	meet(0, 1)
	meet(1, 2)
	clk.t += 3 * unit
	meet(2, 3)
	meet(0, 2)
	meet(3, 4)
	base := reqFrom(ps[0])
	clk.t += 5*unit + 7
	meet(0, 4)
	meet(0, 3)
	ps[0].SetOwnAddresses(addr(0), "z:addr")
	cur := reqFrom(ps[0])
	d := cur.DeltaSince(base)
	if d == nil {
		t.Fatal("no delta")
	}
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"request", cur.AppendBinary(nil), "0306613a61646472067a3a616464720406623a61646472b03cdf87166be43f06633a616464728653ea7ab0b1e53f06643a61646472eafbc2455404e93f06653a61646472000000000000e83f"},
		{"delta", d.(*Delta).AppendBinary(nil), "01b2c48d4eebecec3f010306613a61646472067a3a616464720206643a61646472eafbc2455404e93f06653a61646472000000000000e83f04"},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s encodes as\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}
