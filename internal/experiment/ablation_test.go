package experiment

import (
	"strings"
	"testing"
)

// ablation returns the named row of the ablation table.
func ablation(t *testing.T, name string) Ablation {
	t.Helper()
	for _, a := range Ablations {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no ablation %q", name)
	return Ablation{}
}

func TestAblationEpidemicTTLMonotone(t *testing.T) {
	tr := smallTrace(t)
	rows, err := RunAblation(tr, ablation(t, "ablation-ttl"), []int64{1, 4, 12}, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// A larger hop budget cannot hurt delivery or raise delay, and must not
	// reduce traffic.
	for i := 1; i < len(rows); i++ {
		if rows[i].Delivered12h < rows[i-1].Delivered12h-1e-9 {
			t.Errorf("delivery dropped from %v to %v with larger TTL",
				rows[i-1].Delivered12h, rows[i].Delivered12h)
		}
		if rows[i].ItemsTransferred < rows[i-1].ItemsTransferred {
			t.Errorf("traffic dropped with larger TTL")
		}
	}
}

func TestAblationSprayCopiesTradeoff(t *testing.T) {
	tr := smallTrace(t)
	rows, err := RunAblation(tr, ablation(t, "ablation-copies"), []int64{2, 16}, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Delivered12h < rows[0].Delivered12h-1e-9 {
		t.Errorf("more copies should not hurt delivery: %v vs %v",
			rows[0].Delivered12h, rows[1].Delivered12h)
	}
	if rows[1].CopiesAtEnd < rows[0].CopiesAtEnd {
		t.Errorf("more copies should not shrink the footprint")
	}
}

func TestAblationMaxPropThreshold(t *testing.T) {
	tr := smallTrace(t)
	rows, err := RunAblation(tr, ablation(t, "ablation-threshold"), []int64{1, 5}, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Delivered12h <= 0 {
			t.Errorf("%s delivered nothing", r.Setting)
		}
	}
}

func TestAblationBandwidthMonotoneTraffic(t *testing.T) {
	tr := smallTrace(t)
	rows, err := RunAblation(tr, ablation(t, "ablation-bandwidth"), []int64{1, 4, 0}, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].ItemsTransferred > rows[1].ItemsTransferred ||
		rows[1].ItemsTransferred > rows[2].ItemsTransferred {
		t.Errorf("traffic must grow with the budget: %d, %d, %d",
			rows[0].ItemsTransferred, rows[1].ItemsTransferred, rows[2].ItemsTransferred)
	}
	if rows[2].Setting != "budget=inf" {
		t.Errorf("unlimited setting label = %q", rows[2].Setting)
	}
}

func TestAblationStorageMonotoneFootprint(t *testing.T) {
	tr := smallTrace(t)
	rows, err := RunAblation(tr, ablation(t, "ablation-storage"), []int64{1, 0}, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].CopiesAtEnd < rows[0].CopiesAtEnd {
		t.Errorf("unlimited storage should hold at least as many copies: %v vs %v",
			rows[0].CopiesAtEnd, rows[1].CopiesAtEnd)
	}
	if rows[1].Delivered12h < rows[0].Delivered12h-1e-9 {
		t.Errorf("unlimited storage should not deliver less")
	}
}

func TestAblationEviction(t *testing.T) {
	tr := smallTrace(t)
	rows, err := RunAblation(tr, ablation(t, "ablation-eviction"), nil, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (2 policies x 2 strategies)", len(rows))
	}
	for _, r := range rows {
		if r.Delivered12h <= 0 {
			t.Errorf("%s delivered nothing", r.Setting)
		}
	}
	out := FormatAblation(rows)
	if !strings.Contains(out, "fifo") || !strings.Contains(out, "cost(hops)") {
		t.Errorf("missing strategy labels in:\n%s", out)
	}
}

func TestAblationByteBudget(t *testing.T) {
	tr := smallTrace(t)
	rows, err := RunAblation(tr, ablation(t, "ablation-bytes"), []int64{2 << 10, 0}, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Delivered12h > rows[1].Delivered12h+1e-9 {
		t.Errorf("tight byte budget should not beat unlimited: %v vs %v",
			rows[0].Delivered12h, rows[1].Delivered12h)
	}
	if rows[0].ItemsTransferred > rows[1].ItemsTransferred {
		t.Error("tight byte budget moved more items than unlimited")
	}
	if rows[1].Setting != "bytes=inf" {
		t.Errorf("label = %q", rows[1].Setting)
	}
}

func TestAblationLifetime(t *testing.T) {
	tr := smallTrace(t)
	rows, err := RunAblation(tr, ablation(t, "ablation-lifetime"), []int64{6 * 3600, 0}, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// A bounded lifetime must not increase traffic, and the unlimited run
	// must deliver at least as much.
	if rows[0].ItemsTransferred > rows[1].ItemsTransferred {
		t.Errorf("bounded lifetime increased traffic: %d > %d",
			rows[0].ItemsTransferred, rows[1].ItemsTransferred)
	}
	if rows[1].Delivered12h < rows[0].Delivered12h-1e-9 {
		t.Errorf("unlimited lifetime delivered less: %v < %v",
			rows[1].Delivered12h, rows[0].Delivered12h)
	}
	if rows[1].Setting != "lifetime=inf" {
		t.Errorf("label = %q", rows[1].Setting)
	}
}

func TestFormatAblation(t *testing.T) {
	out := FormatAblation([]AblationRow{{
		Setting: "x=1", Delivered12h: 0.5, MeanDelayHours: 2.25,
		CopiesAtEnd: 3.5, ItemsTransferred: 42,
	}})
	for _, want := range []string{"setting", "x=1", "50.0%", "2.2h", "3.50", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
