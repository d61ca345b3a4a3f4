package mobility

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"replidtn/internal/trace"
)

// writeTraceDir exports a trace as the CSV directory layout LoadDir reads.
func writeTraceDir(dir string, tr *trace.Trace) error {
	write := func(name string, fn func(*os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return fn(f)
	}
	if err := write(trace.EncountersFile, func(f *os.File) error { return trace.WriteEncounters(f, tr.Encounters) }); err != nil {
		return err
	}
	if err := write(trace.MessagesFile, func(f *os.File) error { return trace.WriteMessages(f, tr.Messages) }); err != nil {
		return err
	}
	return write(trace.AssignmentsFile, func(f *os.File) error { return trace.WriteAssignments(f, tr.Assignment) })
}

func testCommon() Common {
	cfg := Defaults()
	cfg.Nodes = 40
	cfg.Days = 2
	cfg.Seed = 7
	cfg.Users = 10
	cfg.Messages = 50
	cfg.InjectDays = 2
	// A denser playground than the default so the small fleet still meets.
	cfg.Spacing = 300
	return cfg
}

// generators are the movement models under test, by name.
var generators = []struct {
	name string
	gen  func(Common) (*trace.Trace, error)
}{
	{"rwp", RWP},
	{"community", func(cfg Common) (*trace.Trace, error) { return Community(cfg, 4, 0.8) }},
}

func TestGeneratorsMaterializeValidTraces(t *testing.T) {
	cfg := testCommon()
	for _, g := range generators {
		tr, err := g.gen(cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if len(tr.Encounters) == 0 {
			t.Errorf("%s: no encounters generated", g.name)
		}
		if len(tr.Messages) != cfg.Messages {
			t.Errorf("%s: %d messages, want %d", g.name, len(tr.Messages), cfg.Messages)
		}
		if len(tr.Buses) != cfg.Nodes {
			t.Errorf("%s: %d nodes, want %d", g.name, len(tr.Buses), cfg.Nodes)
		}
		for _, e := range tr.Encounters {
			if off := e.Time % trace.SecondsPerDay; off >= cfg.ActiveSeconds {
				t.Fatalf("%s: encounter at day offset %d outside the active window", g.name, off)
			}
		}
	}
}

// TestScenarioInterfaceShape checks the roster side of a generated
// scenario: the day count, a sorted fleet rostered whole every day, and a
// daily assignment covering every user.
func TestScenarioInterfaceShape(t *testing.T) {
	cfg := testCommon()
	for _, g := range generators {
		tr, err := g.gen(cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if tr.Days != cfg.Days {
			t.Errorf("%s: days = %d, want %d", g.name, tr.Days, cfg.Days)
		}
		if !sortedStrings(tr.Buses) {
			t.Errorf("%s: node roster not sorted", g.name)
		}
		if len(tr.Roster) != cfg.Days || len(tr.Assignment) != cfg.Days {
			t.Fatalf("%s: %d roster days and %d assignment days, want %d", g.name, len(tr.Roster), len(tr.Assignment), cfg.Days)
		}
		for d := range tr.Roster {
			if !reflect.DeepEqual(tr.Roster[d], tr.Buses) {
				t.Errorf("%s: day %d does not roster the whole fleet", g.name, d)
			}
			if len(tr.Assignment[d]) != cfg.Users {
				t.Errorf("%s: day %d assigns %d users, want %d", g.name, d, len(tr.Assignment[d]), cfg.Users)
			}
			for _, u := range tr.Users {
				if _, ok := tr.Assignment[d][u]; !ok {
					t.Errorf("%s: day %d leaves user %s unassigned", g.name, d, u)
				}
			}
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	cfg := testCommon()
	other := cfg
	other.Seed++
	for _, g := range generators {
		t1, err := g.gen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := g.gen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(t1, t2) {
			t.Errorf("%s: two generations of the same scenario differ", g.name)
		}
		t3, err := g.gen(other)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(t1.Encounters, t3.Encounters) {
			t.Errorf("%s: different seeds produced identical schedules", g.name)
		}
	}
}

func TestCommunityClustersContacts(t *testing.T) {
	// With full home bias almost all contacts should be within-community;
	// compare against the uniform RWP baseline on the same parameters.
	cfg := testCommon()
	tr, err := Community(cfg, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	home := homes(cfg, 4)
	homeOf := make(map[string]int, len(tr.Buses))
	for i, n := range tr.Buses {
		homeOf[n] = home[i]
	}
	if len(tr.Encounters) == 0 {
		t.Fatal("no community encounters")
	}
	same := 0
	for _, e := range tr.Encounters {
		if homeOf[e.A] == homeOf[e.B] {
			same++
		}
	}
	if frac := float64(same) / float64(len(tr.Encounters)); frac < 0.7 {
		t.Errorf("only %.0f%% of fully-biased community contacts are within-community", frac*100)
	}
}

func TestGridMatchesBruteForce(t *testing.T) {
	// The hash grid must report exactly the pairs a quadratic scan finds,
	// across several deterministic point clouds including cell-boundary
	// and duplicate positions.
	const n, side, radio = 200, 2000.0, 100.0
	rng := seedStream(99, 0)
	for round := 0; round < 5; round++ {
		g := newGrid(n, side, radio)
		g.reset()
		xs, ys := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = unitRand(&rng) * side
			ys[i] = unitRand(&rng) * side
			if i%17 == 0 { // exact cell corners
				xs[i] = float64(int(xs[i]/radio)) * radio
			}
			if i%23 == 0 && i > 0 { // coincident nodes
				xs[i], ys[i] = xs[i-1], ys[i-1]
			}
			g.insert(int32(i), xs[i], ys[i])
		}
		got := map[uint64]bool{}
		for _, p := range g.collectPairs(nil) {
			if got[p] {
				t.Fatalf("pair %x reported twice", p)
			}
			got[p] = true
		}
		want := map[uint64]bool{}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dx, dy := xs[i]-xs[j], ys[i]-ys[j]
				if dx*dx+dy*dy <= radio*radio {
					want[packPair(int32(i), int32(j))] = true
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: grid found %d pairs, brute force %d", round, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("round %d: grid missed pair %x", round, p)
			}
		}
	}
}

func TestEncountersSortedAndWellFormed(t *testing.T) {
	for _, g := range generators {
		tr, err := g.gen(testCommon())
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range tr.Encounters {
			if i > 0 {
				prev := tr.Encounters[i-1]
				if e.Time < prev.Time {
					t.Fatalf("%s: time went backwards: %d after %d", g.name, e.Time, prev.Time)
				}
				if e.Time == prev.Time && (e.A < prev.A || (e.A == prev.A && e.B < prev.B)) {
					t.Fatalf("%s: same-tick pair order regressed", g.name)
				}
			}
			if e.A >= e.B {
				t.Fatalf("%s: pair %q,%q not in name order", g.name, e.A, e.B)
			}
		}
	}
}

func TestMessagesWellFormed(t *testing.T) {
	cfg := testCommon()
	tr, err := RWP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prev int64 = -1
	for _, m := range tr.Messages {
		if m.Time < prev {
			t.Fatalf("message times regressed: %d after %d", m.Time, prev)
		}
		if m.From == m.To {
			t.Fatalf("self-addressed message %s", m.ID)
		}
		if trace.Day(m.Time) >= cfg.InjectDays {
			t.Fatalf("message %s injected on day %d", m.ID, trace.Day(m.Time))
		}
		prev = m.Time
	}
	if len(tr.Messages) != cfg.Messages {
		t.Errorf("generated %d messages, want %d", len(tr.Messages), cfg.Messages)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

func TestParseSpecs(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		nodes int
	}{
		{"rwp:n=30,seed=7,users=6,msgs=10,spacing=300", 30},
		{"community:n=30,cells=3,bias=0.9,users=6,msgs=10,spacing=300", 30},
		{"rwp:n=30,speed=2-12,tick=30,active=7200,area=1500,users=4,msgs=5,days=2,injectdays=1", 30},
		{"dieselnet:seed=3,days=4,fleet=10,users=8,msgs=20", 10},
		{"dieselnet", trace.DefaultDieselNet().FleetSize},
	} {
		tr, err := Parse(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if len(tr.Buses) != tc.nodes {
			t.Errorf("%s: %d nodes, want %d", tc.spec, len(tr.Buses), tc.nodes)
		}
	}
}

func TestParseDirSpec(t *testing.T) {
	dn := trace.DefaultDieselNet()
	dn.Days, dn.FleetSize, dn.ActivePerDay, dn.EncountersPerDay = 2, 6, 5, 50
	wl := trace.DefaultWorkload()
	wl.Users, wl.Messages, wl.InjectDays = 6, 10, 2
	tr, err := trace.Generate(dn, wl, 5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := writeTraceDir(dir, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Parse("dir:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Encounters, tr.Encounters) {
		t.Error("dir: scenario diverged from the written trace")
	}
}

func TestParseErrors(t *testing.T) {
	for _, tc := range []struct {
		spec, want string
	}{
		{"levy:n=10", "unknown scenario model"},
		{"rwp:n=0", "positive integer"},
		{"rwp:bogus=1", "unknown key"},
		{"rwp:speed=5", "min-max band"},
		{"rwp:n", "key=value"},
		{"rwp:bias=0.5", "only applies to community"},
		{"corridor:n=10", "unknown scenario model"},
		{"dieselnet:zipf=2", "unknown key"},
		{"dir:", "needs a path"},
	} {
		_, err := Parse(tc.spec)
		if err == nil {
			t.Errorf("%s: expected error", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q should mention %q", tc.spec, err, tc.want)
		}
	}
}
