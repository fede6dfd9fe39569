package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"elevprivacy/internal/obs"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
}

// TestQuartilesMatchPython pins the cut points to what Python's
// statistics.quantiles(xs, n=4) prints for the same values.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}}, // Python extrapolates past the ends
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{100, 0.90, 90, true},
	} {
		got, ok := percentile(ramp(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	for p, want := range map[float64]int{0.99: 1000, 0.9: 100, 0.5: 20} {
		if got := minSamplesFor(p); got != want {
			t.Errorf("minSamplesFor(%v) = %d, want %d", p, got, want)
		}
	}
}

// at is a wall-clock instant ms milliseconds after an arbitrary origin.
func at(ms int) time.Time {
	return time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(ms) * time.Millisecond)
}

func iv(from, to int) interval { return interval{at(from), at(to)} }

func TestUnionDurationCountsOverlapOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []interval
		want int
	}{
		{"none", nil, 0},
		{"disjoint", []interval{iv(0, 10), iv(20, 25)}, 15},
		{"overlapping folds", []interval{iv(5, 15), iv(0, 10), iv(20, 25)}, 20},
		{"nested", []interval{iv(0, 100), iv(10, 20), iv(30, 40)}, 100},
		{"touching", []interval{iv(0, 10), iv(10, 20)}, 20},
	} {
		if got := unionDuration(tc.in); got != time.Duration(tc.want)*time.Millisecond {
			t.Errorf("%s: union = %v, want %dms", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	parent := iv(0, 100)
	// Two overlapping children cover 10..40, one sticks out past the
	// parent's end and covers 90..100 of it: 40 ms covered.
	children := []interval{iv(10, 30), iv(20, 40), iv(90, 120)}
	if got, want := selfTime(parent, children), 60*time.Millisecond; got != want {
		t.Errorf("self = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("self without children = %v, want 100ms", got)
	}
}

func TestLayerTableWallShares(t *testing.T) {
	rec := func(id, parent uint64, name string, from, to int) obs.SpanRecord {
		return obs.SpanRecord{ID: id, Parent: parent, Name: name, Start: at(from), End: at(to)}
	}
	spans := []obs.SpanRecord{
		rec(1, 0, unitSpan, 0, 100),
		rec(2, 1, "textrep.vocab", 0, 10),
		rec(3, 1, "eval.cv", 10, 90),
		// Concurrent folds: 70 ms busy, 50 ms of wall inside eval.cv.
		rec(4, 3, "ml.svm.fit", 20, 60),
		rec(5, 3, "ml.svm.fit", 30, 60),
		// The final fit is top-level and shares the layer name.
		rec(6, 1, "ml.svm.fit", 90, 98),
	}
	rows, unitWall, topWall := layerTable(spans)
	if unitWall != 100*time.Millisecond || topWall != 98*time.Millisecond {
		t.Fatalf("unit wall %v, top wall %v; want 100ms, 98ms", unitWall, topWall)
	}
	byName := map[string]layerRow{}
	for _, r := range rows {
		byName[r.name] = r
	}
	fit := byName["ml.svm.fit"]
	if fit.busy != 78*time.Millisecond || fit.wall != 48*time.Millisecond || fit.top != 8*time.Millisecond || fit.spans != 3 {
		t.Errorf("fit row = %+v", fit)
	}
	if cv := byName["eval.cv"]; cv.self != 40*time.Millisecond || cv.top != 80*time.Millisecond {
		t.Errorf("eval.cv self %v top %v, want 40ms and 80ms", cv.self, cv.top)
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	sends := []openLoop{
		{due: at(0), sent: at(0), done: at(30)},
		// The generator stalled: sent 40 ms late, so the wait counts.
		{due: at(10), sent: at(50), done: at(60)},
		{due: at(20), sent: at(51), done: at(61)},
	}
	lat, lateMax := openLoopLatency(sends)
	want := []float64{30, 50, 41}
	for i := range want {
		if lat[i] != want[i] {
			t.Errorf("latency[%d] = %v, want %v", i, lat[i], want[i])
		}
	}
	if lateMax != 40*time.Millisecond {
		t.Errorf("generator lateness = %v, want 40ms", lateMax)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "tm3-text", "--trace", "2"},
		{"--workload", "tm3-text", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut discard
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json and
// the metrics this program reports in step: same names, same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		entries []entry
		names   []string
	}{{spec.EndToEnd, endToEndMetrics}, {spec.PerLayer, perLayerMetrics}} {
		if len(c.entries) != len(c.names) {
			t.Errorf("BENCHMARK.json lists %d metrics, the code reports %d", len(c.entries), len(c.names))
			continue
		}
		for i, e := range c.entries {
			if e.Name != c.names[i] || e.Unit != unitOf(c.names[i]) {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the code %s [%s]", i, e.Name, e.Unit, c.names[i], unitOf(c.names[i]))
			}
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, the code %q", got, want)
	}
}

func TestSpeedFactorsScaleToTheReference(t *testing.T) {
	p := &speedProbe{cpus: []float64{9}, walls: []float64{9}} // a sample before the mark
	for _, w := range []float64{1, 2, 2, 2, 2, 2, 2, 2, 2, 5} {
		p.walls = append(p.walls, w*probeRefWall)
		p.cpus = append(p.cpus, 4*probeRefCPU)
	}
	sp := p.since(1)
	if sp.samples != 10 {
		t.Fatalf("samples = %d, want 10", sp.samples)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if !near(sp.wall, 1/2.2) || !near(sp.cpu, 1/4.0) || !near(sp.typical, 1/2.0) || !near(sp.floor, 1) {
		t.Errorf("factors wall %v cpu %v typical %v floor %v, want 1/2.2, 1/4, 1/2, 1", sp.wall, sp.cpu, sp.typical, sp.floor)
	}
	if none := p.since(11); none.wall != 1 || none.cpu != 1 || none.typical != 1 || none.floor != 1 {
		t.Errorf("no samples: factors %+v, want 1", none)
	}
	wall, cpu := meanWallCPU([]measured{{wall: 2 * time.Second, cpu: 4 * time.Second}, {wall: 4 * time.Second, cpu: 8 * time.Second}},
		speed{wall: 0.5, cpu: 0.25})
	if !near(wall, 1.5) || !near(cpu, 1.5) {
		t.Errorf("scaled mean wall %v cpu %v, want 1.5 and 1.5", wall, cpu)
	}
}

func TestTimedLeavesOutProbeSamples(t *testing.T) {
	before := probe.spentWall
	m, err := timed(func() error {
		probe.samples(3)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	spent := probe.spentWall - before
	if spent <= 0 || m.wall > spent/10 {
		t.Errorf("timed wall %v around %v of probe samples; want the samples left out", m.wall, spent)
	}
}
