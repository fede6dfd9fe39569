package mlp

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"elevprivacy/internal/ml"
)

func blobs(centers [][]float64, perClass int, spread float64, seed int64) (x [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	for c, center := range centers {
		for i := 0; i < perClass; i++ {
			p := make([]float64, len(center))
			for d := range center {
				p[d] = center[d] + rng.NormFloat64()*spread
			}
			x = append(x, p)
			y = append(y, c)
		}
	}
	return x, y
}

func testConfig(classes int) Config {
	cfg := DefaultConfig(classes)
	cfg.Hidden = 32
	cfg.Epochs = 80
	return cfg
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Classes: 1, Hidden: 10, Epochs: 1, BatchSize: 1, LearningRate: 0.1},
		{Classes: 2, Hidden: 0, Epochs: 1, BatchSize: 1, LearningRate: 0.1},
		{Classes: 2, Hidden: 10, Epochs: 0, BatchSize: 1, LearningRate: 0.1},
		{Classes: 2, Hidden: 10, Epochs: 1, BatchSize: 0, LearningRate: 0.1},
		{Classes: 2, Hidden: 10, Epochs: 1, BatchSize: 1, LearningRate: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestSeparableBlobs(t *testing.T) {
	x, y := blobs([][]float64{{0, 0}, {4, 4}, {0, 4}}, 30, 0.5, 1)
	m, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var correct int
	for i := range x {
		pred, err := m.Predict(x[i])
		if err != nil {
			t.Fatal(err)
		}
		if pred == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(x)); acc < 0.95 {
		t.Errorf("accuracy = %f", acc)
	}
}

func TestNonLinearXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x [][]float64
	var y []int
	for i := 0; i < 240; i++ {
		a := rng.Float64()*2 - 1
		b := rng.Float64()*2 - 1
		label := 0
		if (a > 0) != (b > 0) {
			label = 1
		}
		x = append(x, []float64{a, b})
		y = append(y, label)
	}
	cfg := testConfig(2)
	cfg.Epochs = 200
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var correct int
	for i := range x {
		pred, _ := m.Predict(x[i])
		if pred == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(x)); acc < 0.9 {
		t.Errorf("XOR accuracy = %f (MLP must beat linear models here)", acc)
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	x, y := blobs([][]float64{{0}, {3}}, 15, 0.3, 3)
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	probs, err := m.Probabilities([]float64{1.5})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Errorf("probability %f out of range", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %f", sum)
	}
}

func TestDeterministicTraining(t *testing.T) {
	x, y := blobs([][]float64{{0, 0}, {3, 3}}, 20, 0.8, 4)
	run := func() []float64 {
		m, err := New(testConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		probs, _ := m.Probabilities([]float64{1.5, 1.5})
		return probs
	}
	a := run()
	b := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed training diverges")
		}
	}
}

// TestRefitMatchesFresh pins the Fit contract: refitting a used model is
// bit-identical to fitting a fresh one. A previous version silently
// warm-started when the input dimension matched — stale weights and stale
// Adam moments/step count leaked into the second fit.
func TestRefitMatchesFresh(t *testing.T) {
	x, y := blobs([][]float64{{0}, {3}}, 10, 0.3, 5)
	refit, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := refit.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := refit.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		want, _ := fresh.Probabilities(x[i])
		got, _ := refit.Probabilities(x[i])
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("sample %d class %d: refit %g, fresh %g", i, k, got[k], want[k])
			}
		}
	}
}

// TestRefitChangesDimension checks that a second Fit with a different
// feature width reshapes the network instead of failing or mixing stale
// parameters.
func TestRefitChangesDimension(t *testing.T) {
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	x1, y1 := blobs([][]float64{{0}, {3}}, 10, 0.3, 5)
	if err := m.Fit(x1, y1); err != nil {
		t.Fatal(err)
	}
	x2, y2 := blobs([][]float64{{0, 0}, {3, 3}}, 10, 0.3, 6)
	if err := m.Fit(x2, y2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict([]float64{1, 1}); err != nil {
		t.Fatalf("predict after refit with new width: %v", err)
	}
	if _, err := m.Predict([]float64{1}); err == nil {
		t.Error("old-width predict still accepted after refit")
	}
}

// TestDeterministicTrainingAcrossParallelism trains the same model under
// GOMAXPROCS 1 and 4 and requires bit-identical probabilities: the batched
// kernels may fan rows out across goroutines, but each output cell is one
// accumulator summed in a fixed order, so parallelism must not change a
// single bit. Under -race this also exercises the data-parallel epoch for
// unsynchronized access.
func TestDeterministicTrainingAcrossParallelism(t *testing.T) {
	// Wide enough that the affine kernels cross the parallel threshold.
	x, y := blobs([][]float64{make([]float64, 96), func() []float64 {
		c := make([]float64, 96)
		for i := range c {
			c[i] = 3
		}
		return c
	}()}, 24, 0.8, 7)
	cfg := testConfig(2)
	cfg.Hidden = 64
	cfg.Epochs = 6
	run := func(procs int) []float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		probs, _ := m.Probabilities(x[0])
		return probs
	}
	serial := run(1)
	parallel := run(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("class %d: GOMAXPROCS=1 %g, GOMAXPROCS=4 %g", i, serial[i], parallel[i])
		}
	}
}

func TestFitPredictValidation(t *testing.T) {
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict([]float64{1}); err == nil {
		t.Error("predict before fit accepted")
	}
	if err := m.Fit([][]float64{{1}, {2}}, []int{0, 5}); err == nil {
		t.Error("bad label accepted")
	}
	x, y := blobs([][]float64{{0}, {3}}, 5, 0.3, 6)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict([]float64{1, 2}); err == nil {
		t.Error("wrong-dim predict accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	x, y := blobs([][]float64{{0, 1}, {4, 5}}, 15, 0.4, 31)
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		want, _ := m.Probabilities(x[i])
		got, err := back.Probabilities(x[i])
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if want[k] != got[k] {
				t.Fatalf("sample %d: %v vs %v", i, got, want)
			}
		}
	}
}

func TestSaveUnfittedRejected(t *testing.T) {
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err == nil {
		t.Error("unfitted model saved")
	}
}

// TestLoadRejectsCraftedShape feeds Load model files whose header claims a
// shape the parameter block does not hold. Each must fail with an error,
// and the large-dim file must fail before allocating the network it
// describes (4·2^18 weights plus Adam moments, ~24 MB).
func TestLoadRejectsCraftedShape(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Hidden = 4
	for _, dim := range []int{1 << 18, 0, -1, math.MaxInt/4 + 1} {
		hdr, err := json.Marshal(savedConfig{Config: cfg, Dim: dim})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ml.WriteModel(&buf, ml.Header{Kind: "mlp", Config: hdr}, []float64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = Load(&buf)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("dim %d: crafted model loaded", dim)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("dim %d: Load allocated %d bytes before rejecting", dim, grew)
		}
	}
}
