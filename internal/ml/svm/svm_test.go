package svm

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"

	"elevprivacy/internal/ml"
)

// gaussianBlobs generates `perClass` points around each of the given
// centers with the given spread.
func gaussianBlobs(centers [][]float64, perClass int, spread float64, seed int64) (x [][]float64, y []int) {
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

func accuracy(t *testing.T, clf interface {
	Predict([]float64) (int, error)
}, x [][]float64, y []int) float64 {
	t.Helper()
	var correct int
	for i := range x {
		pred, err := clf.Predict(x[i])
		if err != nil {
			t.Fatal(err)
		}
		if pred == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Classes: 1, Lambda: 1, Epochs: 1}); err == nil {
		t.Error("1 class accepted")
	}
	if _, err := New(Config{Classes: 2, Lambda: 0, Epochs: 1}); err == nil {
		t.Error("lambda 0 accepted")
	}
	if _, err := New(Config{Classes: 2, Lambda: 1, Epochs: 0}); err == nil {
		t.Error("0 epochs accepted")
	}
}

// blobConfig disables L2 normalization: raw geometric blobs (unlike BoW
// vectors) lose their separability when projected onto the unit sphere.
func blobConfig(classes int) Config {
	cfg := DefaultConfig(classes)
	cfg.NormalizeL2 = false
	cfg.Lambda = 1e-4
	return cfg
}

func TestBinarySeparable(t *testing.T) {
	x, y := gaussianBlobs([][]float64{{0, 0}, {6, 6}}, 40, 0.5, 1)
	clf, err := New(blobConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(t, clf, x, y); acc < 0.98 {
		t.Errorf("separable accuracy = %f, want >= 0.98", acc)
	}
}

func TestMultiClassSeparable(t *testing.T) {
	centers := [][]float64{{0, 0}, {8, 0}, {0, 8}, {8, 8}}
	x, y := gaussianBlobs(centers, 30, 0.6, 2)
	clf, err := New(blobConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(t, clf, x, y); acc < 0.95 {
		t.Errorf("4-class accuracy = %f, want >= 0.95", acc)
	}
}

func TestHighDimensionalSparse(t *testing.T) {
	// BoW-like features: class 0 lights features 0-4, class 1 features 5-9.
	rng := rand.New(rand.NewSource(3))
	var x [][]float64
	var y []int
	for i := 0; i < 60; i++ {
		v := make([]float64, 50)
		class := i % 2
		for j := 0; j < 5; j++ {
			v[class*5+rng.Intn(5)] += 0.2
		}
		x = append(x, v)
		y = append(y, class)
	}
	clf, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(t, clf, x, y); acc < 0.95 {
		t.Errorf("sparse accuracy = %f", acc)
	}
}

func TestFitValidation(t *testing.T) {
	clf, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.Fit(nil, nil); err == nil {
		t.Error("empty fit accepted")
	}
	if err := clf.Fit([][]float64{{1}}, []int{3}); err == nil {
		t.Error("out-of-range label accepted")
	}
}

func TestPredictValidation(t *testing.T) {
	clf, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clf.Predict([]float64{1}); err == nil {
		t.Error("predict before fit accepted")
	}
	x, y := gaussianBlobs([][]float64{{0}, {5}}, 10, 0.1, 4)
	if err := clf.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if _, err := clf.Predict([]float64{1, 2, 3}); err == nil {
		t.Error("wrong-dim predict accepted")
	}
}

func TestDeterministicTraining(t *testing.T) {
	x, y := gaussianBlobs([][]float64{{0, 0}, {4, 4}}, 20, 1.0, 5)
	a, err := New(blobConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(blobConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i, v := range a.w.Data {
		if v != b.w.Data[i] {
			t.Fatal("same-seed training diverges (parallelism nondeterminism?)")
		}
	}
}

func TestDecisionValuesShape(t *testing.T) {
	x, y := gaussianBlobs([][]float64{{0, 0}, {4, 4}, {0, 4}}, 15, 0.5, 6)
	clf, err := New(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	scores, err := clf.DecisionValues(x[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 3 {
		t.Errorf("scores = %v", scores)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	x, y := gaussianBlobs([][]float64{{1, 5}, {5, 1}, {5, 5}}, 12, 0.4, 41)
	clf, err := New(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.Fit(x, y); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		want, _ := clf.DecisionValues(x[i])
		got, err := back.DecisionValues(x[i])
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if want[k] != got[k] {
				t.Fatalf("sample %d scores: %v vs %v", i, got, want)
			}
		}
	}
}

func TestSaveUnfittedRejected(t *testing.T) {
	clf, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err == nil {
		t.Error("unfitted model saved")
	}
}

// TestLoadRejectsCraftedShape feeds Load model files whose header claims a
// width the weight blocks do not hold. Each must fail with an error, and
// the large-dim file must fail before allocating the 2×2^20 weight matrix
// it describes (16 MB).
func TestLoadRejectsCraftedShape(t *testing.T) {
	cfg := DefaultConfig(2)
	for _, dim := range []int{1 << 20, 0, -1} {
		hdr, err := json.Marshal(savedConfig{Config: cfg, Dim: dim})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		err = ml.WriteModel(&buf, ml.Header{Kind: "svm", Config: hdr}, []float64{1}, []float64{2}, []float64{0, 0})
		if err != nil {
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
