//go:build !race

// The race detector makes sync.Pool drop objects at random, so allocation
// counts are only meaningful without it.

package cnn

import "testing"

// TestPredictAllocations bounds single-image inference: Predict runs on a
// pooled workspace and allocates nothing; Probabilities allocates only the
// slice it returns.
func TestPredictAllocations(t *testing.T) {
	images, _ := syntheticImages(2, 1, 1)
	c, err := New(fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Predict(images[0]); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { c.Predict(images[0]) }); n > 0 {
		t.Errorf("Predict allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.Probabilities(images[0]) }); n > 1 {
		t.Errorf("Probabilities allocates %v times per call, want 1", n)
	}
}
