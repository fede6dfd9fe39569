package cnn

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestConcurrentInference runs Predict, Probabilities, PredictBatch and
// Scores on one trained model from 8 goroutines at once. Every result must
// equal the serial one bit for bit: the pooled workspaces carry no state
// from one call, or one goroutine, to the next.
func TestConcurrentInference(t *testing.T) {
	images, labels := syntheticImages(3, 4, 13)
	c, err := New(fastConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.TrainEpochs(images, labels, 2); err != nil {
		t.Fatal(err)
	}
	wantProbs := make([][]float64, len(images))
	wantPred := make([]int, len(images))
	for i, im := range images {
		if wantProbs[i], err = c.Probabilities(im); err != nil {
			t.Fatal(err)
		}
		if wantPred[i], err = c.Predict(im); err != nil {
			t.Fatal(err)
		}
	}
	sameBits := func(got, want []float64) bool {
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				return false
			}
		}
		return true
	}

	const goroutines, window = 8, 4
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range images {
				i := (g + k) % len(images)
				switch (g + k) % 3 {
				case 0:
					if p, err := c.Predict(images[i]); err != nil || p != wantPred[i] {
						errs <- fmt.Errorf("goroutine %d Predict(image %d) = %d, %v; serial %d", g, i, p, err, wantPred[i])
						return
					}
				case 1:
					if p, err := c.Probabilities(images[i]); err != nil || !sameBits(p, wantProbs[i]) {
						errs <- fmt.Errorf("goroutine %d Probabilities(image %d) = %v, %v; serial %v", g, i, p, err, wantProbs[i])
						return
					}
				case 2:
					lo := min(i, len(images)-window)
					preds, err := c.PredictBatch(images[lo : lo+window])
					if err != nil {
						errs <- err
						return
					}
					scores, err := c.Scores(images[lo : lo+window])
					if err != nil {
						errs <- err
						return
					}
					for j, p := range preds {
						if p != wantPred[lo+j] || !sameBits(scores.Row(j), wantProbs[lo+j]) {
							errs <- fmt.Errorf("goroutine %d batch image %d: %d %v; serial %d %v",
								g, lo+j, p, scores.Row(j), wantPred[lo+j], wantProbs[lo+j])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
