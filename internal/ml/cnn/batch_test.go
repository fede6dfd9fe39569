package cnn

import (
	"runtime"
	"testing"
)

// TestPredictBatchMatchesPredict pins the batch contract: the im2col batch
// forward (chunked patch matmul + matrix FC head) must be bit-identical to
// the serial per-image forward — same predictions, same probabilities.
func TestPredictBatchMatchesPredict(t *testing.T) {
	images, labels := syntheticImages(3, 4, 7)
	c, err := New(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.TrainEpochs(images, labels, 2); err != nil {
		t.Fatal(err)
	}

	batch, err := c.PredictBatch(images)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := c.Scores(images)
	if err != nil {
		t.Fatal(err)
	}
	for i, im := range images {
		want, err := c.Predict(im)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != want {
			t.Errorf("image %d: batch %d, serial %d", i, batch[i], want)
		}
		probs, err := c.Probabilities(im)
		if err != nil {
			t.Fatal(err)
		}
		for k, p := range probs {
			if scores.At(i, k) != p {
				t.Errorf("image %d prob %d: batch %g, serial %g", i, k, scores.At(i, k), p)
			}
		}
	}
}

// TestPredictBatchSpansChunks scores a batch several times larger than
// the goroutine count at GOMAXPROCS 1 through 4, so every worker serves
// many images from one pooled workspace.
func TestPredictBatchSpansChunks(t *testing.T) {
	if testing.Short() {
		t.Skip("renders 38 images")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	images, labels := syntheticImages(2, 19, 8)
	c, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.TrainEpochs(images, labels, 1); err != nil {
		t.Fatal(err)
	}
	for procs := 1; procs <= 4; procs++ {
		runtime.GOMAXPROCS(procs)
		batch, err := c.PredictBatch(images)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(images) {
			t.Fatalf("batch returned %d predictions for %d images", len(batch), len(images))
		}
		for i, im := range images {
			want, err := c.Predict(im)
			if err != nil {
				t.Fatal(err)
			}
			if batch[i] != want {
				t.Errorf("GOMAXPROCS=%d image %d: batch %d, serial %d", procs, i, batch[i], want)
			}
		}
	}
}

func TestPredictBatchValidation(t *testing.T) {
	c, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PredictBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
}
