package cnn

import (
	"testing"
)

// BenchmarkPredict is single-image inference through the public API:
// one pooled-workspace forward per call.
func BenchmarkPredict(b *testing.B) {
	images, _ := syntheticImages(2, 1, 1)
	c, err := New(DefaultConfig(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Predict(images[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictLoop vs BenchmarkPredictBatch compare per-image serial
// inference with the parallel batch forward over the same image set.
func BenchmarkPredictLoop(b *testing.B) {
	images, _ := syntheticImages(4, 4, 1)
	c, err := New(DefaultConfig(4))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, im := range images {
			if _, err := c.Predict(im); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkPredictBatch(b *testing.B) {
	images, _ := syntheticImages(4, 4, 1)
	c, err := New(DefaultConfig(4))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.PredictBatch(images); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainEpoch(b *testing.B) {
	images, labels := syntheticImages(4, 8, 1)
	c, err := New(DefaultConfig(4))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.TrainEpochs(images, labels, 1); err != nil {
			b.Fatal(err)
		}
	}
}
