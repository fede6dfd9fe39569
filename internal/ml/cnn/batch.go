package cnn

import (
	"fmt"
	"runtime"

	"elevprivacy/internal/imagerep"
	"elevprivacy/internal/ml/linalg"
)

// PredictBatch returns the most probable class for every image.
func (c *CNN) PredictBatch(images []*imagerep.Image) ([]int, error) {
	probs, err := c.Scores(images)
	if err != nil {
		return nil, err
	}
	return linalg.ArgMaxRows(probs), nil
}

// Scores returns the softmax class distribution for every image as an
// n×Classes matrix. Images run in parallel, each through the same
// single-image forward as Probabilities on a pooled workspace, so batch
// rows equal per-image Probabilities bit for bit.
func (c *CNN) Scores(images []*imagerep.Image) (*linalg.Matrix, error) {
	if len(images) == 0 {
		return nil, fmt.Errorf("cnn: empty batch")
	}
	for i, im := range images {
		if err := c.validateImage(i, im); err != nil {
			return nil, err
		}
	}
	probs := linalg.NewMatrix(len(images), c.cfg.Classes)
	states := make([]*inference, min(runtime.GOMAXPROCS(0), len(images)))
	for w := range states {
		states[w] = c.getInference()
	}
	parallelFor(len(states), len(images), func(w, i int) {
		st := states[w]
		c.forward(&st.ws, &st.a, images[i])
		copy(probs.Row(i), st.a.probs)
	})
	for _, st := range states {
		c.pool.Put(st)
	}
	return probs, nil
}
