package main

import (
	"context"
	"fmt"

	"elevprivacy"
	"elevprivacy/internal/ml"
	"elevprivacy/internal/ml/forest"
	"elevprivacy/internal/ml/linalg"
	"elevprivacy/internal/ml/mlp"
	"elevprivacy/internal/ml/svm"
	"elevprivacy/internal/obs"
)

// layerName maps a classifier kind to its module name in metric and span
// names.
func layerName(kind elevprivacy.ClassifierKind) string {
	switch kind {
	case elevprivacy.ClassifierRandomForest:
		return "forest"
	default:
		return string(kind)
	}
}

// newTextClassifier builds the model TextAttackConfig selects, with the
// same settings the facade uses, so the traced layer-by-layer path trains
// bit-identical models.
func newTextClassifier(cfg elevprivacy.TextAttackConfig, classes int) (ml.Classifier, error) {
	switch cfg.Classifier {
	case elevprivacy.ClassifierSVM:
		c := svm.DefaultConfig(classes)
		c.Seed = cfg.Seed
		return svm.New(c)
	case elevprivacy.ClassifierRandomForest:
		c := forest.DefaultConfig(classes)
		c.Seed = cfg.Seed
		if cfg.ForestTrees > 0 {
			c.Trees = cfg.ForestTrees
		}
		return forest.New(c)
	case elevprivacy.ClassifierMLP:
		c := mlp.DefaultConfig(classes)
		c.Seed = cfg.Seed
		c.Float32 = cfg.Float32
		return mlp.New(c)
	}
	return nil, fmt.Errorf("unknown classifier %q", cfg.Classifier)
}

// tracedClassifier records an "ml.<kind>.fit" or "ml.<kind>.predict" span
// around every call into the model, parented to the context it was built
// with. It passes every call through unchanged.
type tracedClassifier struct {
	inner  ml.Classifier
	sparse ml.SparseBatchClassifier
	ctx    context.Context
	layer  string
}

// traced wraps c. The wrapper exposes exactly the optional interfaces c
// has, because callers such as eval pick their sparse or dense path by
// type assertion.
func traced(ctx context.Context, kind elevprivacy.ClassifierKind, c ml.Classifier) (ml.Classifier, error) {
	sparse, ok := c.(ml.SparseBatchClassifier)
	if !ok {
		return nil, fmt.Errorf("%s classifier has no sparse batch path", kind)
	}
	t := &tracedClassifier{inner: c, sparse: sparse, ctx: ctx, layer: "ml." + layerName(kind)}
	if st, ok := c.(ml.SparseTrainer); ok {
		return &tracedSparseTrainer{t, st}, nil
	}
	return t, nil
}

func (t *tracedClassifier) start(op string) *obs.Span {
	_, s := span(t.ctx, t.layer+"."+op)
	return s
}

func (t *tracedClassifier) Fit(x [][]float64, y []int) error {
	defer t.start("fit").End()
	return t.inner.Fit(x, y)
}

func (t *tracedClassifier) Predict(x []float64) (int, error) {
	defer t.start("predict").End()
	return t.inner.Predict(x)
}

func (t *tracedClassifier) PredictBatch(x *linalg.Matrix) ([]int, error) {
	defer t.start("predict").End()
	return t.inner.PredictBatch(x)
}

func (t *tracedClassifier) Scores(x *linalg.Matrix) (*linalg.Matrix, error) {
	defer t.start("predict").End()
	return t.inner.Scores(x)
}

func (t *tracedClassifier) PredictBatchSparse(x *linalg.SparseMatrix) ([]int, error) {
	defer t.start("predict").End()
	return t.sparse.PredictBatchSparse(x)
}

func (t *tracedClassifier) ScoresSparse(x *linalg.SparseMatrix) (*linalg.Matrix, error) {
	defer t.start("predict").End()
	return t.sparse.ScoresSparse(x)
}

// tracedSparseTrainer adds the CSR training path for models that have one.
type tracedSparseTrainer struct {
	*tracedClassifier
	st ml.SparseTrainer
}

func (t *tracedSparseTrainer) FitSparse(x *linalg.SparseMatrix, y []int) error {
	defer t.start("fit").End()
	return t.st.FitSparse(x, y)
}
