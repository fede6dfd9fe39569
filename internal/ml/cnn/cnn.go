// Package cnn implements the paper's convolutional network (Fig. 7): two
// 5×5 stride-1 pad-2 convolutions, each followed by ReLU and 2×2 max
// pooling (32×32 → 16×16 → 8×8), then a fully connected softmax layer,
// trained with (optionally class-weighted) cross-entropy loss and Adam.
//
// The model supports warm-started re-training (TrainEpochs) and a mutable
// learning rate, which is what the paper's round-based fine-tuning strategy
// (Figs. 10-11) needs.
package cnn

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"elevprivacy/internal/imagerep"
	"elevprivacy/internal/ml"
	"elevprivacy/internal/ml/linalg"
	"elevprivacy/internal/obs"
)

// Config describes the network and training regime.
type Config struct {
	// Classes is the number of output classes.
	Classes int
	// InChannels and InSize describe the input (3×32×32 by default).
	InChannels int
	InSize     int
	// Conv1 and Conv2 are the two convolution widths (output channels).
	Conv1 int
	Conv2 int
	// Epochs is the default training pass count used by Fit.
	Epochs int
	// BatchSize is the minibatch size.
	BatchSize int
	// LearningRate is Adam's step size.
	LearningRate float64
	// ClassWeights, when non-nil (length Classes), weights each class's
	// loss — the paper's weighted-loss strategy for unbalanced data, with
	// weights inversely proportional to class sample counts.
	ClassWeights []float64
	// Seed drives initialization and shuffling.
	Seed int64
}

// DefaultConfig returns the architecture used in the experiments: the
// paper's kernel/stride/padding with compact channel widths.
func DefaultConfig(classes int) Config {
	return Config{
		Classes:      classes,
		InChannels:   3,
		InSize:       32,
		Conv1:        8,
		Conv2:        16,
		Epochs:       15,
		BatchSize:    16,
		LearningRate: 1e-3,
		Seed:         1,
	}
}

const (
	kernel = 5 // paper: kernel size 5
	pad    = 2 // paper: padding 2 (stride fixed at 1)
)

// CNN is the network. All parameters live in one flat vector driven by a
// single Adam instance. A CNN is safe for concurrent inference (Predict,
// Probabilities, PredictBatch, Scores); training must not overlap it.
type CNN struct {
	cfg Config

	// Derived sizes.
	size1 int // feature map side after pool1
	size2 int // feature map side after pool2
	fcIn  int // flattened input to the FC layer

	params []float64
	adam   *linalg.Adam

	// The two convolutions, and the FC weight and bias offsets.
	l1, l2 convLayer
	wf, bf int

	// pool recycles inference workspaces across calls and goroutines.
	pool sync.Pool
}

// New validates the config and allocates an initialized network.
func New(cfg Config) (*CNN, error) {
	if cfg.InChannels == 0 {
		cfg.InChannels = 3
	}
	if cfg.InSize == 0 {
		cfg.InSize = 32
	}
	switch {
	case cfg.Classes < 2:
		return nil, fmt.Errorf("cnn: need >= 2 classes, got %d", cfg.Classes)
	case cfg.Conv1 < 1 || cfg.Conv2 < 1:
		return nil, fmt.Errorf("cnn: conv widths %d/%d", cfg.Conv1, cfg.Conv2)
	case cfg.InSize%4 != 0:
		return nil, fmt.Errorf("cnn: input size %d not divisible by the two 2x2 pools", cfg.InSize)
	case cfg.Epochs < 1:
		return nil, fmt.Errorf("cnn: epochs %d", cfg.Epochs)
	case cfg.BatchSize < 1:
		return nil, fmt.Errorf("cnn: batch size %d", cfg.BatchSize)
	case cfg.LearningRate <= 0:
		return nil, fmt.Errorf("cnn: learning rate %g", cfg.LearningRate)
	case cfg.ClassWeights != nil && len(cfg.ClassWeights) != cfg.Classes:
		return nil, fmt.Errorf("cnn: %d class weights for %d classes", len(cfg.ClassWeights), cfg.Classes)
	}

	c := &CNN{cfg: cfg}
	c.size1 = cfg.InSize / 2
	c.size2 = cfg.InSize / 4
	c.fcIn = cfg.Conv2 * c.size2 * c.size2

	k2 := kernel * kernel
	n1 := cfg.Conv1 * cfg.InChannels * k2
	n2 := cfg.Conv2 * cfg.Conv1 * k2
	nf := cfg.Classes * c.fcIn

	c.l1 = convLayer{inCh: cfg.InChannels, outCh: cfg.Conv1, size: cfg.InSize, w: 0, b: n1}
	c.l2 = convLayer{inCh: cfg.Conv1, outCh: cfg.Conv2, size: c.size1, w: c.l1.b + cfg.Conv1}
	c.l2.b = c.l2.w + n2
	c.wf = c.l2.b + cfg.Conv2
	c.bf = c.wf + nf
	c.params = make([]float64, c.bf+cfg.Classes)

	adam, err := linalg.NewAdam(len(c.params), cfg.LearningRate)
	if err != nil {
		return nil, err
	}
	c.adam = adam
	c.initParams()
	return c, nil
}

// initParams redraws every weight from cfg.Seed (He-normal, biases zero)
// and resets the Adam moments — the state of a freshly constructed
// network. New calls it once; Fit calls it again so refitting a used
// model is bit-identical to fitting a fresh one.
func (c *CNN) initParams() {
	linalg.Zero(c.params)
	k2 := kernel * kernel
	n1 := c.cfg.Conv1 * c.cfg.InChannels * k2
	n2 := c.cfg.Conv2 * c.cfg.Conv1 * k2
	nf := c.cfg.Classes * c.fcIn

	rng := rand.New(rand.NewSource(c.cfg.Seed))
	heInit(c.params[c.l1.w:c.l1.w+n1], c.cfg.InChannels*k2, rng)
	heInit(c.params[c.l2.w:c.l2.w+n2], c.cfg.Conv1*k2, rng)
	heInit(c.params[c.wf:c.wf+nf], c.fcIn, rng)
	c.adam.Reset()
}

// heInit fills w with He-normal values for the given fan-in.
func heInit(w []float64, fanIn int, rng *rand.Rand) {
	scale := math.Sqrt(2 / float64(fanIn))
	for i := range w {
		w[i] = rng.NormFloat64() * scale
	}
}

// SetLearningRate changes Adam's step size (fine-tuning rounds lower it).
func (c *CNN) SetLearningRate(lr float64) error {
	if lr <= 0 {
		return fmt.Errorf("cnn: learning rate %g", lr)
	}
	c.adam.LR = lr
	return nil
}

// SetClassWeights replaces the loss weighting (nil disables weighting).
func (c *CNN) SetClassWeights(w []float64) error {
	if w != nil && len(w) != c.cfg.Classes {
		return fmt.Errorf("cnn: %d class weights for %d classes", len(w), c.cfg.Classes)
	}
	c.cfg.ClassWeights = w
	return nil
}

// Classes returns the output dimensionality.
func (c *CNN) Classes() int { return c.cfg.Classes }

// validateImages checks a training batch.
func (c *CNN) validateImages(images []*imagerep.Image, labels []int) error {
	if len(images) == 0 {
		return fmt.Errorf("cnn: empty training set")
	}
	if len(images) != len(labels) {
		return fmt.Errorf("cnn: %d images but %d labels", len(images), len(labels))
	}
	for i, im := range images {
		if err := c.validateImage(i, im); err != nil {
			return err
		}
		if labels[i] < 0 || labels[i] >= c.cfg.Classes {
			return fmt.Errorf("cnn: label %d of image %d outside [0,%d)", labels[i], i, c.cfg.Classes)
		}
	}
	return nil
}

// validateImage checks image i's shape against the model's input.
func (c *CNN) validateImage(i int, im *imagerep.Image) error {
	if im == nil {
		return fmt.Errorf("cnn: image %d is nil", i)
	}
	if im.Channels != c.cfg.InChannels || im.Height != c.cfg.InSize || im.Width != c.cfg.InSize {
		return fmt.Errorf("cnn: image %d has shape %dx%dx%d, model expects %dx%dx%d",
			i, im.Channels, im.Height, im.Width, c.cfg.InChannels, c.cfg.InSize, c.cfg.InSize)
	}
	return nil
}

// Fit trains for the configured epoch count from a fresh initialization:
// parameters are redrawn from cfg.Seed and the Adam moments reset, so
// refitting a used model is bit-identical to fitting a fresh one. Use
// TrainEpochs to warm-start (fine-tuning rounds).
func (c *CNN) Fit(images []*imagerep.Image, labels []int) error {
	c.initParams()
	return c.TrainEpochs(images, labels, c.cfg.Epochs)
}

// TrainEpochs runs the given number of passes, warm-starting from the
// current parameters — the primitive the fine-tuning rounds build on.
// Each minibatch's gradient is computed in parallel, first across samples
// and then across gradient rows, with every sum in a fixed order: the
// trained parameters are bit-identical at every GOMAXPROCS.
func (c *CNN) TrainEpochs(images []*imagerep.Image, labels []int, epochs int) error {
	if err := c.validateImages(images, labels); err != nil {
		return err
	}
	if epochs < 1 {
		return fmt.Errorf("cnn: epochs %d", epochs)
	}

	rng := rand.New(rand.NewSource(c.cfg.Seed + 17))
	n := len(images)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	t := c.newTrainer()
	parts := [][]float64{t.grads}

	for epoch := 0; epoch < epochs; epoch++ {
		epochStart := time.Now()
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < n; start += c.cfg.BatchSize {
			end := min(start+c.cfg.BatchSize, n)
			weightTotal := t.gradient(images, labels, order[start:end])
			scale := 1.0
			if weightTotal > 0 {
				scale = 1 / weightTotal
			}
			stepStart := time.Now()
			c.adam.StepSum(c.params, parts, scale)
			adamStepSeconds.ObserveSince(stepStart)
		}
		epochSeconds.ObserveSince(epochStart)
	}
	return nil
}

// Training telemetry: per-epoch wall time and the Adam update's share of it
// (the update is the serial section between the parallel gradient phases,
// so its histogram shows when it becomes the bottleneck).
var (
	epochSeconds    = obs.GetHistogram(`elevpriv_ml_epoch_seconds{model="cnn"}`, nil)
	adamStepSeconds = obs.GetHistogram(`elevpriv_ml_adam_step_seconds{model="cnn"}`, nil)
)

// Predict returns the most probable class for one image.
func (c *CNN) Predict(im *imagerep.Image) (int, error) {
	if err := c.validateImage(0, im); err != nil {
		return 0, err
	}
	st := c.getInference()
	c.forward(&st.ws, &st.a, im)
	best := linalg.ArgMax(st.a.probs)
	c.pool.Put(st)
	return best, nil
}

// Probabilities returns the softmax distribution for one image.
func (c *CNN) Probabilities(im *imagerep.Image) ([]float64, error) {
	if err := c.validateImage(0, im); err != nil {
		return nil, err
	}
	st := c.getInference()
	c.forward(&st.ws, &st.a, im)
	out := append([]float64(nil), st.a.probs...)
	c.pool.Put(st)
	return out, nil
}

// savedConfig is the persisted CNN description.
type savedConfig struct {
	Config Config `json:"config"`
}

// Save serializes the trained network (architecture + parameters). The
// optimizer's moment estimates are not saved; a loaded model predicts
// immediately and fine-tunes with fresh Adam state.
func (c *CNN) Save(w io.Writer) error {
	cfgJSON, err := json.Marshal(savedConfig{Config: c.cfg})
	if err != nil {
		return fmt.Errorf("cnn: marshaling config: %w", err)
	}
	return ml.WriteModel(w, ml.Header{Kind: "cnn", Config: cfgJSON}, c.params)
}

// Load reconstructs a saved network.
func Load(r io.Reader) (*CNN, error) {
	h, blocks, err := ml.ReadModel(r)
	if err != nil {
		return nil, err
	}
	if h.Kind != "cnn" {
		return nil, fmt.Errorf("cnn: file holds a %q model", h.Kind)
	}
	var sc savedConfig
	if err := json.Unmarshal(h.Config, &sc); err != nil {
		return nil, fmt.Errorf("cnn: parsing config: %w", err)
	}
	c, err := New(sc.Config)
	if err != nil {
		return nil, err
	}
	if len(blocks) != 1 || len(blocks[0]) != len(c.params) {
		return nil, fmt.Errorf("cnn: parameter block mismatch (%d blocks)", len(blocks))
	}
	copy(c.params, blocks[0])
	return c, nil
}
