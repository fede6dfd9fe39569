package elevprivacy

import (
	"fmt"
	"math/rand"

	"elevprivacy/internal/dataset"
	"elevprivacy/internal/eval"
	"elevprivacy/internal/imagerep"
	"elevprivacy/internal/ml"
	"elevprivacy/internal/ml/cnn"
)

// TrainMode selects the CNN training strategy for unbalanced datasets
// (paper §IV-B).
type TrainMode string

// The paper's three image-attack training strategies.
const (
	// TrainUnweighted uses the plain loss; on unbalanced data its results
	// are biased toward large classes (the paper reports it for contrast).
	TrainUnweighted TrainMode = "unweighted"
	// TrainWeighted weights the loss inversely to class size.
	TrainWeighted TrainMode = "weighted"
	// TrainFineTune trains through balanced rounds, warm-starting each
	// round from the previous (paper Figs. 10-11).
	TrainFineTune TrainMode = "finetune"
)

// ImageAttackConfig configures an image-like (CNN) attack.
type ImageAttackConfig struct {
	// Mode picks the training strategy.
	Mode TrainMode
	// Epochs is the per-fit (or per-round) epoch budget.
	Epochs int
	// LearningRate is Adam's step size; fine-tuning lowers it on the final
	// all-classes round.
	LearningRate float64
	// MaxRounds caps the fine-tuning schedule.
	MaxRounds int
	// Render controls the image representation; zero value uses the
	// paper's 32×32, 200-point configuration.
	Render imagerep.Config
	// Seed drives initialization, shuffling and round sampling.
	Seed int64
}

// DefaultImageAttackConfig returns the experiment configuration.
func DefaultImageAttackConfig(mode TrainMode) ImageAttackConfig {
	return ImageAttackConfig{
		Mode:         mode,
		Epochs:       12,
		LearningRate: 1e-3,
		MaxRounds:    5,
		Render:       imagerep.DefaultConfig(),
		Seed:         1,
	}
}

// ImageAttack is a trained image-like location-inference attack.
type ImageAttack struct {
	render imagerep.Config
	labels *ml.LabelEncoder
	model  *cnn.CNN
}

// TrainImageAttack renders the dataset and trains the paper's CNN with the
// configured strategy.
func TrainImageAttack(d *Dataset, cfg ImageAttackConfig) (*ImageAttack, error) {
	if cfg.Render.Width == 0 {
		cfg.Render = imagerep.DefaultConfig()
	}
	if cfg.Epochs < 1 {
		return nil, fmt.Errorf("elevprivacy: epochs %d", cfg.Epochs)
	}

	signals, labelNames := signalsAndLabels(d)
	if len(signals) == 0 {
		return nil, fmt.Errorf("elevprivacy: empty dataset")
	}
	enc, err := ml.NewLabelEncoder(labelNames)
	if err != nil {
		return nil, fmt.Errorf("elevprivacy: labels: %w", err)
	}
	y, err := enc.EncodeAll(labelNames)
	if err != nil {
		return nil, err
	}
	// One contiguous matrix-backed batch; training and the fine-tuning
	// rounds index zero-copy views of its rows.
	batch, err := imagerep.RenderBatch(signals, cfg.Render)
	if err != nil {
		return nil, fmt.Errorf("elevprivacy: rendering: %w", err)
	}
	images := batch.Images()

	netCfg := cnn.DefaultConfig(enc.Len())
	netCfg.Epochs = cfg.Epochs
	netCfg.LearningRate = cfg.LearningRate
	netCfg.Seed = cfg.Seed
	netCfg.InSize = cfg.Render.Width

	switch cfg.Mode {
	case TrainWeighted:
		weights, err := eval.InverseClassWeights(y, enc.Len())
		if err != nil {
			return nil, err
		}
		netCfg.ClassWeights = weights
	case TrainUnweighted, TrainFineTune:
		// no loss weighting
	default:
		return nil, fmt.Errorf("elevprivacy: unknown train mode %q", cfg.Mode)
	}

	net, err := cnn.New(netCfg)
	if err != nil {
		return nil, err
	}

	attack := &ImageAttack{render: cfg.Render, labels: enc, model: net}
	if cfg.Mode == TrainFineTune {
		if err := attack.fineTune(d, images, y, cfg); err != nil {
			return nil, err
		}
		return attack, nil
	}
	if err := net.Fit(images, y); err != nil {
		return nil, fmt.Errorf("elevprivacy: training: %w", err)
	}
	return attack, nil
}

// fineTune runs the paper's round schedule: balanced round datasets over
// progressively more classes, each round warm-starting from the last, with
// a reduced learning rate on the final all-classes round.
func (a *ImageAttack) fineTune(d *Dataset, images []*imagerep.Image, y []int, cfg ImageAttackConfig) error {
	rounds, err := eval.PlanRounds(d.CountByLabel(), cfg.MaxRounds)
	if err != nil {
		return fmt.Errorf("elevprivacy: planning rounds: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 23))

	// Index samples by label for balanced round sampling.
	byLabel := map[string][]int{}
	for i := range d.Samples {
		byLabel[d.Samples[i].Label] = append(byLabel[d.Samples[i].Label], i)
	}

	for r, round := range rounds {
		var roundImages []*imagerep.Image
		var roundY []int
		for _, label := range round.Labels {
			idx := byLabel[label]
			perm := rng.Perm(len(idx))
			take := round.PerClass
			if take > len(idx) {
				take = len(idx)
			}
			for _, k := range perm[:take] {
				roundImages = append(roundImages, images[idx[k]])
				roundY = append(roundY, y[idx[k]])
			}
		}
		if r == len(rounds)-1 {
			// Final round includes every class: drop the learning rate to
			// settle into the loss minimum (paper §IV-B).
			if err := a.model.SetLearningRate(cfg.LearningRate / 3); err != nil {
				return err
			}
		}
		if err := a.model.TrainEpochs(roundImages, roundY, cfg.Epochs); err != nil {
			return fmt.Errorf("elevprivacy: round %d: %w", r, err)
		}
	}
	return nil
}

// PredictLocation infers the location label for one elevation profile.
func (a *ImageAttack) PredictLocation(elevations []float64) (string, error) {
	if len(elevations) == 0 {
		return "", fmt.Errorf("elevprivacy: empty elevation profile")
	}
	im, err := imagerep.Render(elevations, a.render)
	if err != nil {
		return "", err
	}
	idx, err := a.model.Predict(im)
	if err != nil {
		return "", err
	}
	return a.labels.Decode(idx)
}

// PredictLocations infers the location label for a batch of elevation
// profiles in one pass: the profiles render into one matrix-backed image
// batch and the CNN scores the images in parallel.
func (a *ImageAttack) PredictLocations(profiles [][]float64) ([]string, error) {
	batch, err := imagerep.RenderBatch(profiles, a.render)
	if err != nil {
		return nil, err
	}
	preds, err := a.model.PredictBatch(batch.Images())
	if err != nil {
		return nil, err
	}
	out := make([]string, len(preds))
	for i, idx := range preds {
		if out[i], err = a.labels.Decode(idx); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Labels returns the class names the attack can predict.
func (a *ImageAttack) Labels() []string { return a.labels.Names() }

// EvaluateImageAttack trains on a stratified split and scores the held-out
// test samples, reproducing the paper's image evaluation protocol (the
// test split is drawn with probability inverse to class size for the
// weighted/unweighted modes via stratification).
func EvaluateImageAttack(d *Dataset, cfg ImageAttackConfig, testFrac float64) (Metrics, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 41))
	train, test, err := splitDataset(d, testFrac, rng)
	if err != nil {
		return Metrics{}, err
	}
	attack, err := TrainImageAttack(train, cfg)
	if err != nil {
		return Metrics{}, err
	}
	return attack.Evaluate(test)
}

// Evaluate scores the attack on a labeled dataset with one batch
// prediction over the rendered test matrix.
func (a *ImageAttack) Evaluate(test *Dataset) (Metrics, error) {
	if test.Len() == 0 {
		return Metrics{}, fmt.Errorf("elevprivacy: empty test set")
	}
	signals, labelNames := signalsAndLabels(test)
	predLabels, err := a.PredictLocations(signals)
	if err != nil {
		return Metrics{}, err
	}
	cm, err := eval.NewConfusionMatrix(a.labels.Len())
	if err != nil {
		return Metrics{}, err
	}
	for i, name := range labelNames {
		actual, err := a.labels.Encode(name)
		if err != nil {
			return Metrics{}, err
		}
		pred, err := a.labels.Encode(predLabels[i])
		if err != nil {
			return Metrics{}, err
		}
		if err := cm.Add(actual, pred); err != nil {
			return Metrics{}, err
		}
	}
	return cm.Metrics(), nil
}

// splitDataset is a thin wrapper over the dataset split that keeps the
// facade signature free of internal types.
func splitDataset(d *Dataset, testFrac float64, rng *rand.Rand) (train, test *Dataset, err error) {
	return (*dataset.Dataset)(d).SplitStratified(testFrac, rng)
}
