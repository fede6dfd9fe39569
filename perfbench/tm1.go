package main

import (
	"context"
	"fmt"
	"math/rand"

	"elevprivacy"
	"elevprivacy/internal/eval"
	"elevprivacy/internal/imagerep"
	"elevprivacy/internal/ml"
	"elevprivacy/internal/ml/cnn"
)

// The tm1-image workload is the TM-1 user-specific dataset through the
// image attack's evaluation protocol (EvaluateImageAttack: stratified
// split, train, batch-score the held-out profiles) in weighted and
// fine-tune modes, followed by single-profile queries.
const (
	tm1Scale          = 0.16 // Table I class sizes × this
	tm1ProfileSamples = 40
	tm1MinPerClass    = 8
	tm1Epochs         = 3
	tm1QueryPasses    = 4
)

var tm1Modes = []elevprivacy.TrainMode{elevprivacy.TrainWeighted, elevprivacy.TrainFineTune}

func tm1Dataset(seed int64) (*elevprivacy.Dataset, error) {
	return elevprivacy.NewUserSpecificDataset(elevprivacy.DatasetConfig{
		Scale:          tm1Scale,
		ProfileSamples: tm1ProfileSamples,
		MinPerClass:    tm1MinPerClass,
		Seed:           seed,
	})
}

func tm1Config(mode elevprivacy.TrainMode, seed int64) elevprivacy.ImageAttackConfig {
	cfg := elevprivacy.DefaultImageAttackConfig(mode)
	cfg.Epochs = tm1Epochs
	cfg.Seed = seed
	return cfg
}

// tm1Facade runs one unit through the public facade: what
// EvaluateImageAttack does, with the trained attack kept for the
// single-profile queries.
func tm1Facade(d *elevprivacy.Dataset, seed int64) (*attackOut, error) {
	out := &attackOut{}
	var sets []querySet
	for _, mode := range tm1Modes {
		cfg := tm1Config(mode, seed)
		train, test, err := d.SplitStratified(heldOutFrac, rand.New(rand.NewSource(cfg.Seed+41)))
		if err != nil {
			return nil, err
		}
		attack, err := elevprivacy.TrainImageAttack(train, cfg)
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", mode, err)
		}
		probe.samples(attackProbes)
		m, err := attack.Evaluate(test)
		if err != nil {
			return nil, err
		}
		out.accuracy = append(out.accuracy, m.Accuracy)
		testSignals, _ := signalsOf(test)
		preds, err := attack.PredictLocations(testSignals)
		if err != nil {
			return nil, err
		}
		out.preds = append(out.preds, preds)
		sets = append(sets, querySet{attack.PredictLocation, test, train, preds})
	}
	if err := out.querySingles(tm1QueryPasses, sets); err != nil {
		return nil, err
	}
	return out, nil
}

// cnnWork counts the samples the traced CNN fits pass over, for
// ml.cnn.sample_epochs_per_s.
type cnnWork struct{ sampleEpochs int }

// tm1Layers runs the same unit layer by layer under spans: the
// composition of TrainImageAttack (render, fit or fine-tune rounds) and
// Evaluate (render, batch predict, confusion matrix), spelled out.
func tm1Layers(ctx context.Context, d *elevprivacy.Dataset, seed int64, work *cnnWork) (*attackOut, error) {
	out := &attackOut{}
	var sets []querySet
	for _, mode := range tm1Modes {
		cfg := tm1Config(mode, seed)
		train, test, err := d.SplitStratified(heldOutFrac, rand.New(rand.NewSource(cfg.Seed+41)))
		if err != nil {
			return nil, err
		}
		signals, names := signalsOf(train)
		enc, err := ml.NewLabelEncoder(names)
		if err != nil {
			return nil, err
		}
		y, err := enc.EncodeAll(names)
		if err != nil {
			return nil, err
		}
		images, err := render(ctx, signals, cfg.Render)
		if err != nil {
			return nil, err
		}
		netCfg := cnn.DefaultConfig(enc.Len())
		netCfg.Epochs = cfg.Epochs
		netCfg.LearningRate = cfg.LearningRate
		netCfg.Seed = cfg.Seed
		netCfg.InSize = cfg.Render.Width
		if mode == elevprivacy.TrainWeighted {
			if netCfg.ClassWeights, err = eval.InverseClassWeights(y, enc.Len()); err != nil {
				return nil, err
			}
		}
		net, err := cnn.New(netCfg)
		if err != nil {
			return nil, err
		}
		if mode == elevprivacy.TrainFineTune {
			err = fineTune(ctx, net, train, images, y, cfg, work)
		} else {
			_, s := span(ctx, "ml.cnn.fit")
			err = net.Fit(images, y)
			s.End()
			work.sampleEpochs += len(images) * cfg.Epochs
		}
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", mode, err)
		}

		testSignals, testNames := signalsOf(test)
		testImages, err := render(ctx, testSignals, cfg.Render)
		if err != nil {
			return nil, err
		}
		_, s := span(ctx, "ml.cnn.predict")
		idx, err := net.PredictBatch(testImages)
		s.End()
		if err != nil {
			return nil, err
		}
		preds, err := decodeAll(enc, idx)
		if err != nil {
			return nil, err
		}
		_, s = span(ctx, "eval.score")
		cm, err := eval.NewConfusionMatrix(enc.Len())
		for i := 0; err == nil && i < len(testNames); i++ {
			var actual, pred int
			if actual, err = enc.Encode(testNames[i]); err == nil {
				if pred, err = enc.Encode(preds[i]); err == nil {
					err = cm.Add(actual, pred)
				}
			}
		}
		s.End()
		if err != nil {
			return nil, err
		}
		out.accuracy = append(out.accuracy, cm.Metrics().Accuracy)
		out.preds = append(out.preds, preds)

		sets = append(sets, querySet{func(e []float64) (string, error) {
			im, err := imagerep.Render(e, cfg.Render)
			if err != nil {
				return "", err
			}
			i, err := net.Predict(im)
			if err != nil {
				return "", err
			}
			return enc.Decode(i)
		}, test, train, preds})
	}
	_, s := span(ctx, "query.single")
	err := out.querySingles(tm1QueryPasses, sets)
	s.End()
	if err != nil {
		return nil, err
	}
	return out, nil
}

func render(ctx context.Context, signals [][]float64, cfg imagerep.Config) ([]*imagerep.Image, error) {
	_, s := span(ctx, "imagerep.render")
	defer s.End()
	batch, err := imagerep.RenderBatch(signals, cfg)
	if err != nil {
		return nil, fmt.Errorf("rendering: %w", err)
	}
	return batch.Images(), nil
}

// fineTune is the facade's round schedule: balanced rounds over more and
// more classes, each warm-starting from the last, with a lower learning
// rate on the final all-classes round. Each round is one fit span.
func fineTune(ctx context.Context, net *cnn.CNN, d *elevprivacy.Dataset, images []*imagerep.Image, y []int, cfg elevprivacy.ImageAttackConfig, work *cnnWork) error {
	rounds, err := eval.PlanRounds(d.CountByLabel(), cfg.MaxRounds)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 23))
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
			if err := net.SetLearningRate(cfg.LearningRate / 3); err != nil {
				return err
			}
		}
		_, s := span(ctx, "ml.cnn.fit")
		err := net.TrainEpochs(roundImages, roundY, cfg.Epochs)
		s.End()
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		work.sampleEpochs += len(roundImages) * cfg.Epochs
	}
	return nil
}

func runTM1Image(env *runEnv) error {
	work := &cnnWork{}
	return runAttack(env, attackWorkload{
		build:  tm1Dataset,
		facade: tm1Facade,
		layers: func(ctx context.Context, d *elevprivacy.Dataset, seed int64) (*attackOut, error) {
			return tm1Layers(ctx, d, seed, work)
		},
		layerMetrics: func(rep *report, rows map[string]layerRow, units int, outs []*attackOut, profiles int) {
			for _, name := range []string{"imagerep.render", "ml.cnn.fit", "ml.cnn.predict"} {
				rep.set(name+"_s", layerSeconds(rows, name, units))
			}
			if r := rows["imagerep.render"].busy.Seconds(); r > 0 {
				// Each mode renders its training and held-out profiles once.
				rep.set("imagerep.images_per_s", float64(len(tm1Modes)*profiles*units)/r)
			}
			if f := rows["ml.cnn.fit"].busy.Seconds(); f > 0 {
				rep.set("ml.cnn.sample_epochs_per_s", float64(work.sampleEpochs)/f)
			}
			var wl, ft []float64
			for _, o := range outs {
				wl, ft = append(wl, o.accuracy[0]), append(ft, o.accuracy[1])
			}
			rep.set("ml.cnn.accuracy.wl", mean(wl))
			rep.set("ml.cnn.accuracy.ft", mean(ft))
		},
	})
}
