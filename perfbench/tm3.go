package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"elevprivacy"
	"elevprivacy/internal/eval"
	"elevprivacy/internal/ml"
	"elevprivacy/internal/textrep"
)

// The tm3-text workload is the Table V protocol on the ten-city dataset:
// k-fold cross-validation of the three text classifiers, then one attack
// per classifier trained on a stratified split and queried on the
// held-out profiles, in one batch and one profile at a time.
const (
	tm3Scale          = 0.02 // Table II class sizes × this
	tm3ProfileSamples = 40
	tm3MinPerClass    = 8
	tm3Folds          = 4
	tm3MaxFeatures    = 1024
	heldOutFrac       = 0.2
	tm3QueryPasses    = 5
)

var tm3Kinds = []elevprivacy.ClassifierKind{
	elevprivacy.ClassifierSVM, elevprivacy.ClassifierRandomForest, elevprivacy.ClassifierMLP,
}

func tm3Dataset(seed int64) (*elevprivacy.Dataset, error) {
	return elevprivacy.NewCityLevelDataset(elevprivacy.DatasetConfig{
		Scale:          tm3Scale,
		ProfileSamples: tm3ProfileSamples,
		MinPerClass:    tm3MinPerClass,
		Seed:           seed,
	})
}

func tm3Config(kind elevprivacy.ClassifierKind, seed int64) elevprivacy.TextAttackConfig {
	cfg := elevprivacy.DefaultTextAttackConfig(kind)
	cfg.MaxFeatures = tm3MaxFeatures
	cfg.Seed = seed
	return cfg
}

// heldOut splits d the way the image evaluation does: stratified, with the
// split drawn from the unit seed.
func heldOut(d *elevprivacy.Dataset, seed int64) (train, test *elevprivacy.Dataset, err error) {
	return d.SplitStratified(heldOutFrac, rand.New(rand.NewSource(seed+41)))
}

// attackOut is what one unit of an attack workload produced; the traced
// and untraced paths must produce identical ones.
type attackOut struct {
	accuracy []float64  // per model: cross-validated (text) or held-out (image)
	preds    [][]string // per model: batch labels of the held-out profiles
	latency  []float64  // single-profile query latencies, ms
	queries  int        // single-profile queries made
	mismatch int        // single-profile labels that differ from the batch label
}

// querySet is one trained model's single-profile queries.
type querySet struct {
	predict     func([]float64) (string, error)
	test, train *elevprivacy.Dataset
	batch       []string // the model's batch labels of the held-out profiles
}

// querySingles asks each set's model about every held-out profile and then
// every training profile, one at a time, passes times over. A pass goes
// through every set in turn, so the repetitions of one query lie a pass of
// the other models apart. A query's latency is the fastest of its passes:
// a pass that a slow moment of the shared host or a GC cycle hit measures
// the machine, not the query. The held-out answers must equal the batch
// labels on every pass.
func (o *attackOut) querySingles(passes int, sets []querySet) error {
	best := make([][]float64, len(sets))
	for p := 0; p < passes; p++ {
		for q, qs := range sets {
			k := 0
			for _, part := range []*elevprivacy.Dataset{qs.test, qs.train} {
				for j := range part.Samples {
					t0 := time.Now()
					label, err := qs.predict(part.Samples[j].Elevations)
					if err != nil {
						return fmt.Errorf("single query: %w", err)
					}
					if d := ms(time.Since(t0)); p == 0 {
						best[q] = append(best[q], d)
					} else if d < best[q][k] {
						best[q][k] = d
					}
					k++
					o.queries++
					if part == qs.test && label != qs.batch[j] {
						o.mismatch++
					}
				}
			}
		}
	}
	for _, b := range best {
		o.latency = append(o.latency, b...)
	}
	return nil
}

func signalsOf(d *elevprivacy.Dataset) (signals [][]float64, labels []string) {
	for i := range d.Samples {
		signals = append(signals, d.Samples[i].Elevations)
		labels = append(labels, d.Samples[i].Label)
	}
	return signals, labels
}

// tm3Facade runs one unit through the public facade.
func tm3Facade(d *elevprivacy.Dataset, seed int64) (*attackOut, error) {
	out := &attackOut{}
	for _, kind := range tm3Kinds {
		m, err := elevprivacy.CrossValidateText(d, tm3Config(kind, seed), tm3Folds)
		if err != nil {
			return nil, fmt.Errorf("cross-validating %s: %w", kind, err)
		}
		out.accuracy = append(out.accuracy, m.Accuracy)
		probe.samples(attackProbes)
	}
	train, test, err := heldOut(d, seed)
	if err != nil {
		return nil, err
	}
	testSignals, _ := signalsOf(test)
	var sets []querySet
	for _, kind := range tm3Kinds {
		attack, err := elevprivacy.TrainTextAttack(train, tm3Config(kind, seed))
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", kind, err)
		}
		preds, err := attack.PredictLocations(testSignals)
		if err != nil {
			return nil, err
		}
		out.preds = append(out.preds, preds)
		sets = append(sets, querySet{attack.PredictLocation, test, train, preds})
		probe.samples(attackProbes)
	}
	if err := out.querySingles(tm3QueryPasses, sets); err != nil {
		return nil, err
	}
	return out, nil
}

// tm3Layers runs the same unit layer by layer, with a span around every
// layer call: the composition of CrossValidateText, TrainTextAttack and
// PredictLocations, spelled out.
func tm3Layers(ctx context.Context, d *elevprivacy.Dataset, seed int64) (*attackOut, error) {
	out := &attackOut{}
	signals, names := signalsOf(d)
	for _, kind := range tm3Kinds {
		cfg := tm3Config(kind, seed)
		pipe, enc, y, err := textLayers(ctx, signals, names, cfg)
		if err != nil {
			return nil, err
		}
		_, s := span(ctx, "textrep.featurize")
		sp := pipe.FeaturesAllSparse(signals)
		s.End()
		cvCtx, s := span(ctx, "eval.cv")
		m, err := eval.CrossValidateSparse(sp, y, enc.Len(), tm3Folds, cfg.Seed, func() (ml.Classifier, error) {
			c, err := newTextClassifier(cfg, enc.Len())
			if err != nil {
				return nil, err
			}
			return traced(cvCtx, kind, c)
		})
		s.End()
		if err != nil {
			return nil, fmt.Errorf("cross-validating %s: %w", kind, err)
		}
		out.accuracy = append(out.accuracy, m.Accuracy)
	}

	train, test, err := heldOut(d, seed)
	if err != nil {
		return nil, err
	}
	trainSignals, trainNames := signalsOf(train)
	testSignals, _ := signalsOf(test)
	var sets []querySet
	for _, kind := range tm3Kinds {
		cfg := tm3Config(kind, seed)
		pipe, enc, y, err := textLayers(ctx, trainSignals, trainNames, cfg)
		if err != nil {
			return nil, err
		}
		model, err := newTextClassifier(cfg, enc.Len())
		if err != nil {
			return nil, err
		}
		tm, err := traced(ctx, kind, model)
		if err != nil {
			return nil, err
		}
		_, s := span(ctx, "textrep.featurize")
		x := pipe.FeaturesAll(trainSignals).RowSlices()
		s.End()
		if err := tm.Fit(x, y); err != nil {
			return nil, fmt.Errorf("training %s: %w", kind, err)
		}

		_, s = span(ctx, "textrep.featurize")
		testX := pipe.FeaturesAllSparse(testSignals)
		s.End()
		idx, err := tm.(ml.SparseBatchClassifier).PredictBatchSparse(testX)
		if err != nil {
			return nil, err
		}
		preds, err := decodeAll(enc, idx)
		if err != nil {
			return nil, err
		}
		out.preds = append(out.preds, preds)

		sets = append(sets, querySet{func(e []float64) (string, error) {
			i, err := model.Predict(pipe.Features(e))
			if err != nil {
				return "", err
			}
			return enc.Decode(i)
		}, test, train, preds})
	}
	_, s := span(ctx, "query.single")
	err = out.querySingles(tm3QueryPasses, sets)
	s.End()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// textLayers builds the vocabulary (under a span) and encodes the labels.
func textLayers(ctx context.Context, signals [][]float64, names []string, cfg elevprivacy.TextAttackConfig) (*textrep.Pipeline, *ml.LabelEncoder, []int, error) {
	_, s := span(ctx, "textrep.vocab")
	pipe, err := textrep.NewPipeline(signals, textrep.PipelineConfig{
		Precision:    cfg.Precision,
		Alphabet:     textrep.DefaultAlphabet,
		NGram:        cfg.NGram,
		MinFrequency: cfg.MinFrequency,
		MaxFeatures:  cfg.MaxFeatures,
	})
	s.End()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("text pipeline: %w", err)
	}
	enc, err := ml.NewLabelEncoder(names)
	if err != nil {
		return nil, nil, nil, err
	}
	y, err := enc.EncodeAll(names)
	if err != nil {
		return nil, nil, nil, err
	}
	return pipe, enc, y, nil
}

func decodeAll(enc *ml.LabelEncoder, idx []int) ([]string, error) {
	out := make([]string, len(idx))
	for i, k := range idx {
		var err error
		if out[i], err = enc.Decode(k); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func runTM3Text(env *runEnv) error {
	return runAttack(env, attackWorkload{
		build:  tm3Dataset,
		facade: tm3Facade,
		layers: tm3Layers,
		layerMetrics: func(rep *report, rows map[string]layerRow, units int, outs []*attackOut, profiles int) {
			for _, name := range []string{"textrep.vocab", "textrep.featurize", "eval.cv", "ml.mlp.predict"} {
				rep.set(name+"_s", layerSeconds(rows, name, units))
			}
			rep.set("eval.self_s", rows["eval.cv"].self.Seconds()/float64(units))
			if f := rows["textrep.featurize"].busy.Seconds(); f > 0 {
				// Every featurize call covers the unit's profiles once per
				// model and purpose: CV over all, training and held-out.
				rep.set("textrep.profiles_per_s", float64(2*len(tm3Kinds)*profiles*units)/f)
			}
			for k, kind := range tm3Kinds {
				layer := "ml." + layerName(kind)
				rep.set(layer+".fit_s", layerSeconds(rows, layer+".fit", units))
				rep.set(layer+".fits", float64(rows[layer+".fit"].spans)/float64(units))
				var accs []float64
				for _, o := range outs {
					accs = append(accs, o.accuracy[k])
				}
				rep.set(layer+".accuracy", mean(accs))
			}
		},
	})
}
