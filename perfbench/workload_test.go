package main

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"elevprivacy"
)

// seeds are the two workload seeds the tests compare.
var seeds = [2]int64{1, 2}

func envFor(t *testing.T, seed int64) *runEnv {
	return &runEnv{workload: "test", seed: seed, seconds: time.Second, work: t.TempDir(), rep: newReport()}
}

// TestSeedsChangeAttackInputs: two workload seeds give the attack
// workloads different datasets, and both pass the traced-equals-untraced
// check and the single-versus-batch label check.
func TestSeedsChangeAttackInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every attack twice per seed")
	}
	for _, w := range []struct {
		name string
		wl   attackWorkload
	}{
		{"tm3-text", attackWorkload{build: tm3Dataset, facade: tm3Facade, layers: tm3Layers}},
		{"tm1-image", attackWorkload{build: tm1Dataset, facade: tm1Facade, layers: func(ctx context.Context, d *elevprivacy.Dataset, seed int64) (*attackOut, error) {
			return tm1Layers(ctx, d, seed, &cnnWork{})
		}}},
	} {
		t.Run(w.name, func(t *testing.T) {
			var first *elevprivacy.Dataset
			for _, seed := range seeds {
				unitSeed := envFor(t, seed).unitSeed(0)
				d, err := w.wl.build(unitSeed)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = d
				} else if reflect.DeepEqual(first.Samples, d.Samples) {
					t.Fatalf("seeds %v build the same dataset", seeds)
				}
				untraced, err := w.wl.facade(d, unitSeed)
				if err != nil {
					t.Fatal(err)
				}
				traced, err := w.wl.layers(context.Background(), d, unitSeed)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(untraced.accuracy, traced.accuracy) || !reflect.DeepEqual(untraced.preds, traced.preds) {
					t.Errorf("seed %d: layer-by-layer path differs from the facade: accuracies %v vs %v",
						seed, traced.accuracy, untraced.accuracy)
				}
				if untraced.mismatch+traced.mismatch != 0 {
					t.Errorf("seed %d: %d single-profile labels differ from the batch", seed, untraced.mismatch+traced.mismatch)
				}
			}
		})
	}
}

func TestSeedsChangeMineInputs(t *testing.T) {
	var baselines [][]byte
	for _, seed := range seeds {
		st, err := newMineSetup(envFor(t, seed).unitSeed(0))
		if err != nil {
			t.Fatal(err)
		}
		u, err := runMineUnit(context.Background(), st, 0, &mineSamplesSet{})
		if err != nil {
			t.Fatal(err)
		}
		if u.identical != 2 {
			t.Errorf("seed %d: %d of 2 pooled sweeps match the single-endpoint sweep", seed, u.identical)
		}
		baselines = append(baselines, st.baseline)
	}
	if bytes.Equal(baselines[0], baselines[1]) {
		t.Errorf("seeds %v mine the same segments", seeds)
	}
}

func TestSeedsChangeLiveInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the live attack three times per seed")
	}
	var firsts [][]byte
	for _, seed := range seeds {
		env := envFor(t, seed)
		st, _, err := newLiveSetup(env)
		if err != nil {
			t.Fatal(err)
		}
		firsts = append(firsts, st.lines[0])
		ph, err := runPhase(env, st, "test", 100, 500*time.Millisecond, st.facade(0))
		if err != nil {
			t.Fatal(err)
		}
		if ph.offered == 0 || ph.wrong+ph.missing+ph.shed != 0 || ph.stats.Results != ph.offered {
			t.Errorf("seed %d: offered %d, wrong %d, missing %d, shed %d, results %d",
				seed, ph.offered, ph.wrong, ph.missing, ph.shed, ph.stats.Results)
		}
	}
	if bytes.Equal(firsts[0], firsts[1]) {
		t.Errorf("seeds %v generate the same firehose", seeds)
	}
}

// TestResultLine runs the cheapest workload through the command, untraced
// and traced, and checks the last line's shape.
func TestResultLine(t *testing.T) {
	for trace, names := range [][]string{endToEndMetrics, perLayerMetrics} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "mine-sweep", "--seed", "3", "--seconds", "0.2",
			"--trace", []string{"0", "1"}[trace], "--out-dir", t.TempDir()}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %d: last line: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(names) {
			t.Errorf("trace %d: result %+v", trace, res)
		}
		for _, n := range names {
			if _, ok := res.Metrics[n]; !ok {
				t.Errorf("trace %d: metric %s missing", trace, n)
			}
		}
	}
}
