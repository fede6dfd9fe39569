package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"elevprivacy"
)

// attackWorkload is a batch attack workload: a dataset per unit of work,
// run once through the facade (untraced) and, in a traced run, once more
// layer by layer under spans.
type attackWorkload struct {
	build  func(seed int64) (*elevprivacy.Dataset, error)
	facade func(d *elevprivacy.Dataset, seed int64) (*attackOut, error)
	layers func(ctx context.Context, d *elevprivacy.Dataset, seed int64) (*attackOut, error)
	// layerMetrics fills the workload's per-layer metrics from the layer
	// table of the traced units and their outputs.
	layerMetrics func(rep *report, rows map[string]layerRow, units int, outs []*attackOut, profiles int)
}

// minUnits is the fewest units a run measures, so medians have a middle.
const minUnits = 3

// attackProbes is how many speed probe samples run at each point of an
// attack unit where the probe is sampled.
const attackProbes = 3

func runAttack(env *runEnv, w attackWorkload) error {
	rep := env.rep
	datasets := make([]*elevprivacy.Dataset, setupRepeats)
	setup, err := env.medianSetup(setupRepeats, 3, func(i int) error {
		d, err := w.build(env.unitSeed(i))
		datasets[i] = d
		return err
	})
	if err != nil {
		return err
	}
	// Units cycle over the set-up datasets, each with its own seed.
	unit := func(i int) (*elevprivacy.Dataset, int64) {
		k := i % len(datasets)
		return datasets[k], env.unitSeed(k)
	}
	profiles := datasets[0].Len()

	// One unmeasured unit first, so heap growth and cold caches land in
	// no measurement.
	if _, err := w.facade(unit(0)); err != nil {
		return fmt.Errorf("warm-up unit: %w", err)
	}

	var outs []*attackOut
	var units []measured
	var walls, latency []float64
	budget := env.seconds
	if env.traced {
		budget /= 2 // the other half replays the same units traced
	}
	// An untraced run reports a p99 latency, so it also runs until it has
	// the samples for one.
	p99Samples := minSamplesFor(0.99)
	more := func(i int) bool { return i < minUnits || (!env.traced && len(latency) < p99Samples) }
	mark := probe.mark()
	n, err := env.forDuration(budget, more, func(i int) error {
		d, seed := unit(i)
		var out *attackOut
		m, err := timed(func() (err error) {
			out, err = w.facade(d, seed)
			return err
		})
		if err != nil {
			return err
		}
		outs = append(outs, out)
		units = append(units, m)
		walls = append(walls, m.wall.Seconds())
		latency = append(latency, out.latency...)
		probe.samples(attackProbes)
		return nil
	})
	if err != nil {
		return err
	}
	classes := len(datasets[0].Labels())
	for i, out := range outs {
		rep.attempt(out.queries, out.mismatch)
		if out.mismatch > 0 {
			rep.note("CHECK FAILED: unit %d: %d single-profile labels differ from the batch labels", i, out.mismatch)
		}
		for k, acc := range out.accuracy {
			rep.check(acc > 1/float64(classes), "unit %d model %d: accuracy %.4f is no better than chance (%d classes)", i, k, acc, classes)
		}
	}
	q1, q2, q3 := quartiles(walls)
	rep.note("%s: %d units over %d datasets of %d profiles, %d single queries; unit wall quartiles %.3f %.3f %.3f s",
		env.workload, n, len(datasets), profiles, len(latency), q1, q2, q3)

	if !env.traced {
		sp := probe.since(mark)
		wall, cpu := meanWallCPU(units, sp)
		env.noteSpeed("wall_s", wall/sp.wall, sp)
		rep.set("setup_s", setup)
		rep.set("wall_s", wall)
		rep.set("cpu_s", cpu)
		var accs []float64
		for _, out := range outs {
			accs = append(accs, mean(out.accuracy))
		}
		rep.set("accuracy", mean(accs))
		rep.set("sustained_per_s", float64(profiles)/wall)
		return env.setLatency(latency, sp.floor)
	}

	// Traced half: the same units again, layer by layer, under spans.
	rep.set("dataset.build_s", setup)
	env.startTracing()
	var tracedOuts []*attackOut
	for i := 0; i < n; i++ {
		d, seed := unit(i)
		ctx, s := span(context.Background(), unitSpan)
		out, err := w.layers(ctx, d, seed)
		s.End()
		if err != nil {
			return fmt.Errorf("traced unit %d: %w", i, err)
		}
		tracedOuts = append(tracedOuts, out)
		rep.check(reflect.DeepEqual(out.accuracy, outs[i].accuracy),
			"unit %d: traced accuracies %v differ from untraced %v", i, out.accuracy, outs[i].accuracy)
		rep.check(reflect.DeepEqual(out.preds, outs[i].preds), "unit %d: traced held-out labels differ from untraced", i)
		rep.attempt(out.queries, out.mismatch)
	}
	var untraced time.Duration
	for _, w := range walls {
		untraced += time.Duration(w * float64(time.Second))
	}
	rows := env.traceSummary(n, untraced, true)
	w.layerMetrics(rep, rows, n, tracedOuts, profiles)
	return nil
}

// setLatency reports the median and p99 of single-operation latencies,
// scaled by factor; the p99 needs enough samples beyond it to mean
// anything.
func (e *runEnv) setLatency(latency []float64, factor float64) error {
	p50, _ := percentile(latency, 0.50)
	p99, ok := percentile(latency, 0.99)
	if !ok {
		return fmt.Errorf("only %d latency samples; p99 needs %d", len(latency), minSamplesFor(0.99))
	}
	e.rep.note("latency raw: p50 %.4f ms, p99 %.4f ms; scaled by %.4f", p50, p99, factor)
	p50, p99 = p50*factor, p99*factor
	e.rep.set("latency_p50_ms", p50)
	e.rep.set("latency_p99_ms", p99)
	e.rep.note("latency over %d samples: p50 %.4f ms, p99 %.4f ms", len(latency), p50, p99)
	return nil
}
