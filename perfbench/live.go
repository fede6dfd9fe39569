package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"elevprivacy"
	"elevprivacy/internal/activity"
	"elevprivacy/internal/ingest"
	"elevprivacy/internal/ml"
	"elevprivacy/internal/obs"
	"elevprivacy/internal/textrep"
)

// The live-ingest workload is an open-loop firehose into the ingest tier:
// one generator goroutine sends activity.Generator envelopes on a fixed
// schedule over one keep-alive connection to ingest.NewServer on
// loopback; a TM-1 MLP text attack classifies them. Every activity is
// timed from when it was due until Pipeline.Result returns its label.
const (
	liveScale          = 0.15 // TM-1 training set: Table I class sizes × this
	liveProfileSamples = 80
	liveMinPerClass    = 10
	// liveTrainRepeats is how many attacks set-up trains, each on its own
	// seed: one per phase of an untraced run, so the live accuracy is a
	// mean over that many models rather than one seed's draw.
	liveTrainRepeats = liveSaturatedPhases + 1
	// livePool is how many distinct envelopes the generator cycles
	// through; each send gets a fresh ID.
	livePool = 1000
	// liveRefRate is the fixed rate the latency figures are taken at.
	liveRefRate = 500.0
	// liveLimit is the p99 latency a sustained rate must stay within:
	// five times the pipeline's default 50 ms MaxBatchAge.
	liveLimit = 250 * time.Millisecond
	// liveWindow is how many accepted activities may await their result
	// in a saturated phase: the spool's depth, so nothing spills.
	liveWindow = 1024
	// liveMaxRate bounds the sends a saturated phase prepares for.
	liveMaxRate = 60_000.0
	// liveSaturatedPhases is how many saturated phases the sustained rate
	// is the median of.
	liveSaturatedPhases = 4
	// liveMaxPost bounds the activities one POST carries when the
	// generator catches up on several due sends.
	liveMaxPost = 1024
	// liveDrain bounds the wait for results after the last send.
	liveDrain     = 5 * time.Second
	liveSyncEvery = 64
	// liveProbeSamples is how many speed probe samples run between phases.
	liveProbeSamples = 10
)

// liveClassifier is the ingest.Classifier the benchmark hands the
// pipeline: it times every batch, and classifies either through the
// facade attack or, in a traced run, layer by layer under spans.
type liveClassifier struct {
	classify func([][]float64) ([]string, error)
	ctx      context.Context // parent of the classify spans
	offline  []string        // the labels one offline batch gives the pool

	mu      sync.Mutex
	batchMs []float64
	rows    []float64
}

func (c *liveClassifier) ClassifyBatch(profiles [][]float64) ([]string, error) {
	_, s := span(c.ctx, "ingest.classify")
	t0 := time.Now()
	out, err := c.classify(profiles)
	d := time.Since(t0)
	s.End()
	c.mu.Lock()
	c.batchMs = append(c.batchMs, ms(d))
	c.rows = append(c.rows, float64(len(profiles)))
	c.mu.Unlock()
	return out, err
}

// layerClassifier is the facade's PredictLocations spelled out: sparse
// featurize, sparse batch predict, decode, each under its span.
func layerClassifier(ctx context.Context, pipe *textrep.Pipeline, model ml.SparseBatchClassifier, enc *ml.LabelEncoder) func([][]float64) ([]string, error) {
	return func(profiles [][]float64) ([]string, error) {
		_, s := span(ctx, "textrep.featurize")
		x := pipe.FeaturesAllSparse(profiles)
		s.End()
		_, s = span(ctx, "ml.mlp.predict")
		idx, err := model.PredictBatchSparse(x)
		s.End()
		if err != nil {
			return nil, err
		}
		return decodeAll(enc, idx)
	}
}

// liveSetup is what set-up leaves: the trained attack, its training set
// (for the traced run's layer-by-layer copy of it), and the firehose pool
// with the offline label of every envelope.
type liveSetup struct {
	attacks []*elevprivacy.TextAttack
	train   *elevprivacy.Dataset // the last attack's training set
	cfg     elevprivacy.TextAttackConfig
	lines   [][]byte // EncodeLine output with an empty ID, per pool envelope
	regions []string
	offline [][]string // per attack, one offline PredictLocations over the pool
}

// facade is the classifier that serves through attack k.
func (st *liveSetup) facade(k int) *liveClassifier {
	return &liveClassifier{classify: st.attacks[k].PredictLocations, ctx: context.Background(), offline: st.offline[k]}
}

func newLiveSetup(env *runEnv) (*liveSetup, float64, error) {
	st := &liveSetup{attacks: make([]*elevprivacy.TextAttack, liveTrainRepeats)}
	setup, err := env.medianSetup(liveTrainRepeats, 1, func(i int) error {
		d, err := elevprivacy.NewUserSpecificDataset(elevprivacy.DatasetConfig{
			Scale: liveScale, ProfileSamples: liveProfileSamples, MinPerClass: liveMinPerClass, Seed: env.unitSeed(i),
		})
		if err != nil {
			return err
		}
		cfg := elevprivacy.DefaultTextAttackConfig(elevprivacy.ClassifierMLP)
		cfg.Seed = env.unitSeed(i)
		st.attacks[i], err = elevprivacy.TrainTextAttack(d, cfg)
		st.train, st.cfg = d, cfg
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	gen, err := activity.NewGenerator(nil, activity.DefaultAthleteConfig(), env.seed)
	if err != nil {
		return nil, 0, err
	}
	var profiles [][]float64
	for i := 0; i < livePool; i++ {
		act, err := gen.Next()
		if err != nil {
			return nil, 0, err
		}
		line, err := ingest.EncodeLine(ingest.Envelope{Region: act.Region, Elevations: act.Elevations})
		if err != nil {
			return nil, 0, err
		}
		if !bytes.HasPrefix(line, []byte(`{"id":""`)) {
			return nil, 0, fmt.Errorf("unexpected envelope encoding %.40q", line)
		}
		st.lines = append(st.lines, line)
		st.regions = append(st.regions, act.Region)
		profiles = append(profiles, act.Elevations)
	}
	for _, attack := range st.attacks {
		labels, err := attack.PredictLocations(profiles)
		if err != nil {
			return nil, 0, fmt.Errorf("offline baseline: %w", err)
		}
		st.offline = append(st.offline, labels)
	}
	// Hand set-up's garbage back, so resident memory during the phases is
	// the serving path's.
	debug.FreeOSMemory()
	return st, setup, nil
}

// line returns the NDJSON line of pool envelope k under id.
func (st *liveSetup) line(buf *bytes.Buffer, k int, id string) {
	l := st.lines[k]
	buf.Write(l[:7]) // {"id":"
	buf.WriteString(id)
	buf.Write(l[7:])
}

// phase is one open-loop run at a fixed rate against a fresh pipeline.
type phase struct {
	rate     float64
	offered  int
	sends    []openLoop
	ackMs    []float64 // POST to 200, per request
	waitMs   []float64 // ack to result, per activity
	shed     int       // refused (429/503) or failed requests' activities
	wrong    int       // labels that differ from the offline baseline
	matches  int       // labels equal to the activity's true region
	missing  int       // accepted activities with no result
	aborted  bool      // sending stopped early: the backlog outgrew the limit
	wall     time.Duration
	stats    ingest.Stats
	fsyncs   int64
	lateMax  time.Duration
	latency  []float64
	rssMB    float64 // resident set with the phase's journals still open
	classify *liveClassifier
}

// completionRate is a saturated phase's results per second, from the send
// of the first activity past its first tenth to the last result.
func (ph *phase) completionRate() float64 {
	k0 := ph.offered / 10
	var last time.Time
	count := 0
	for _, snd := range ph.sends[k0:ph.offered] {
		if snd.done.IsZero() {
			continue
		}
		count++
		if snd.done.After(last) {
			last = snd.done
		}
	}
	span := last.Sub(ph.sends[k0].sent)
	if count == 0 || span <= 0 {
		return 0
	}
	return float64(count) / span.Seconds()
}

// p99 is the phase's p99 latency; refused activities count as missing the
// limit.
func (ph *phase) p99() float64 {
	lat := ph.latency
	for i := 0; i < ph.shed; i++ {
		lat = append(lat, math.Inf(1))
	}
	v, _ := percentile(lat, 0.99)
	return v
}

// passes reports whether the phase met the latency limit without a
// growing backlog: sending never had to stop early, and the p99 over the
// whole phase, which a backlog growing through it pushes up, stays within
// the limit.
func (ph *phase) passes() bool {
	return !ph.aborted && ph.offered > 0 && ph.p99() <= ms(liveLimit)
}

// runPhase sends to a fresh pipeline for dur and waits for every result.
// With rate > 0 it is an open loop: rate activities/s on a fixed schedule.
// With rate 0 the pipeline is saturated: the generator sends as soon as
// fewer than liveWindow accepted activities await their result, so the
// pipeline never idles, its spool never spills, and an activity's latency
// runs from its send.
func runPhase(env *runEnv, st *liveSetup, name string, rate float64, dur time.Duration, cls *liveClassifier) (*phase, error) {
	dir := filepath.Join(env.work, name)
	defer os.RemoveAll(dir)
	p, err := ingest.Open(dir, ingest.Config{Logf: quietLogf, SyncEvery: liveSyncEvery}, cls)
	if err != nil {
		return nil, err
	}
	srv, err := serve(ingest.NewServer(p, ingest.WithLogf(quietLogf)).Handler())
	if err != nil {
		_ = p.Drain(context.Background())
		return nil, err
	}
	defer srv.srv.Close()
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}

	fsyncs := obs.GetCounter("elevpriv_journal_syncs_total")
	f0 := fsyncs.Value()
	saturated := rate == 0
	n := int(rate * dur.Seconds())
	if saturated {
		n = int(liveMaxRate * dur.Seconds())
	}
	ph := &phase{rate: rate, classify: cls, sends: make([]openLoop, n)}
	ids := make([]string, n)
	acked := make([]bool, n)
	ackAt := make([]time.Time, n)

	start := time.Now().Add(5 * time.Millisecond)
	for i := range ph.sends {
		if !saturated {
			ph.sends[i].due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		}
		ids[i] = name + "-" + strconv.Itoa(i)
	}

	// The poller records when each accepted activity's result appears. It
	// walks the sends in order, so its cursor is the oldest activity still
	// waiting for a result.
	var mu sync.Mutex
	answered := 0 // sends [0, answered) have their POST answered
	cursor := 0
	stop := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			mu.Lock()
			for ; cursor < answered; cursor++ {
				if !acked[cursor] {
					continue
				}
				if _, ok := p.Result(ids[cursor]); !ok {
					break
				}
				ph.sends[cursor].done = time.Now()
			}
			finished := cursor == n
			mu.Unlock()
			if finished {
				return
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()

	var body bytes.Buffer
	for i := 0; i < n; {
		room := liveMaxPost
		if saturated {
			if time.Since(start) >= dur {
				break
			}
			mu.Lock()
			room = liveWindow - (i - cursor)
			mu.Unlock()
			if room < liveWindow/4 {
				time.Sleep(100 * time.Microsecond)
				continue
			}
			room = min(room, liveMaxPost)
		} else if wait := time.Until(ph.sends[i].due); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Now()
		j := i
		body.Reset()
		for ; j < n && j-i < room && (saturated || !ph.sends[j].due.After(now)); j++ {
			if saturated {
				ph.sends[j].due = now
			}
			st.line(&body, j%len(st.lines), ids[j])
			ph.sends[j].sent = now
		}
		resp, err := client.Post(srv.url+"/ingest", "application/x-ndjson", bytes.NewReader(body.Bytes()))
		ack := time.Now()
		ok := err == nil && resp.StatusCode == http.StatusOK
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		ph.ackMs = append(ph.ackMs, ms(ack.Sub(now)))
		for k := i; k < j; k++ {
			acked[k], ackAt[k] = ok, ack
		}
		if !ok {
			ph.shed += j - i
		}
		mu.Lock()
		answered = j
		oldest := cursor
		mu.Unlock()
		i = j
		ph.offered = j
		// A backlog far past the limit will not recover within the phase:
		// stop offering more.
		if !saturated && i < n && oldest < i && time.Since(ph.sends[oldest].due) > 4*liveLimit {
			ph.aborted = true
			break
		}
	}
	mu.Lock()
	n = ph.offered // the poller is done once every offered send resolved
	mu.Unlock()
	select {
	case <-pollDone:
	case <-time.After(liveDrain):
	}
	close(stop)
	<-pollDone
	ph.wall = time.Since(start)
	ph.stats = p.Stats()
	ph.rssMB = rssMB()

	// Exactly once, and the same label the offline batch gave the same
	// profile.
	for i := 0; i < ph.offered; i++ {
		if !acked[i] {
			continue
		}
		if ph.sends[i].done.IsZero() {
			ph.missing++
			continue
		}
		ph.waitMs = append(ph.waitMs, ms(ph.sends[i].done.Sub(ackAt[i])))
		label, _ := p.Result(ids[i])
		if label != cls.offline[i%len(cls.offline)] {
			ph.wrong++
		}
		if label == st.regions[i%len(st.regions)] {
			ph.matches++
		}
	}
	if err := p.Drain(context.Background()); err != nil {
		return nil, fmt.Errorf("draining: %w", err)
	}
	ph.fsyncs = fsyncs.Value() - f0
	var done []openLoop
	for i := 0; i < ph.offered; i++ {
		if acked[i] && !ph.sends[i].done.IsZero() {
			done = append(done, ph.sends[i])
		}
	}
	ph.latency, ph.lateMax = openLoopLatency(done)
	return ph, nil
}

func quietLogf(string, ...any) {}

// refDuration is how long the reference phase sends: a fifth of the run,
// but long enough for the 1000 samples a p99 needs.
func refDuration(seconds time.Duration) time.Duration {
	need := time.Duration(1.1 * float64(minSamplesFor(0.99)) / liveRefRate * float64(time.Second))
	if d := seconds / 5; d > need {
		return d
	}
	return need
}

func runLiveIngest(env *runEnv) error {
	rep := env.rep
	st, setup, err := newLiveSetup(env)
	if err != nil {
		return err
	}
	var phases []*phase
	run := func(name string, rate float64, dur time.Duration, cls *liveClassifier) (*phase, error) {
		ph, err := runPhase(env, st, name, rate, dur, cls)
		if err != nil {
			return nil, fmt.Errorf("%s at %.0f/s: %w", name, rate, err)
		}
		phases = append(phases, ph)
		return ph, nil
	}

	refDur := refDuration(env.seconds)
	if env.traced {
		// No saturated phases: the reference phase runs untraced and
		// traced for half the run each, long enough for a p90 over its
		// classify batches.
		refDur = env.seconds / 2
	}
	// Probe samples before and after the reference phase, never during
	// it: the open loop's timing must not be disturbed.
	probe.samples(liveProbeSamples)
	var ref *phase
	m, err := timed(func() (err error) {
		ref, err = run("ref", liveRefRate, refDur, st.facade(0))
		return err
	})
	if err != nil {
		return err
	}
	probe.samples(liveProbeSamples)
	rep.note("reference phase: %d activities at %.0f/s in %.3f s, p99 %.2f ms, passes: %v",
		ref.offered, ref.rate, ref.wall.Seconds(), ref.p99(), ref.passes())

	if env.traced {
		err = liveLayers(env, st, ref, refDur, run)
	} else {
		err = liveEndToEnd(env, st, ref, m, setup, run)
	}
	if err != nil {
		return err
	}
	offered, failed := 0, 0
	var accs []float64
	for _, ph := range phases {
		accs = append(accs, float64(ph.matches)/float64(len(ph.latency)))
		offered += ph.offered
		failed += ph.shed + ph.wrong + ph.missing
		if ph.wrong+ph.missing > 0 {
			rep.note("CHECK FAILED: phase at %.0f/s: %d labels differ from the offline batch, %d accepted activities unclassified",
				ph.rate, ph.wrong, ph.missing)
		}
		if dup := ph.stats.Duplicates; dup > 0 || ph.stats.Results != ph.offered-ph.shed {
			failed++
			rep.note("CHECK FAILED: phase at %.0f/s: %d results for %d accepted activities (%d duplicates)",
				ph.rate, ph.stats.Results, ph.offered-ph.shed, dup)
		}
	}
	rep.attempt(offered, failed)
	if !env.traced {
		// Each phase serves through its own attack; every model weighs
		// alike.
		rep.set("accuracy", mean(accs))
	}
	return nil
}

// liveEndToEnd reports the end-to-end metrics: latency at the reference
// rate, and the sustained rate, the median completion rate of
// liveSaturatedPhases saturated phases.
func liveEndToEnd(env *runEnv, st *liveSetup, ref *phase, m measured, setup float64,
	run func(string, float64, time.Duration, *liveClassifier) (*phase, error)) error {
	rep := env.rep
	if !ref.passes() {
		return fmt.Errorf("the reference rate %.0f/s misses the %s p99 limit (p99 %.1f ms)", liveRefRate, liveLimit, ref.p99())
	}
	rep.set("setup_s", setup)
	// Memory at the reference load: set-up's training peak and the
	// saturated phases' journals are not part of it.
	rep.set("peak_rss_mb", ref.rssMB)
	rep.set("wall_s", ref.wall.Seconds())
	// Latency at the reference rate is mostly the batch age, a timer, so
	// it is not scaled.
	if err := env.setLatency(ref.latency, 1); err != nil {
		return err
	}
	dur := (env.seconds - refDuration(env.seconds)) / (liveSaturatedPhases + 1)
	var rates []float64
	for k := 0; k < liveSaturatedPhases; k++ {
		ph, err := run(fmt.Sprintf("saturated%d", k), 0, dur, st.facade(k+1))
		if err != nil {
			return err
		}
		probe.samples(liveProbeSamples)
		rates = append(rates, ph.completionRate())
		rep.note("saturated phase %d: %d sent, %.0f results/s, p99 %.1f ms (limit %s)",
			k, ph.offered, rates[k], ph.p99(), liveLimit)
	}
	// Both scaled figures take the factors over all of the run's probe
	// samples: a few samples around one phase can all land in a burst the
	// phase missed.
	sp := probe.since(0)
	env.noteSpeed("cpu_s", m.cpu.Seconds(), sp)
	rep.set("cpu_s", m.cpu.Seconds()*sp.cpu)
	env.noteSpeed("sustained_per_s", median(rates), sp)
	rep.set("sustained_per_s", median(rates)/sp.wall)
	return nil
}

// liveLayers reports the per-layer metrics: ingest figures from the
// untraced reference phase, then the same phase again with a
// layer-by-layer copy of the attack under spans.
func liveLayers(env *runEnv, st *liveSetup, ref *phase, refDur time.Duration, run func(string, float64, time.Duration, *liveClassifier) (*phase, error)) error {
	rep := env.rep
	p50, _ := percentile(ref.ackMs, 0.50)
	rep.set("ingest.ack_ms_p50", p50)
	if p99, ok := percentile(ref.ackMs, 0.99); ok {
		rep.set("ingest.ack_ms_p99", p99)
	}
	cls := ref.classify
	p50, _ = percentile(cls.batchMs, 0.50)
	rep.set("ingest.classify_ms_p50", p50)
	if p90, ok := percentile(cls.batchMs, 0.90); ok {
		rep.set("ingest.classify_ms_p90", p90)
	}
	rep.set("ingest.batch_rows_mean", mean(cls.rows))
	if p99, ok := percentile(ref.waitMs, 0.99); ok {
		rep.set("ingest.queue_wait_ms_p99", p99)
	}
	rep.set("ingest.shed", float64(ref.stats.Shed))
	rep.set("ingest.spilled", float64(ref.stats.Spilled))
	rep.set("ingest.replayed", float64(ref.stats.Replayed))
	rep.set("ingest.generator_late_ms_max", ms(ref.lateMax))
	rep.set("durable.fsyncs", float64(ref.fsyncs))
	rep.note("reference phase: %d POSTs, %d classify batches, %d activities", len(ref.ackMs), len(cls.batchMs), ref.offered)

	// The attack again, trained layer by layer exactly as TrainTextAttack
	// trains it, on the last attack's data; runPhase checks its labels
	// against that attack's offline ones.
	signals, names := signalsOf(st.train)
	pipe, enc, y, err := textLayers(context.Background(), signals, names, st.cfg)
	if err != nil {
		return err
	}
	model, err := newTextClassifier(st.cfg, enc.Len())
	if err != nil {
		return err
	}
	if err := model.Fit(pipe.FeaturesAll(signals).RowSlices(), y); err != nil {
		return err
	}
	sparse, ok := model.(ml.SparseBatchClassifier)
	if !ok {
		return fmt.Errorf("mlp has no sparse batch path")
	}

	env.startTracing()
	ctx, s := span(context.Background(), unitSpan)
	last := st.offline[len(st.offline)-1]
	traced, err := run("traced", liveRefRate, refDur, &liveClassifier{classify: layerClassifier(ctx, pipe, sparse, enc), ctx: ctx, offline: last})
	s.End()
	if err != nil {
		return err
	}
	rows := env.traceSummary(1, ref.wall, false)
	rep.set("textrep.featurize_s", layerSeconds(rows, "textrep.featurize", 1))
	rep.set("ml.mlp.predict_s", layerSeconds(rows, "ml.mlp.predict", 1))
	rep.note("traced reference phase: p99 %.2f ms vs %.2f ms untraced", traced.p99(), ref.p99())
	return nil
}
