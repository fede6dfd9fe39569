package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"elevprivacy/internal/elevsvc"
	"elevprivacy/internal/httpx"
	"elevprivacy/internal/obs"
	"elevprivacy/internal/segments"
	"elevprivacy/internal/terrain"
)

// The mine-sweep workload is the paper's Fig. 4 mining sweep over a
// pooled serving tier: segments.Miner against an httpx.Pool of two
// loopback shards each of the segments and elevation services, a cold
// sweep against fresh shards and then a warm rerun against the same ones.
// It is the only workload that goes through httpx, segments, elevsvc and
// the serving cache.
const (
	mineCity     = "WDC"
	mineSegments = 600 // segments in the store
	mineGrid     = 10  // grid rows and columns of the sweep
	mineSamples  = 200 // elevation samples per segment
	mineShards   = 2
	mineWorkers  = 2
	mineStores   = 10 // units cycle over this many stores
)

// sampleSet collects durations in milliseconds from concurrent callers.
type sampleSet struct {
	mu sync.Mutex
	ms []float64
}

func (s *sampleSet) add(d time.Duration) {
	s.mu.Lock()
	s.ms = append(s.ms, ms(d))
	s.mu.Unlock()
}

func (s *sampleSet) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.ms...)
}

// timeRoute times every request to path through h.
func timeRoute(h http.Handler, path string, into *sampleSet) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != path {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		into.add(time.Since(t0))
	})
}

// bestOf keeps, per request, the fastest of its repetitions: units cycle
// over the same stores, so every sweep request recurs, and its best time
// is the request's cost without the stalls a shared machine adds.
type bestOf struct {
	mu   sync.Mutex
	best map[string]float64
}

func (b *bestOf) add(key string, d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.best == nil {
		b.best = map[string]float64{}
	}
	if v, ok := b.best[key]; !ok || ms(d) < v {
		b.best[key] = ms(d)
	}
}

func (b *bestOf) values() []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]float64, 0, len(b.best))
	for _, v := range b.best {
		out = append(out, v)
	}
	return out
}

// timingDoer times each pooled attempt on the client side, from sending
// the request until the caller closes the response body.
type timingDoer struct {
	inner   httpx.Doer
	samples *mineSamplesSet

	mu     sync.Mutex
	prefix string // store and sweep phase, so repeats of a request match
}

func (d *timingDoer) setPrefix(p string) {
	d.mu.Lock()
	d.prefix = p
	d.mu.Unlock()
}

func (d *timingDoer) Do(req *http.Request) (*http.Response, error) {
	d.mu.Lock()
	key := d.prefix + req.URL.RequestURI()
	d.mu.Unlock()
	t0 := time.Now()
	resp, err := d.inner.Do(req)
	if err != nil {
		d.record(key, time.Since(t0))
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { d.record(key, time.Since(t0)) }}
	return resp, nil
}

func (d *timingDoer) record(key string, took time.Duration) {
	d.samples.client.add(took)
	d.samples.best.add(key, took)
}

type timedBody struct {
	io.ReadCloser
	done func()
	once sync.Once
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// server is one loopback HTTP server.
type server struct {
	srv *http.Server
	url string
}

func serve(h http.Handler) (*server, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(lis) }() // returns ErrServerClosed on Close
	return &server{srv: srv, url: "http://" + lis.Addr().String()}, nil
}

func closeAll(servers []*server) {
	for _, s := range servers {
		_ = s.srv.Close() // loopback listeners; nothing to flush
	}
}

// mineTier is the sharded tier of one unit: fresh shards, so the cold
// sweep finds every cache empty, and the pooled miner in front of them.
type mineTier struct {
	servers  []*server
	segPool  *httpx.Pool
	elevPool *httpx.Pool
	doer     *timingDoer
	miner    *segments.Miner
}

// mineSamplesSet holds the latencies a mine-sweep run collects: every
// client attempt, each request's best repetition, and the two server
// routes.
type mineSamplesSet struct {
	client, explore, profile sampleSet
	best                     bestOf
}

func newMineTier(store *segments.Store, tr *terrain.Terrain, samples *mineSamplesSet) (*mineTier, error) {
	t := &mineTier{}
	var segURLs, elevURLs []string
	for i := 0; i < mineShards; i++ {
		seg, err := serve(timeRoute(segments.NewServer(store, segments.WithShard(i, mineShards)).Handler(),
			"/v1/segments/explore", &samples.explore))
		if err != nil {
			t.close()
			return nil, err
		}
		t.servers = append(t.servers, seg)
		elev, err := serve(timeRoute(elevsvc.NewServer(tr, elevsvc.WithShard(i, mineShards)).Handler(),
			"/v1/elevation/path", &samples.profile))
		if err != nil {
			t.close()
			return nil, err
		}
		t.servers = append(t.servers, elev)
		segURLs, elevURLs = append(segURLs, seg.url), append(elevURLs, elev.url)
	}
	t.doer = &timingDoer{inner: &http.Client{Timeout: 30 * time.Second}, samples: samples}
	var err error
	if t.segPool, err = httpx.NewPool(segURLs, httpx.WithPoolTransport(t.doer), httpx.WithPoolMetrics("segments")); err != nil {
		t.close()
		return nil, err
	}
	if t.elevPool, err = httpx.NewPool(elevURLs, httpx.WithPoolTransport(t.doer), httpx.WithPoolMetrics("elevation")); err != nil {
		t.close()
		return nil, err
	}
	t.miner = newMiner(segments.NewPoolClient(t.segPool), elevsvc.NewPoolClient(t.elevPool), mineWorkers)
	return t, nil
}

func (t *mineTier) close() {
	t.segPool.Close()
	t.elevPool.Close()
	closeAll(t.servers)
}

// poolStats sums attempts and failed attempts over both pools.
func (t *mineTier) poolStats() (requests, failures, failovers int64) {
	for _, p := range []*httpx.Pool{t.segPool, t.elevPool} {
		for _, s := range p.Stats() {
			requests += s.Requests
			failures += s.Failures
		}
		failovers += p.Failovers()
	}
	return requests, failures, failovers
}

func newMiner(seg *segments.Client, elev *elevsvc.Client, workers int) *segments.Miner {
	m := segments.NewMiner(seg, elev)
	m.GridRows, m.GridCols = mineGrid, mineGrid
	m.Samples = mineSamples
	m.Workers = workers
	return m
}

// sweep mines the city once and returns the mined segments as JSON, the
// form the byte-identity check compares.
func sweep(ctx context.Context, m *segments.Miner, city *terrain.City) ([]byte, int, error) {
	mined, err := m.MineBoundary(ctx, city.Name, city.Bounds)
	if err != nil {
		return nil, 0, err
	}
	blob, err := json.Marshal(mined)
	return blob, len(mined), err
}

// mineSetup is the state every unit shares: the city, its terrain, the
// populated segment store, and the single-endpoint sweep every pooled
// sweep must reproduce byte for byte.
type mineSetup struct {
	city     *terrain.City
	terrain  *terrain.Terrain
	store    *segments.Store
	baseline []byte
	segs     int
}

func newMineSetup(seed int64) (*mineSetup, error) {
	city, err := terrain.CityByName(terrain.World(), mineCity)
	if err != nil {
		return nil, err
	}
	tr, err := city.Terrain()
	if err != nil {
		return nil, err
	}
	store := segments.NewStore()
	if err := store.Populate(city.Bounds, mineSegments, city.Abbrev, segments.DefaultPopulateConfig(),
		rand.New(rand.NewSource(seed))); err != nil {
		return nil, err
	}
	seg, err := serve(segments.NewServer(store).Handler())
	if err != nil {
		return nil, err
	}
	elev, err := serve(elevsvc.NewServer(tr).Handler())
	if err != nil {
		closeAll([]*server{seg})
		return nil, err
	}
	defer closeAll([]*server{seg, elev})
	single := newMiner(segments.NewClient(seg.url, httpx.NewClient(nil)), elevsvc.NewClient(elev.url, httpx.NewClient(nil)), 1)
	baseline, n, err := sweep(context.Background(), single, city)
	if err != nil {
		return nil, fmt.Errorf("single-endpoint sweep: %w", err)
	}
	if n == 0 {
		return nil, fmt.Errorf("single-endpoint sweep mined nothing")
	}
	return &mineSetup{city: city, terrain: tr, store: store, baseline: baseline, segs: n}, nil
}

// mineUnit is one cold sweep and one warm rerun against fresh shards.
type mineUnit struct {
	cold, warm                    measured
	sweeps                        measured // both sweeps together
	identical                     int      // sweeps byte-identical to the baseline
	requests, failures, failovers int64
	hits, lookups                 int64
}

func runMineUnit(ctx context.Context, st *mineSetup, store int, samples *mineSamplesSet) (*mineUnit, error) {
	tier, err := newMineTier(st.store, st.terrain, samples)
	if err != nil {
		return nil, err
	}
	defer tier.close()
	hits := obs.GetCounter(`elevpriv_serving_cache_hits_total{cache="elev_profiles"}`)
	misses := obs.GetCounter(`elevpriv_serving_cache_misses_total{cache="elev_profiles"}`)
	h0, m0 := hits.Value(), misses.Value()

	u := &mineUnit{}
	for _, phase := range []struct {
		name string
		into *measured
	}{{"segments.cold", &u.cold}, {"segments.warm", &u.warm}} {
		var got []byte
		tier.doer.setPrefix(fmt.Sprintf("%d %s ", store, phase.name))
		sctx, s := span(ctx, phase.name)
		*phase.into, err = timed(func() (err error) {
			got, _, err = sweep(sctx, tier.miner, st.city)
			return err
		})
		s.End()
		if err != nil {
			return nil, fmt.Errorf("%s sweep: %w", phase.name, err)
		}
		if bytes.Equal(got, st.baseline) {
			u.identical++
		}
	}
	u.sweeps = measured{wall: u.cold.wall + u.warm.wall, cpu: u.cold.cpu + u.warm.cpu}
	u.requests, u.failures, u.failovers = tier.poolStats()
	u.hits = hits.Value() - h0
	u.lookups = u.hits + misses.Value() - m0
	return u, nil
}

func runMineSweep(env *runEnv) error {
	rep := env.rep
	// Units cycle over the set-up stores, each populated from its own seed.
	setups := make([]*mineSetup, mineStores)
	setup, err := env.medianSetup(mineStores, 1, func(i int) (err error) {
		setups[i], err = newMineSetup(env.unitSeed(i))
		return err
	})
	if err != nil {
		return err
	}
	// One unmeasured unit first, so heap growth and cold caches land in
	// no measurement.
	if _, err := runMineUnit(context.Background(), setups[0], 0, &mineSamplesSet{}); err != nil {
		return fmt.Errorf("warm-up unit: %w", err)
	}
	samples := &mineSamplesSet{}
	var units []*mineUnit
	budget := env.seconds
	if env.traced {
		budget /= 2
	}
	more := func(i int) bool {
		return i < len(setups) || (!env.traced && len(samples.best.values()) < minSamplesFor(0.99))
	}
	mark := probe.mark()
	n, err := env.forDuration(budget, more, func(i int) error {
		u, err := runMineUnit(context.Background(), setups[i%len(setups)], i%len(setups), samples)
		if err != nil {
			return err
		}
		units = append(units, u)
		probe.sample()
		return nil
	})
	if err != nil {
		return err
	}
	var walls []float64
	perStore := make([][]measured, len(setups))
	identical, segs := 0, 0
	for i, u := range units {
		segs += setups[i%len(setups)].segs
		perStore[i%len(setups)] = append(perStore[i%len(setups)], u.sweeps)
		walls = append(walls, u.sweeps.wall.Seconds())
		identical += u.identical
		rep.attempt(2, 2-u.identical)
		if u.identical != 2 {
			rep.note("CHECK FAILED: unit %d: %d of 2 pooled sweeps differ from the single-endpoint sweep", i, 2-u.identical)
		}
	}
	q1, q2, q3 := quartiles(walls)
	rep.note("mine-sweep: %d units of a cold and a warm sweep (%.1f segments each on average); unit wall quartiles %.4f %.4f %.4f s",
		n, float64(segs)/float64(n), q1, q2, q3)

	if !env.traced {
		// Stores differ in cost; each store's mean unit, averaged over
		// the stores, weighs every store alike.
		sp := probe.since(mark)
		var wall, cpu, storeSegs float64
		for k, ps := range perStore {
			w, c := meanWallCPU(ps, sp)
			wall += w / float64(len(setups))
			cpu += c / float64(len(setups))
			storeSegs += float64(setups[k].segs) / float64(len(setups))
		}
		env.noteSpeed("wall_s", wall/sp.wall, sp)
		rep.set("setup_s", setup)
		rep.set("wall_s", wall)
		rep.set("cpu_s", cpu)
		rep.set("accuracy", float64(identical)/float64(2*n))
		rep.set("sustained_per_s", 2*storeSegs/wall)
		return env.setLatency(samples.best.values(), sp.floor)
	}

	env.startTracing()
	traced := &mineSamplesSet{}
	var tracedUnits []*mineUnit
	for i := 0; i < n; i++ {
		ctx, s := span(context.Background(), unitSpan)
		u, err := runMineUnit(ctx, setups[i%len(setups)], i%len(setups), traced)
		s.End()
		if err != nil {
			return fmt.Errorf("traced unit %d: %w", i, err)
		}
		tracedUnits = append(tracedUnits, u)
		rep.check(u.identical == 2, "traced unit %d: %d of 2 pooled sweeps differ from the single-endpoint sweep", i, 2-u.identical)
	}
	var untraced time.Duration
	for _, u := range units {
		untraced += u.sweeps.wall
	}
	rows := env.traceSummary(n, untraced, true)
	rep.set("segments.cold_s", layerSeconds(rows, "segments.cold", n))
	rep.set("segments.warm_s", layerSeconds(rows, "segments.warm", n))
	// Counts and latencies come from the untraced units, which tracing
	// cannot have disturbed.
	var requests, failures, failovers, hits, lookups int64
	for _, u := range units {
		requests += u.requests
		failures += u.failures
		failovers += u.failovers
		hits += u.hits
		lookups += u.lookups
	}
	rep.set("httpx.requests", float64(requests)/float64(n))
	rep.set("httpx.retries", float64(failures)/float64(n))
	rep.set("httpx.failovers", float64(failovers)/float64(n))
	if p99, ok := percentile(samples.client.values(), 0.99); ok {
		rep.set("httpx.request_ms_p99", p99)
	}
	setTail(rep, "segments.explore", samples.explore.values(), n)
	setTail(rep, "elevsvc.profile", samples.profile.values(), n)
	if lookups > 0 {
		rep.set("serving.hit_rate", float64(hits)/float64(lookups))
	}
	return nil
}

// setTail reports a server route's median and p99 latency and its calls
// per unit; a p99 without enough samples beyond it is left out.
func setTail(rep *report, layer string, samples []float64, units int) {
	p50, _ := percentile(samples, 0.50)
	rep.set(layer+"_ms_p50", p50)
	if p99, ok := percentile(samples, 0.99); ok {
		rep.set(layer+"_ms_p99", p99)
	}
	rep.set(layer+"_calls", float64(len(samples))/float64(units))
	rep.note("%s: %d calls", layer, len(samples))
}
