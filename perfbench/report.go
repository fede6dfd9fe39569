package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// endToEndMetrics are the figures a user of the system sees; every
// untraced run reports all of them. Their units are fixed here, once.
var endToEndMetrics = []string{
	"setup_s", "wall_s", "cpu_s", "peak_rss_mb", "accuracy", "ok_frac",
	"latency_p50_ms", "latency_p99_ms", "sustained_per_s",
}

// perLayerMetrics are the single-layer figures a traced run reports; a
// layer the workload leaves idle reads 0.
var perLayerMetrics = []string{
	"dataset.build_s",
	"textrep.vocab_s", "textrep.featurize_s", "textrep.profiles_per_s",
	"imagerep.render_s", "imagerep.images_per_s",
	"ml.svm.fit_s", "ml.forest.fit_s", "ml.mlp.fit_s",
	"ml.svm.fits", "ml.forest.fits", "ml.mlp.fits",
	"ml.svm.accuracy", "ml.forest.accuracy", "ml.mlp.accuracy",
	"ml.mlp.predict_s",
	"ml.cnn.fit_s", "ml.cnn.sample_epochs_per_s", "ml.cnn.predict_s",
	"ml.cnn.accuracy.wl", "ml.cnn.accuracy.ft",
	"eval.cv_s", "eval.self_s",
	"ingest.ack_ms_p50", "ingest.ack_ms_p99",
	"ingest.classify_ms_p50", "ingest.classify_ms_p90",
	"ingest.batch_rows_mean", "ingest.queue_wait_ms_p99",
	"ingest.shed", "ingest.spilled", "ingest.replayed",
	"ingest.generator_late_ms_max",
	"durable.fsyncs",
	"httpx.requests", "httpx.retries", "httpx.failovers", "httpx.request_ms_p99",
	"segments.explore_ms_p50", "segments.explore_ms_p99", "segments.explore_calls",
	"elevsvc.profile_ms_p50", "elevsvc.profile_ms_p99", "elevsvc.profile_calls",
	"segments.cold_s", "segments.warm_s",
	"serving.hit_rate",
	"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.share_gap_frac",
}

// metricUnits gives every metric its unit.
var metricUnits = map[string]string{
	"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
	"accuracy": "frac", "ok_frac": "frac",
	"latency_p50_ms": "ms", "latency_p99_ms": "ms", "sustained_per_s": "1/s",
}

func unitOf(name string) string {
	if u, ok := metricUnits[name]; ok {
		return u
	}
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms_"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.Contains(name, "accuracy"), strings.HasSuffix(name, "_rate"), strings.HasSuffix(name, "_frac"):
		return "frac"
	case strings.HasSuffix(name, "_mean"):
		return "rows"
	}
	return "count"
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's figures, its output checks and the lines printed
// before the result.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	notes     []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

// set records a metric; its unit follows from its name (unitOf).
func (r *report) set(name string, v float64) { r.values[name] = v }

// attempt counts n attempted operations, failed of which failed an output
// check (or the operation itself).
func (r *report) attempt(n, failed int) {
	r.attempted += n
	r.failed += failed
}

// check records one output check.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempt(1, 0)
	if !ok {
		r.failed++
		r.note("CHECK FAILED: "+format, args...)
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result assembles the metrics named in names; missing per-layer metrics
// read 0 (the layer was idle), a missing or non-finite end-to-end metric
// is an error.
func (r *report) result(names []string) (result, error) {
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation attempted")
	}
	res.Correct = res.Failed == 0
	r.values["ok_frac"] = float64(res.Attempted-res.Failed) / float64(res.Attempted)
	for _, n := range names {
		v, ok := r.values[n]
		if isEndToEnd(n) && (!ok || math.IsNaN(v) || math.IsInf(v, 0) || v == 0) {
			return res, fmt.Errorf("end-to-end metric %s missing or zero (%v)", n, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[n] = metric{Value: v, Unit: unitOf(n)}
	}
	return res, nil
}

func isEndToEnd(name string) bool {
	for _, n := range endToEndMetrics {
		if n == name {
			return true
		}
	}
	return false
}

func printMetrics(w io.Writer, res result, names []string) {
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuStat is the machine-wide CPU time split from /proc/stat, in ticks.
type cpuStat struct{ total, steal int64 }

func readCPUStat() cpuStat {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	var st cpuStat
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			st.total += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// stealSince is the steal share of the CPU time since from.
func (s cpuStat) stealSince(from cpuStat) float64 {
	if s.total <= from.total {
		return 0
	}
	return float64(s.steal-from.steal) / float64(s.total-from.total)
}

// commit identifies the code under test by a hash of the Go sources and
// module files of the checkout, which works in a checkout that is not a
// git repository.
func commit() string {
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the hash
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(blob))
		h.Write(blob)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
