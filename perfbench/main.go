// Command perfbench is the repository's end-to-end benchmark. It drives
// the attack and its live paths from outside, through the public functions
// of the elevprivacy facade and the internal layers, and prints one JSON
// result line.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload tm3-text --seed 1 --seconds 10 --trace 0
//
// Workloads: tm3-text, tm1-image, live-ingest, mine-sweep. With --trace 0
// the result carries the end-to-end metrics; with --trace 1 the same work
// runs under spans and the result carries the per-layer metrics. See
// README.md for what each metric means.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"elevprivacy/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*runEnv) error{
	"tm3-text":    runTM3Text,
	"tm1-image":   runTM1Image,
	"live-ingest": runLiveIngest,
	"mine-sweep":  runMineSweep,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: tm3-text, tm1-image, live-ingest or mine-sweep")
		seed     = fs.Int64("seed", 1, "workload seed; every input derives from it")
		seconds  = fs.Float64("seconds", 10, "how long the measured phase runs")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		outDir   = fs.String("out-dir", filepath.Join(".bench_build", "perfbench"), "directory for traces, journals and result files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	env := &runEnv{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		work:     work,
		rep:      newReport(),
	}
	steal0 := readCPUStat()
	if err := drive(env); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if _, ok := env.rep.values["peak_rss_mb"]; !ok {
		env.rep.set("peak_rss_mb", peakRSSMB())
	}

	names := endToEndMetrics
	if env.tracer != nil {
		names = perLayerMetrics
		if err := env.writeTrace(*outDir); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	res, err := env.rep.result(names)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	id := identity(*workload, *seed, *seconds, *trace)
	id.StealFrac = readCPUStat().stealSince(steal0)
	if len(probe.walls) > 0 {
		id.ProbeWall = mean(probe.walls)
	}
	if err := writeResultFile(*outDir, id, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, line := range env.rep.notes {
		fmt.Fprintln(stdout, line)
	}
	printMetrics(stdout, res, names)
	idLine, _ := json.Marshal(id)
	fmt.Fprintf(stdout, "identity %s\n", idLine)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d output checks failed\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runEnv is what a workload function gets: its arguments, a scratch
// directory inside the checkout, the tracer of a traced run and the report
// it fills.
type runEnv struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	tracer   *obs.Tracer
	work     string
	rep      *report
}

// unitSeed derives the seed of the i-th unit of work in a run, so a run
// covers several inputs and two runs with different seeds share none.
func (e *runEnv) unitSeed(i int) int64 { return e.seed*1_000_003 + int64(i)*7919 + 1 }

// traceCapacity bounds the span ring of a traced run; spans are per layer
// call, never per sample, so a run stays far below it.
const traceCapacity = 1 << 18

// startTracing installs the process-wide tracer, so spans the program
// records itself (the miner's, and later ones) land in the same trace.
// Workloads call it once their untraced half is done.
func (e *runEnv) startTracing() { e.tracer = obs.EnableTracing(traceCapacity) }

// span starts a span named after the layer it covers; with tracing off it
// is free and returns a nil span.
func span(ctx context.Context, name string) (context.Context, *obs.Span) {
	return obs.StartSpan(ctx, name)
}

// writeTrace writes the Chrome trace of a traced run.
func (e *runEnv) writeTrace(outDir string) error {
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", e.workload, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := e.tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	e.rep.note("trace written to %s (%d spans, %d dropped)", path, e.tracer.Len(), e.tracer.Dropped())
	return nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB.
}

// rssMB is the process's resident set size now, in MiB.
func rssMB() float64 {
	blob, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(blob))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}

// measured is one timed stretch: wall and process CPU time.
type measured struct{ wall, cpu time.Duration }

// timed runs fn and measures its wall and process CPU time, leaving out
// the speed probe samples taken inside it.
func timed(fn func() error) (measured, error) {
	pw, pc := probe.spentWall, probe.spentCPU
	c0, t0 := cpuTime(), time.Now()
	err := fn()
	wall, cpu := time.Since(t0), cpuTime()-c0
	return measured{wall: wall - (probe.spentWall - pw), cpu: cpu - (probe.spentCPU - pc)}, err
}

// meanWallCPU is the mean wall and CPU time of units, in seconds, scaled
// to the probe's reference speed by sp.
func meanWallCPU(units []measured, sp speed) (wall, cpu float64) {
	var walls, cpus []float64
	for _, u := range units {
		walls = append(walls, u.wall.Seconds())
		cpus = append(cpus, u.cpu.Seconds())
	}
	return mean(walls) * sp.wall, mean(cpus) * sp.cpu
}

// noteSpeed prints a stretch's probe factors beside the raw figure they
// scale.
func (e *runEnv) noteSpeed(what string, raw float64, sp speed) {
	e.rep.note("%s: raw %.6g; speed probe over %d samples: wall factor %.4f, cpu factor %.4f, typical factor %.4f, floor factor %.4f",
		what, raw, sp.samples, sp.wall, sp.cpu, sp.typical, sp.floor)
}

// setupRepeats is how many inputs a workload sets up; units cycle over
// them.
const setupRepeats = 5

// setupProbes is the fewest speed probe samples set-up takes.
const setupProbes = 15

// medianSetup sets up input i for i in [0, n), each reps times over, with
// probe samples after each, and returns the median wall time of all n×reps
// set-ups in seconds, scaled by the probe's typical factor. The last
// repetition of each input is the state the run keeps.
func (e *runEnv) medianSetup(n, reps int, fn func(i int) error) (float64, error) {
	var walls []float64
	mark := probe.mark()
	for i := 0; i < n; i++ {
		for r := 0; r < reps; r++ {
			m, err := timed(func() error { return fn(i) })
			if err != nil {
				return 0, fmt.Errorf("set-up: %w", err)
			}
			walls = append(walls, m.wall.Seconds())
			probe.samples((setupProbes + n*reps - 1) / (n * reps))
		}
	}
	sp := probe.since(mark)
	e.noteSpeed("setup_s", median(walls), sp)
	return median(walls) * sp.typical, nil
}

// forDuration runs units of work until budget is spent and more(i) is
// false, and returns how many ran.
func (e *runEnv) forDuration(budget time.Duration, more func(i int) bool, unit func(i int) error) (int, error) {
	start := time.Now()
	i := 0
	for ; more(i) || time.Since(start) < budget; i++ {
		if err := unit(i); err != nil {
			return i, fmt.Errorf("unit %d: %w", i, err)
		}
	}
	return i, nil
}

// machineIdentity is recorded with every result.
type machineIdentity struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	// StealFrac is the share of the machine's CPU time the hypervisor
	// took during the run; a high value explains a slow run.
	StealFrac float64 `json:"cpu_steal_frac"`
	// ProbeWall is the mean wall time of the run's speed probe samples,
	// against probeRefWall: above it, the host ran slower than its
	// reference speed.
	ProbeWall float64 `json:"probe_wall_s"`
}

func identity(workload string, seed int64, seconds float64, trace int) machineIdentity {
	return machineIdentity{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// writeResultFile keeps each run's identity and result beside its trace.
func writeResultFile(outDir string, id machineIdentity, res result) error {
	blob, err := json.MarshalIndent(struct {
		Identity machineIdentity `json:"identity"`
		Result   result          `json:"result"`
	}{id, res}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-%d-trace%d.json", id.Workload, id.Seed, id.Trace))
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
