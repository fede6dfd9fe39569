package main

import (
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's host shares its vCPUs with other tenants. For minutes to
// hours at a time the same instructions take 1.8 to 2.5 times the wall and
// CPU time the guest sees, and no steal shows in /proc/stat. The speed
// probe runs a fixed piece of benchmark-owned arithmetic between units of
// work, and each timed metric is scaled by how fast the probe ran next to
// it. A figure then reads as the time the work takes on the host at the
// probe's reference speed. The probe runs none of the program's code: a
// change to the program moves the figures, a change in the host's speed
// moves them far less than it moves raw times (README.md gives how much).
// Raw figures and the factors are printed as notes.

// probeRefWall and probeRefCPU are one probe sample's wall and thread CPU
// time on a quiet 2-vCPU Intel Xeon host (go1.24): the speed every scaled
// figure is expressed at.
const (
	probeRefWall = 0.00133
	probeRefCPU  = 0.00133
)

const (
	probeDim    = 48 // matrix side of the probe's multiply
	probeRounds = 21 // multiplies per sample
	probeTable  = 1 << 17
	probeWalk   = 120_000 // dependent table reads per sample
)

// speedProbe holds the probe's working set, its samples, and the total
// time spent in it, so timed stretches can leave probe time out. The
// working set is allocated once, so the timed work allocates nothing.
type speedProbe struct {
	a, b, c     []float64
	table       []uint32
	sink        float64
	walls, cpus []float64 // per sample, seconds
	spentWall   time.Duration
	spentCPU    time.Duration
}

// probe is the process's speed probe; the workloads sample it between
// units of work.
var probe = newSpeedProbe()

func newSpeedProbe() *speedProbe {
	p := &speedProbe{
		a:     make([]float64, probeDim*probeDim),
		b:     make([]float64, probeDim*probeDim),
		c:     make([]float64, probeDim*probeDim),
		table: make([]uint32, probeTable),
	}
	for i := range p.a {
		p.a[i] = float64(i%7) * 0.5
		p.b[i] = float64(i%5) * 0.25
	}
	for i := range p.table {
		p.table[i] = uint32(i) * 2654435761
	}
	return p
}

// run is one sample's work: dense multiplies, as the fitters do, and
// dependent reads scattered over a table larger than the L1 and L2 caches.
func (p *speedProbe) run() {
	const n = probeDim
	for r := 0; r < probeRounds; r++ {
		for i := range p.c {
			p.c[i] = 0
		}
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				aik := p.a[i*n+k]
				row, out := p.b[k*n:k*n+n], p.c[i*n:i*n+n]
				for j := range out {
					out[j] += aik * row[j]
				}
			}
		}
	}
	x := uint32(1)
	for i := 0; i < probeWalk; i++ {
		x = p.table[(x^uint32(i))&(probeTable-1)] + uint32(i)
	}
	p.sink += p.c[n+1] + float64(x)
}

// sample runs the probe once on the calling goroutine, pinned to its OS
// thread, and records its wall time and the thread's CPU time. One thread
// keeps the figure free of how the Go scheduler spreads goroutines and of
// the program's own background work on the other cores.
func (p *speedProbe) sample() {
	// Let a collection the program started finish first, and start none
	// during the sample: the probe times the host, not the program's
	// garbage. The wait is not probe time; a timed stretch around the
	// sample keeps it, as it keeps the rest of the program's collection.
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	w0, c0 := time.Now(), threadCPU()
	p.warm()
	c1, t1 := threadCPU(), time.Now()
	p.run()
	wall, cpu := time.Since(t1), threadCPU()-c1
	p.walls = append(p.walls, wall.Seconds())
	p.cpus = append(p.cpus, cpu.Seconds())
	p.spentWall += time.Since(w0)
	p.spentCPU += threadCPU() - c0
}

// warm reads the whole working set once, untimed, so a sample does not
// time how much of the cache the program's work before it evicted.
func (p *speedProbe) warm() {
	var s float64
	for i := range p.a {
		s += p.a[i] + p.b[i] + p.c[i]
	}
	var x uint32
	for _, v := range p.table {
		x += v
	}
	p.sink += s + float64(x)
}

// samples runs n samples back to back.
func (p *speedProbe) samples(n int) {
	for i := 0; i < n; i++ {
		p.sample()
	}
}

// mark is the position of the next sample, for since.
func (p *speedProbe) mark() int { return len(p.walls) }

// speed says how fast the host ran, relative to the probe's reference,
// over a stretch of samples.
type speed struct {
	samples int
	// wall and cpu are the reference over the mean probe time: the factors
	// that scale totals and means of long stretches, whose slow moments
	// weigh in as they do in the probe's mean.
	wall, cpu float64
	// typical is the reference over the median probe wall time: the
	// factor for medians of short stretches, which are timed at a typical
	// moment as the median probe is.
	typical float64
	// floor is the reference over the probe's tenth-percentile wall time:
	// the factor for best-of-repeats figures, which, like the probe's
	// faster samples, come from the host's calmer moments.
	floor float64
}

// since returns the host's speed over the samples from mark on.
func (p *speedProbe) since(mark int) speed {
	walls, cpus := p.walls[mark:], p.cpus[mark:]
	if len(walls) == 0 {
		return speed{wall: 1, cpu: 1, typical: 1, floor: 1}
	}
	low, _ := percentile(walls, 0.10)
	return speed{
		samples: len(walls),
		wall:    probeRefWall / mean(walls),
		cpu:     probeRefCPU / mean(cpus),
		typical: probeRefWall / median(walls),
		floor:   probeRefWall / low,
	}
}

// threadCPU is the CPU time of the calling OS thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3
