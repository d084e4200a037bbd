package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sizes are the workload dimensions. The full sizes serve the benchmark
// runs; the smoke sizes keep the harness's own tests fast.
type sizes struct {
	smoke bool
	// setups is how many times a run sets its workload up; setup_s is
	// the median of their durations.
	setups int
	// cycleSteps truncates each drive cycle (0 keeps whole cycles).
	cycleSteps int
	// A run cuts its window into slices and reports each latency
	// percentile as a median over slices. passesPerSlice is a
	// cycles-otem slice (two passes hold about 1,400 replans, so a
	// slice's p99 has at least ten samples beyond it); sliceRequests is a
	// serve-mix slice; a fleet-parallel slice is one fleet run. minSlices
	// is the fewest slices a window measures.
	passesPerSlice, sliceRequests, minSlices int
	// fleetVehicles sizes one fleet-parallel run, fleetWarm the warm-up
	// fleet, qualityFleets the runs whose means give qloss_pct and
	// energy_kj.
	fleetVehicles, fleetWarm, qualityFleets int
	// serveWarm is the warm-up requests each client sends during set-up.
	serveWarm int
	// qualitySpecs is how many simulate misses per client enter the
	// serve-mix qloss_pct and energy_kj means.
	qualitySpecs int
	// probe scales the direct layer probes of a traced run.
	probe int
}

var fullSizes = sizes{
	setups:         5,
	passesPerSlice: 2,
	sliceRequests:  2000,
	minSlices:      3,
	fleetVehicles:  4096,
	fleetWarm:      1024,
	qualityFleets:  8,
	serveWarm:      96,
	qualitySpecs:   90,
	probe:          8,
}

var smokeSizes = sizes{
	smoke:          true,
	setups:         2,
	cycleSteps:     40,
	passesPerSlice: 1,
	sliceRequests:  10,
	minSlices:      2,
	fleetVehicles:  48,
	fleetWarm:      16,
	qualityFleets:  2,
	serveWarm:      2,
	qualitySpecs:   4,
	probe:          1,
}

// timeSetups runs set-up n times and returns the median duration. Each
// call replaces the state the previous one built.
func timeSetups(n int, setup func() error) (float64, error) {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// slice is one stretch of a measured window: the operations it
// completed, its length in wall seconds and on the run's CPU clock, and
// the latency percentiles of its operations.
type slice struct {
	ops       int
	wall, cpu float64
	p50, p99  float64
}

// summarize returns a window's rate, operations per second of the CPU
// clock over the whole window, and the medians over its slices of each
// slice's p50 and p99. The rate averages the window's slow and fast
// stretches; a percentile's median over slices leaves out a slice a
// burst of the host's neighbours hit.
func summarize(ss []slice) (rate, p50, p99 float64) {
	var ops, cpu float64
	var a, b []float64
	for _, s := range ss {
		ops += float64(s.ops)
		cpu += s.cpu
		a, b = append(a, s.p50), append(b, s.p99)
	}
	if cpu > 0 {
		rate = ops / cpu
	}
	return rate, median(a), median(b)
}

// wallRate is a window's operations per wall-clock second.
func wallRate(ss []slice) float64 {
	var ops, wall float64
	for _, s := range ss {
		ops += float64(s.ops)
		wall += s.wall
	}
	if wall <= 0 {
		return 0
	}
	return ops / wall
}

// quantile returns the q-quantile of xs by the nearest-rank rule. It
// sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// weighted is a sample that stands for w equal observations.
type weighted struct{ v, w float64 }

// weightedQuantile is quantile over samples with integer weights. It
// sorts xs in place.
func weightedQuantile(xs []weighted, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].v < xs[j].v })
	var total float64
	for _, x := range xs {
		total += x.w
	}
	rank := math.Ceil(q * total)
	var acc float64
	for _, x := range xs {
		acc += x.w
		if acc >= rank {
			return x.v
		}
	}
	return xs[len(xs)-1].v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's peak resident set (VmHWM), in MiB. Where
// /proc is missing it falls back to the memory the Go runtime obtained.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// memDelta samples the runtime's allocation counters around a window.
type memDelta struct{ mallocs, bytes, gcs uint64 }

func readMem() memDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memDelta{m.Mallocs, m.TotalAlloc, uint64(m.NumGC)}
}

func (a memDelta) since(b memDelta) memDelta {
	return memDelta{a.mallocs - b.mallocs, a.bytes - b.bytes, a.gcs - b.gcs}
}

// finite reports whether every value is a finite number.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
