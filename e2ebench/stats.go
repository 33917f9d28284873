package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"smartsock/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (the "type 7" estimator), leaving xs as it
// was. An empty sample reports NaN so a missing measurement can never
// pass for a fast one.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// windowedTail is the median of the q-quantiles of consecutive chunks
// of samples, taken in completion order, each chunk just large enough
// to hold ten samples beyond its q-quantile (100 for p90, 1000 for
// p99). A shared host stalls now and then; pooled, one stall decides
// the tail of a whole run, while the median over chunks reports the
// tail a typical stretch of the run had. With fewer than two chunks'
// worth of samples it is the plain q-quantile.
func windowedTail(xs []float64, q float64) float64 {
	chunk := int(math.Round(10 / (1 - q)))
	k := len(xs) / chunk
	if k < 2 {
		return quantile(xs, q)
	}
	tails := make([]float64, k)
	for i := range tails {
		end := (i + 1) * chunk
		if i == k-1 {
			end = len(xs)
		}
		tails[i] = quantile(xs[i*chunk:end], q)
	}
	return quantile(tails, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func inverseSum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += 1 / x
	}
	return s
}

// ratio divides, reporting 0 for an empty base: a per-operation count
// over no operations is "none happened", not a measurement failure.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// obsWindow is the difference of two registry snapshots: everything
// a layer did between them.
type obsWindow struct {
	before, after obs.Snapshot
}

func (w obsWindow) counter(name string) float64 {
	return float64(w.after.Counters[name] - w.before.Counters[name])
}

// hist returns the histogram's bucket counts accumulated inside the
// window, summed over every named histogram (the wizard splits its
// latency by outcome).
func (w obsWindow) hist(names ...string) obs.HistogramSnapshot {
	var out obs.HistogramSnapshot
	for _, name := range names {
		a, b := w.after.Histograms[name], w.before.Histograms[name]
		if out.Counts == nil {
			out.Bounds = a.Bounds
			out.Counts = make([]uint64, len(a.Counts))
		}
		for i := range a.Counts {
			var prev uint64
			if i < len(b.Counts) {
				prev = b.Counts[i]
			}
			out.Counts[i] += a.Counts[i] - prev
		}
		out.Count += a.Count - b.Count
		out.Sum += a.Sum - b.Sum
	}
	return out
}

// histQuantile estimates a quantile from bucket counts, interpolating
// linearly inside the bucket where the rank falls. obs's own Quantile
// reports the bucket's upper bound, which would make every run of a
// workload read the same value; interpolation keeps the estimate
// continuous in the counts. The overflow bucket is taken to span up
// to twice the last bound, as obs assumes. Empty histograms read 0.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	lo := 0.0
	for i, c := range h.Counts {
		hi := 2 * float64(h.Bounds[len(h.Bounds)-1])
		if i < len(h.Bounds) {
			hi = float64(h.Bounds[i])
		}
		if c > 0 && cum+float64(c) >= rank {
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
		lo = hi
	}
	return lo
}

func histMean(h obs.HistogramSnapshot) float64 {
	return ratio(float64(h.Sum), float64(h.Count))
}

// procSample is the process-wide cost counters at one instant.
type procSample struct {
	cpu     time.Duration // user + system CPU time
	mallocs uint64
	bytes   uint64
	gcCPU   float64 // cumulative GC CPU seconds
	at      time.Time
}

// processCPU is the process's user + system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sampleProc() procSample {
	cpu := processCPU()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	var gcCPU float64
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = gc[0].Value.Float64()
	}
	return procSample{
		cpu:     cpu,
		mallocs: mem.Mallocs,
		bytes:   mem.TotalAlloc,
		gcCPU:   gcCPU,
		at:      time.Now(),
	}
}

// cpuTicks are the host's aggregate CPU time counters, in clock ticks.
type cpuTicks struct{ total, steal uint64 }

// readCPUTicks reads the aggregate cpu line of /proc/stat. Where it
// cannot be read, every reading is zero and no time counts as stolen.
func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	// user nice system idle iowait irq softirq steal; the guest
	// columns after them are already counted in user and nice.
	for i, field := range f[1:9] {
		v, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of the host's CPU time between two readings
// that the hypervisor gave to other guests.
func stealShare(a, b cpuTicks) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
