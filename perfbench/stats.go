package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule;
// xs is sorted in place. An empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cpuClock reads the runtime's GC and total CPU seconds.
type cpuClock struct{ gc, total float64 }

func readCPU() cpuClock {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuClock{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// gcFrac is the share of CPU spent in GC between two readings.
func gcFrac(a, b cpuClock) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.gc - a.gc) / (b.total - a.total)
}

// acrossRounds is the median over the rounds of one round's figure.
func acrossRounds(ps []*pass, f func(*pass) float64) float64 {
	vals := make([]float64, len(ps))
	for i, p := range ps {
		vals[i] = f(p)
	}
	return median(vals)
}

// pooled is the at-quantile of one per-round sample pooled over the rounds.
func pooled(ps []*pass, f func(*pass) []float64, at float64) float64 {
	var all []float64
	for _, p := range ps {
		all = append(all, f(p)...)
	}
	return quantile(all, at)
}
