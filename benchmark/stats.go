package main

import (
	"sort"
	"time"
)

// hi returns the "high" order statistic reported beside a median: the one
// with exactly ten samples above it (the choosing-metrics rule: the highest
// percentile that still has ten samples beyond it). With too few samples for
// that to lie above the median it is the maximum.
func hi(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if i := len(s) - 11; i > len(s)/2 {
		return s[i]
	}
	return s[len(s)-1]
}

// quantile returns the q-th order statistic of xs (nearest rank, xs unsorted).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// since returns the time elapsed since t0 in the given unit.
func since(t0 time.Time, unit time.Duration) float64 {
	return float64(time.Since(t0)) / float64(unit)
}

// timeRounds runs fn (which performs n operations) repeatedly until at least
// minTotal has elapsed and minRounds rounds ran, and returns the median
// nanoseconds per operation over the rounds. Layer probes use it so that one
// scheduler hiccup does not decide a per-layer number.
func timeRounds(n int, minTotal time.Duration, fn func()) float64 {
	const minRounds = 5
	var per []float64
	start := time.Now()
	for len(per) < minRounds || time.Since(start) < minTotal {
		t0 := time.Now()
		fn()
		per = append(per, since(t0, time.Nanosecond)/float64(n))
	}
	return median(per)
}
