package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return float64(xs[len(xs)-1])
	}
	frac := pos - float64(lo)
	return float64(xs[lo])*(1-frac) + float64(xs[lo+1])*frac
}

// median of a small set of per-window or per-set-up values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// window is one fixed amount of work of one kind: a probe pass, the
// inserts or probes of one ingest cycle, or one process's preload.
type window struct {
	rate float64 // keys per wall second
	lat  []int64 // ns per request
}

func rates(ws []window) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = w.rate
	}
	return out
}

// minTailSamples is the smallest window whose p99 has ten requests beyond
// it.
const minTailSamples = 1000

// summary reduces a run's windows of one kind to the reported figures:
// the median over windows of the rate, the p50 and the p99. A burst of
// interference from other tenants of the host then moves a figure only if
// it covers half the windows.
type summary struct {
	rate, p50, p99 float64
	windows        int
	smallest       int // requests in the smallest window
}

func summarize(ws []window) summary {
	var p50s, p99s []float64
	s := summary{windows: len(ws), smallest: math.MaxInt}
	for _, w := range ws {
		p50s = append(p50s, quantile(w.lat, 0.50))
		p99s = append(p99s, quantile(w.lat, 0.99))
		s.smallest = min(s.smallest, len(w.lat))
	}
	s.rate, s.p50, s.p99 = median(rates(ws)), median(p50s), median(p99s)
	return s
}
