package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail figure resting on fewer is one outlier.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// how many samples rank strictly above it. xs need not be sorted.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	idx = max(0, min(idx, len(s)-1))
	return s[idx], len(s) - 1 - idx
}

// tailLadder is the set of tail percentiles the benchmark may report,
// highest first.
var tailLadder = []float64{0.999, 0.99, 0.98, 0.95, 0.90, 0.75}

// highestTail returns the highest percentile on tailLadder that has at
// least minBeyond of n samples above it, or 0 when n is too small for
// any of them.
func highestTail(n int) float64 {
	for _, q := range tailLadder {
		idx := int(math.Ceil(q*float64(n))) - 1
		if idx >= 0 && n-1-idx >= minBeyond {
			return q
		}
	}
	return 0
}

// timing is a latency summary: the median, the named tail percentile,
// the sample count, and the highest tail the sample count supports.
type timing struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailQ   float64 `json:"tail_q"`
	Highest float64 `json:"highest_supported_q"`
}

// summarize computes a timing for the named tail q and fails when the
// sample count cannot support q by the minBeyond rule.
func summarize(what string, xs []float64, q float64) (timing, error) {
	t := timing{N: len(xs), TailQ: q, Highest: highestTail(len(xs))}
	if len(xs) == 0 {
		return t, fmt.Errorf("%s: no samples", what)
	}
	t.P50, _ = percentile(xs, 0.5)
	var beyond int
	t.Tail, beyond = percentile(xs, q)
	if beyond < minBeyond {
		return t, fmt.Errorf("%s: p%g rests on %d samples beyond it (%d total), want >= %d",
			what, q*100, beyond, len(xs), minBeyond)
	}
	return t, nil
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), as Python's statistics.median does.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 of xs by Python's
// statistics.quantiles(xs, n=4) default ('exclusive') method, which the
// steadiness check is defined against. It needs at least two values.
func quartiles(xs []float64) ([3]float64, error) {
	var out [3]float64
	ld := len(xs)
	if ld < 2 {
		return out, fmt.Errorf("quartiles need at least 2 values, have %d", ld)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out, nil
}

// spread is the interquartile distance of xs as a share of its median:
// the run-to-run noise figure a metric's bound is checked against.
func spread(xs []float64) (float64, error) {
	q, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	med := median(xs)
	if med == 0 {
		return 0, fmt.Errorf("median is 0")
	}
	return math.Abs(q[2]-q[0]) / math.Abs(med), nil
}
