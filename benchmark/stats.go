package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns, so
// that -compare and the driver judge a spread by the same rule. A single
// value is its own quartiles.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, med, _ := quartiles(v)
	return med
}

// sample is one metric of one run: the median over its repetitions (or over
// its traced ops), with the quartiles and the count beside it.
type sample struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func newSample(name, unit string, v []float64) sample {
	q1, med, q3 := quartiles(v)
	return sample{Name: name, Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(v)}
}
