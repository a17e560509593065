package main

import (
	"math"
	"slices"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of samples by linear
// interpolation between the two nearest order statistics, so the value
// keeps every digit of the measurements instead of snapping to one of
// them. samples is sorted in place; 0 for no samples.
func percentile(samples []int64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	pos := p * float64(len(samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(samples[lo])*(1-frac) + float64(samples[hi])*frac
}

// median is percentile(samples, 0.5).
func median(samples []int64) float64 { return percentile(samples, 0.5) }

// geomean returns the geometric mean of positive values; 0 when any is
// not positive, so a missing measurement cannot hide in the mean.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// mean returns the arithmetic mean of vs.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Unit conversions from nanosecond samples.
func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }

// probePhis is the 100-point φ grid every workload queries.
func probePhis() []float64 { return gridPhis(100) }

// gridPhis returns k evenly spaced fractions 1/(k+1), …, k/(k+1).
func gridPhis(k int) []float64 {
	phis := make([]float64, k)
	for i := range phis {
		phis[i] = float64(i+1) / float64(k+1)
	}
	return phis
}
