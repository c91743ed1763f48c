package main

import (
	"sort"
	"time"
)

// durations collects one timing per operation.
type durations []time.Duration

// quantile returns the nearest-rank q-quantile (0 < q <= 1) in
// microseconds; 0 for an empty sample.
func (d durations) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return us(s[i])
}

// mean returns the mean in microseconds; 0 for an empty sample.
func (d durations) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return us(sum) / float64(len(d))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// median of a small float sample (the repeated set-ups).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
