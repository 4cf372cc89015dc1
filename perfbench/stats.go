package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// series is one metric sampled once per repeat (a repro pass, a sweep
// or sessions round, a set-up repetition). Its summary is the median
// with the first and third quartiles, so the noise sits beside the
// number.
type series struct {
	Name string    `json:"name"`
	Unit string    `json:"unit"`
	Vals []float64 `json:"values"`
}

func (s *series) add(v float64) { s.Vals = append(s.Vals, v) }

// summary is a series reduced to median and quartiles across repeats.
type summary struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func (s *series) summary() summary {
	q1, med, q3 := quartiles(s.Vals)
	return summary{Name: s.Name, Unit: s.Unit, Median: med, Q1: q1, Q3: q3, N: len(s.Vals)}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(data, n=4) returns (the default "exclusive"
// method), so spreads computed here and by a Python reader agree. A
// single sample is its own quartiles; no samples give NaN.
func quartiles(vals []float64) (q1, med, q3 float64) {
	n := len(vals)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return vals[0], vals[0], vals[0]
	}
	x := append([]float64(nil), vals...)
	sort.Float64s(x)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle cut of quartiles.
func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// tail is the highest percentile of a latency sample that still has at
// least ten samples beyond it: with n sorted samples that is the value
// at rank n-11, percentile 100*(n-10)/n. Below 11 samples no percentile
// qualifies; the maximum is reported and marked as such.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	N          int     `json:"n"`
	Max        bool    `json:"fallback_to_max,omitempty"`
}

func tailOf(vals []float64) tail {
	n := len(vals)
	if n == 0 {
		return tail{Value: math.NaN()}
	}
	x := append([]float64(nil), vals...)
	sort.Float64s(x)
	if n < 11 {
		return tail{Value: x[n-1], Percentile: 100, N: n, Max: true}
	}
	return tail{Value: x[n-11], Percentile: 100 * float64(n-10) / float64(n), N: n}
}

func (t tail) String() string {
	if t.Max {
		return fmt.Sprintf("max of %d samples (too few for a tail)", t.N)
	}
	return fmt.Sprintf("p%.2f of %d samples", t.Percentile, t.N)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
