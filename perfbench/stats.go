package main

import (
	"math"
	"sort"
)

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// geomean is the geometric mean of xs (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logs := 0.0
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// frac is a/b, 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
