// Package stats provides the small statistical toolkit used by the
// experiment harness: streaming moments (Welford), order statistics,
// normal-approximation confidence intervals, and fixed-width histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Acc is a streaming accumulator of count, mean and variance (Welford's
// algorithm), plus min and max. The zero value is ready to use.
type Acc struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add feeds one observation.
func (a *Acc) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// AddAll feeds a slice of observations.
func (a *Acc) AddAll(xs []float64) {
	for _, x := range xs {
		a.Add(x)
	}
}

// N returns the number of observations.
func (a *Acc) N() int64 { return a.n }

// Mean returns the sample mean (0 if empty).
func (a *Acc) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 if n < 2).
func (a *Acc) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Acc) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest observation (0 if empty).
func (a *Acc) Min() float64 { return a.min }

// Max returns the largest observation (0 if empty).
func (a *Acc) Max() float64 { return a.max }

// StdErr returns the standard error of the mean.
func (a *Acc) StdErr() float64 {
	if a.n < 2 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// CI95 returns the half-width of a 95% normal-approximation confidence
// interval for the mean.
func (a *Acc) CI95() float64 { return 1.96 * a.StdErr() }

// String renders "mean ± ci95 (n=..)"; used by the harness tables.
func (a *Acc) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", a.Mean(), a.CI95(), a.n)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It copies and sorts its input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// Quantiles returns several quantiles with a single sort.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, q := range qs {
		out[i] = quantileSorted(s, q)
	}
	return out
}

func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Summary is a one-shot descriptive summary of a sample.
type Summary struct {
	N                  int
	Mean, StdDev       float64
	Min, P25, P50, P75 float64
	P95, Max           float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	var a Acc
	a.AddAll(xs)
	qs := Quantiles(xs, 0.25, 0.5, 0.75, 0.95)
	return Summary{
		N:      len(xs),
		Mean:   a.Mean(),
		StdDev: a.StdDev(),
		Min:    a.Min(),
		P25:    qs[0],
		P50:    qs[1],
		P75:    qs[2],
		P95:    qs[3],
		Max:    a.Max(),
	}
}
