package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" default), so a
// spread computed here matches one computed from the same values there. A
// single sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	s := sorted(xs)
	if len(s) == 1 {
		return s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// tail picks the highest percentile of tailLadder with at least minTail
// samples strictly beyond it and returns it with its value and that count.
// ok is false when even the median has fewer than minTail samples above it.
func tail(xs []float64) (p, value float64, beyond int, ok bool) {
	for _, p := range tailLadder {
		v := percentile(xs, p)
		n := 0
		for _, x := range xs {
			if x > v {
				n++
			}
		}
		if n >= minTail {
			return p, v, n, true
		}
	}
	return 0, math.NaN(), 0, false
}

// worsening is how far cur is worse than base for a metric where "better"
// is "lower" or "higher"; a negative value is an improvement.
func worsening(better string, base, cur float64) float64 {
	if better == "higher" {
		return base - cur
	}
	return cur - base
}

// regressed reports whether cur is worse than base by more than the
// metric's bound (a share of base) and by more than its absolute floor.
func regressed(d metricDef, base, cur float64) bool {
	w := worsening(d.Better, base, cur)
	if w <= 0 || w <= d.Floor {
		return false
	}
	return w > d.Bound*math.Abs(base)
}
