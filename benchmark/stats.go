package main

import (
	"math"
	"sort"
	"time"

	"mntp/internal/ntptime"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (the same rule as numpy's default). xs is
// sorted in place. NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return quantileSorted(xs, q)
}

func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// offsetDelay computes the client's clock offset θ and round-trip
// delay δ from the four exchange timestamps (RFC 5905 §8):
//
//	θ = ((T2 − T1) + (T3 − T4)) / 2
//	δ = (T4 − T1) − (T3 − T2)
//
// T1 and T4 are the client's send and receive instants, T2 and T3 the
// server's receive and transmit stamps. Differences are taken in NTP
// timestamp arithmetic so era wrap is handled.
func offsetDelay(t1, t2, t3, t4 ntptime.Timestamp) (theta, delay time.Duration) {
	theta = (t2.Sub(t1) + t3.Sub(t4)) / 2
	delay = t4.Sub(t1) - t3.Sub(t2)
	return theta, delay
}

// absDur returns |d|.
func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
