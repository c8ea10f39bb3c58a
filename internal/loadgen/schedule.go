package loadgen

import "time"

// Limits bounds a paced run: N caps the number of arrivals, D the
// recorded offset (both 0 = unlimited). D is in recorded time, before the
// speedup compression, so "the first 10s of the trace" is the same slice
// at any speedup.
type Limits struct {
	N int
	D time.Duration
}

// Pace fires fn(i) at each recorded offset divided by speedup (≤ 0 means
// 1), open-loop: fn is expected to dispatch asynchronously, so one slow
// request never delays later arrivals — exactly the arrival process the
// offsets prescribe. Offsets must be non-decreasing. Returns the number of
// arrivals fired.
func Pace(offsets []time.Duration, speedup float64, lim Limits, fn func(i int)) int {
	if speedup <= 0 {
		speedup = 1
	}
	start := time.Now()
	for i, off := range offsets {
		if lim.N > 0 && i >= lim.N || lim.D > 0 && off > lim.D {
			return i
		}
		time.Sleep(time.Until(start.Add(time.Duration(float64(off) / speedup))))
		fn(i)
	}
	return len(offsets)
}
