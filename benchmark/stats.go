package main

import (
	"math"
	"sort"
	"time"

	"p2b/internal/stats"
)

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule: the smallest sample with at least a share q of the
// samples at or below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median of a non-empty slice (the midpoint of the middle two when even).
func median(vals []float64) float64 { return stats.Quantile(vals, 0.5) }

// sample is one timed operation of the open loop: when it was due and how
// long after that instant it completed.
type sample struct {
	due     time.Duration // offset from the phase start
	latency time.Duration
}

// minBeyond is how many samples of a phase must lie beyond a reported
// percentile, and windowBeyond how many of one window's.
const (
	minBeyond    = 10
	windowBeyond = 2
)

// windowPercentile is the open loop's latency estimator: the phase is cut
// into equal windows by due time, each window reports its own q-quantile
// and the estimate is the median of those. A stall (a checkpoint, a
// neighbour's burst on a shared sandbox) then moves the windows it hits,
// not the estimate — the figure is the percentile of a typical half
// second, which is what repeats from run to run on a noisy machine. A
// window takes part only when at least windowBeyond of its samples lie
// beyond the quantile; if fewer than half the windows do, the stream is
// too thin for windows and the whole phase is one window. ok is false
// when fewer than minBeyond samples of the whole phase lie beyond q.
func windowPercentile(samples []sample, phase time.Duration, windows int, q float64) (v float64, ok bool) {
	need := int(math.Ceil(windowBeyond / (1 - q)))
	per := make([][]float64, windows)
	var all []float64
	for _, s := range samples {
		w := int(int64(s.due) * int64(windows) / int64(phase))
		if w < 0 || w >= windows {
			continue
		}
		ms := float64(s.latency) / float64(time.Millisecond)
		per[w] = append(per[w], ms)
		all = append(all, ms)
	}
	ok = float64(len(all))*(1-q) >= minBeyond
	var estimates []float64
	for _, lat := range per {
		if len(lat) >= need {
			sort.Float64s(lat)
			estimates = append(estimates, percentile(lat, q))
		}
	}
	if 2*len(estimates) > windows {
		return median(estimates), ok
	}
	if len(all) == 0 {
		return 0, false
	}
	sort.Float64s(all)
	return percentile(all, q), ok
}

// windowRates is the closed loop's throughput estimator: completions are
// counted per equal window of the phase and turned into units per second;
// the reported figure is the median window.
func windowRates(done []completion, phase time.Duration, windows int) []float64 {
	counts := make([]float64, windows)
	for _, c := range done {
		w := int(int64(c.at) * int64(windows) / int64(phase))
		if w >= 0 && w < windows {
			counts[w] += float64(c.units)
		}
	}
	perWindow := phase.Seconds() / float64(windows)
	for i := range counts {
		counts[i] /= perWindow
	}
	return counts
}

// completion is one finished closed-loop operation: when it finished
// (offset from the phase start) and how many units of work it carried
// (accepted reports for a POST, one for a fetch).
type completion struct {
	at    time.Duration
	units int
}

// quartileSpread is the distance between the first and third quartile of
// vals as a share of their median, with the quartiles computed the way
// Python's statistics.quantiles(vals, n=4) does (exclusive method) — the
// statistic the driver gates on. It needs at least two values.
func quartileSpread(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return (q(3) - q(1)) / math.Abs(median(s))
}
