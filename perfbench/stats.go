package main

import (
	"math"
	"slices"
)

// ladder is the percentiles a latency summary may report as its tail.
var ladder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// summary describes a latency sample in microseconds.
type summary struct {
	n              int
	p50, p99, p999 float64
	// topPct is the highest ladder percentile with at least ten samples
	// beyond it (0 when even the median lacks them); top is its value.
	topPct, top float64
}

// rank is the 1-based nearest-rank index of percentile p among n samples.
// The epsilon keeps float error from pushing an exact rank such as
// 99.9% of 10000 one sample up.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return max(1, min(r, n))
}

// summarize sorts ns (latencies in nanoseconds) in place and summarizes it.
func summarize(ns []uint32) summary {
	s := summary{n: len(ns)}
	if len(ns) == 0 {
		return s
	}
	slices.Sort(ns)
	at := func(p float64) float64 { return float64(ns[rank(len(ns), p)-1]) / 1e3 }
	s.p50, s.p99, s.p999 = at(50), at(99), at(99.9)
	for _, p := range ladder {
		if len(ns)-rank(len(ns), p) >= 10 {
			s.topPct, s.top = p, at(p)
		}
	}
	return s
}
