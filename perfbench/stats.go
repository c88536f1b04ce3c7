package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// samples: the smallest sample with at least p% of all samples at or
// below it. samples need not be sorted; 0 for an empty slice.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sortedCopy(samples)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailSupported reports whether the p-th percentile of n samples has at
// least ten samples beyond it — the rule for which tail percentile a
// timing may be reported at.
func tailSupported(n int, p float64) bool {
	return n > 0 && n-nearestRank(n, p) >= 10
}

// median is the 50th nearest-rank percentile.
func median(samples []float64) float64 { return percentile(samples, 50) }

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// op is one measured operation of a closed loop: when it started and
// ended, and whether it was answered correctly.
type op struct {
	start, end time.Time
	ok         bool
}

// windowRates splits ops into consecutive windows of size operations and
// returns each full window's correct operations per second, from its
// first operation's start to its last one's end. The median of these is
// the reported throughput: a slow stretch of the host moves a few windows
// instead of the whole run's mean.
func windowRates(ops []op, size int) []float64 {
	var out []float64
	for i := 0; i+size <= len(ops); i += size {
		w := ops[i : i+size]
		good := 0
		for _, o := range w {
			if o.ok {
				good++
			}
		}
		out = append(out, ratio(float64(good), w[size-1].end.Sub(w[0].start).Seconds()))
	}
	return out
}

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is a half-open time range [Start, End) in seconds since the run
// began.
type interval struct{ Start, End float64 }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap each other and extend past the parent; only
// their union clipped to the parent counts.
func selfTime(parent interval, children []interval) float64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.Start = math.Max(c.Start, parent.Start)
		c.End = math.Min(c.End, parent.End)
		if c.End > c.Start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	covered := 0.0
	cur := interval{Start: math.Inf(-1), End: math.Inf(-1)}
	for _, c := range clipped {
		if c.Start > cur.End {
			if cur.End > cur.Start {
				covered += cur.End - cur.Start
			}
			cur = c
			continue
		}
		cur.End = math.Max(cur.End, c.End)
	}
	if cur.End > cur.Start {
		covered += cur.End - cur.Start
	}
	return parent.End - parent.Start - covered
}
