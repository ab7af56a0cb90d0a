package main

import (
	"math"
	"sort"
	"time"
)

// failedLatency stands in for the latency of a failed or unanswered
// request: it sorts above every real sample, so a failure misses every
// latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// minTail is the number of samples that must lie beyond a percentile for it
// to be reported.
const minTail = 10

// quantileOK reports whether n samples support the q-quantile: at least
// minTail samples must rank above it.
func quantileOK(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= minTail
}

// quantile returns the nearest-rank q-quantile of sorted (ascending).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	rank = min(max(rank, 0), len(sorted)-1)
	return sorted[rank]
}

// latencySummary is the client-latency distribution of one measured window.
type latencySummary struct {
	samples       int
	p50, p90, p99 time.Duration
	p99OK         bool
}

func summarize(lat []time.Duration) latencySummary {
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return latencySummary{
		samples: len(sorted),
		p50:     quantile(sorted, 0.50),
		p90:     quantile(sorted, 0.90),
		p99:     quantile(sorted, 0.99),
		p99OK:   quantileOK(len(sorted), 0.99),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianDur returns the median of ds (0 when empty).
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantile(s, 0.5)
}
