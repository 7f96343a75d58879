package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending without touching the caller's
// slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points of xs by the "exclusive" method,
// the default of Python's statistics.quantiles(data, n=4): the spread
// check over repeated runs uses that function, so the benchmark's own
// summaries use the same arithmetic. It needs at least two values; with
// one it returns that value three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), 0 for no values.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailOf reports the highest percentile the sample count can support:
// p99, or lower when fewer than ten samples would lie beyond p99. The
// value is the nearest-rank sample k = min(⌈0.99·n⌉, n−10), so at least
// ten samples lie beyond it and it is never a lone outlier; the
// percentile returned is 100·k/n. A tail is never reported below the
// median: with fewer than twenty samples tailOf returns the median as
// p50.
func tailOf(xs []float64) (pct, value float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	k := min(rank(99, n), n-10)
	if k < rank(50, n) {
		return 50, median(s)
	}
	return 100 * float64(k) / float64(n), s[k-1]
}

// groupMedians groups xs by the parallel group labels and returns each
// group's median.
func groupMedians(xs []float64, group []int) map[int]float64 {
	by := map[int][]float64{}
	for i, x := range xs {
		by[group[i]] = append(by[group[i]], x)
	}
	out := make(map[int]float64, len(by))
	for g, v := range by {
		out[g] = median(v)
	}
	return out
}

// meanOfGroupMedians averages the per-group medians of xs. Batch runs
// rotate through several generated inputs whose run times differ; a
// plain median would pick one input's time, while this weighs every
// input equally.
func meanOfGroupMedians(xs []float64, group []int) float64 {
	meds := groupMedians(xs, group)
	if len(meds) == 0 {
		return 0
	}
	var sum float64
	for _, v := range meds {
		sum += v
	}
	return sum / float64(len(meds))
}

// pairedRatio is the mean, over the groups present in both series, of
// median(a)/median(b): a ratio between two treatments that the
// differences between groups do not bias.
func pairedRatio(a []float64, ga []int, b []float64, gb []int) float64 {
	ma, mb := groupMedians(a, ga), groupMedians(b, gb)
	var sum float64
	n := 0
	for g, x := range ma {
		if y, ok := mb[g]; ok && y > 0 {
			sum += x / y
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// rank is the 1-based nearest rank of percentile p among n values.
func rank(p float64, n int) int {
	return max(1, int(math.Ceil(p*float64(n)/100)))
}

// percentile is the nearest-rank percentile p of xs, 0 for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rank(p, len(s))-1]
}

// outcome classifies one attempted client operation.
type outcome int

const (
	outcomeOK        outcome = iota // 2xx
	outcomeRefused                  // 429: admission control turned it away
	outcomeClientErr                // other 4xx
	outcomeServerErr                // 5xx
	outcomeTransport                // no HTTP status at all
)

// classify maps a response status (or transport error) to its outcome.
// Everything except 2xx is a failure: a refused or errored operation
// counts against error_rate exactly like a wrong answer.
func classify(status int, err error) outcome {
	switch {
	case err != nil:
		return outcomeTransport
	case status >= 200 && status < 300:
		return outcomeOK
	case status == 429:
		return outcomeRefused
	case status >= 500:
		return outcomeServerErr
	default:
		return outcomeClientErr
	}
}

func (o outcome) String() string {
	return [...]string{"ok", "refused", "client_error", "server_error", "transport_error"}[o]
}

// reconciliation splits one run's wall time into parts that add up to it
// exactly. The engine phases come from the tracer and the run's steps
// from the benchmark's own clock; whatever the phases do not cover is
// reported as an explicit remainder rather than silently dropped.
type reconciliation struct {
	Wall   time.Duration // the run, start to finish
	Steps  time.Duration // Σ Engine.Step wall
	Phases time.Duration // Σ match+redact+fire+apply wall
	Loop   time.Duration // Wall − Steps: the run loop around Step
	Other  time.Duration // Steps − Phases: eligible-set scan, sort and callbacks
}

// reconcile computes the two remainders. It fails when a part exceeds
// its whole, which only a broken clock or overlapping spans can cause.
func reconcile(wall, steps, phases time.Duration) (reconciliation, error) {
	r := reconciliation{Wall: wall, Steps: steps, Phases: phases, Loop: wall - steps, Other: steps - phases}
	if r.Loop < 0 {
		return r, fmt.Errorf("steps (%v) exceed run wall (%v)", steps, wall)
	}
	if r.Other < 0 {
		return r, fmt.Errorf("phases (%v) exceed step wall (%v)", phases, steps)
	}
	return r, nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
