package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it sorts in place. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median is percentile(xs, 50) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sample is one open-loop request as the generator saw it. Offsets are
// from the start of the step's schedule.
type sample struct {
	due      time.Duration // when the schedule said to send it
	sent     time.Duration // when a connection actually sent it
	latency  time.Duration // completion minus due: includes the generator's lateness
	failed   bool          // error, timeout, 429 or 5xx
	rejected bool          // refused by admission (429)
	source   string        // the response's runner tier ("memory", "shard", "simulated", ...)
}

func (s sample) late() time.Duration { return s.sent - s.due }

// backlogGrowing reports whether the generator fell further behind its
// schedule as the step went on: the median lateness of the last quarter of
// requests (in due order) exceeds the first quarter's by more than tol.
// A system keeping up shows flat lateness however busy it is; one that
// cannot shows lateness rising with every request.
func backlogGrowing(samples []sample, tol time.Duration) bool {
	n := len(samples) / 4
	if n == 0 {
		return false
	}
	first := make([]float64, 0, n)
	last := make([]float64, 0, n)
	for _, s := range samples[:n] {
		first = append(first, float64(s.late()))
	}
	for _, s := range samples[len(samples)-n:] {
		last = append(last, float64(s.late()))
	}
	return median(last)-median(first) > float64(tol)
}

// windowSize is the fewest requests a window holds, so each window's
// p99 has at least ten requests beyond it. A phase's p99 is the median
// of its windows' p99s, so one window hit by a host hiccup does not
// decide it.
const windowSize = 1000

// latencyMS is a sample's latency in ms; a failed request counts at
// failedMS, so it misses any limit.
func latencyMS(s sample, failedMS float64) float64 {
	if s.failed {
		return failedMS
	}
	return ms(s.latency)
}

// windowed splits samples (in due order) into consecutive windows of at
// least windowSize requests (one window if there are fewer) and returns
// the median of their nearest-rank p-th percentiles.
func windowed(samples []sample, p, failedMS float64) float64 {
	w := max(1, len(samples)/windowSize)
	qs := make([]float64, 0, w)
	for i := 0; i < w; i++ {
		part := samples[i*len(samples)/w : (i+1)*len(samples)/w]
		lat := make([]float64, len(part))
		for j, s := range part {
			lat[j] = latencyMS(s, failedMS)
		}
		qs = append(qs, percentile(lat, p))
	}
	return median(qs)
}

// step summarises one rate of the ladder.
type step struct {
	rate    float64
	n       int
	failed  int
	p99ms   float64
	growing bool
}

// summarize computes a ladder step from its samples.
func summarize(rate float64, samples []sample, tol time.Duration, failedMS float64) step {
	st := step{rate: rate, n: len(samples)}
	for _, s := range samples {
		if s.failed {
			st.failed++
		}
	}
	st.p99ms = windowed(samples, 99, failedMS)
	st.growing = backlogGrowing(samples, tol)
	return st
}

// meets reports whether a step sustained its rate: every request
// succeeded, p99 stayed within the limit, and no backlog built up.
func (s step) meets(limitMS float64) bool {
	return s.n > 0 && s.failed == 0 && s.p99ms <= limitMS && !s.growing
}

// bisect finds the highest rung of an n-rung ascending ladder that
// meets the limit, probing bits.Len(n) rungs on the assumption that a rung
// meets it only if every lower rung does. It returns -1 when none does.
func bisect(n int, meets func(rung int) (bool, error)) (int, error) {
	lo, hi := -1, n
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := meets(mid)
		if err != nil {
			return lo, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// busySpan is one Executor call, as offsets from the sweep's start.
type busySpan struct{ start, end time.Duration }

// tailAfterSaturation returns how long the sweep ran after the worker pool
// was last fully busy: wall minus the end of the last instant at which
// `workers` spans overlapped. With fewer spans than workers the pool was
// never saturated and the whole wall counts as tail.
func tailAfterSaturation(spans []busySpan, workers int, wall time.Duration) time.Duration {
	type edge struct {
		at    time.Duration
		delta int
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		edges = append(edges, edge{s.start, +1}, edge{s.end, -1})
	}
	// Ends sort before starts at the same instant, so back-to-back spans
	// on one worker do not count as overlap.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	active := 0
	lastFull := time.Duration(-1)
	for _, e := range edges {
		if active >= workers && e.delta < 0 {
			lastFull = e.at
		}
		active += e.delta
	}
	if lastFull < 0 {
		return wall
	}
	return wall - lastFull
}
