package main

import (
	"math/bits"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	cases := []struct {
		p    float64
		want float64
	}{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	}
	for _, c := range cases {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	orig := []float64{3, 1, 2}
	if median(orig) != 2 || orig[0] != 3 {
		t.Errorf("median must not reorder its input: %v", orig)
	}
}

// openLoopSamples builds open-loop samples at rate/s whose lateness is given per
// request.
func openLoopSamples(rate float64, lateness func(i int) time.Duration, n int) []sample {
	out := make([]sample, n)
	for i := range out {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		late := lateness(i)
		out[i] = sample{due: due, sent: due + late, latency: late + time.Millisecond}
	}
	return out
}

func TestBacklogGrowing(t *testing.T) {
	tol := 5 * time.Millisecond
	flat := openLoopSamples(1000, func(i int) time.Duration { return time.Duration(i%7) * time.Millisecond }, 400)
	if backlogGrowing(flat, tol) {
		t.Error("steady lateness reported as a growing backlog")
	}
	// Falling behind by 0.1ms a request: 40ms behind by the end.
	rising := openLoopSamples(1000, func(i int) time.Duration { return time.Duration(i) * 100 * time.Microsecond }, 400)
	if !backlogGrowing(rising, tol) {
		t.Error("rising lateness not reported as a growing backlog")
	}
	if backlogGrowing(rising[:3], tol) {
		t.Error("too few samples to judge must not count as growing")
	}
}

func TestSummarizeCountsFailuresAsMisses(t *testing.T) {
	s := openLoopSamples(500, func(int) time.Duration { return 0 }, 400)
	st := summarize(500, s, 5*time.Millisecond, 1e4)
	if !st.meets(50) || st.p99ms != 1 {
		t.Fatalf("clean step: %+v, want meets with p99 1ms", st)
	}
	s[10].failed = true
	st = summarize(500, s, 5*time.Millisecond, 1e4)
	if st.failed != 1 || st.meets(50) {
		t.Fatalf("a failed request must fail the step: %+v", st)
	}
}

func TestWindowedIgnoresOneBadWindow(t *testing.T) {
	s := openLoopSamples(1000, func(int) time.Duration { return 0 }, 3*windowSize)
	// A hiccup: the first window's slowest 2% take 100ms.
	for i := 0; i < windowSize/50; i++ {
		s[i].latency = 100 * time.Millisecond
	}
	if got := windowed(s, 99, 1e4); got != 1 {
		t.Errorf("windowed p99 with one bad window = %v, want 1", got)
	}
	// The same slowness in every window is the system's p99.
	for w := 0; w < 3; w++ {
		for i := 0; i < windowSize/50; i++ {
			s[w*windowSize+i].latency = 100 * time.Millisecond
		}
	}
	if got := windowed(s, 99, 1e4); got != 100 {
		t.Errorf("windowed p99 with slowness in every window = %v, want 100", got)
	}
	if got := windowed(s, 90, 1e4); got != 1 {
		t.Errorf("windowed p90 with 2%% slow requests = %v, want 1", got)
	}
	// Fewer requests than a window: one plain percentile.
	if got := windowed(s[:windowSize/2], 99, 1e4); got != 100 {
		t.Errorf("windowed p99 on one short window = %v, want 100", got)
	}
}

func TestBisectFindsHighestPassingRung(t *testing.T) {
	for n := 1; n <= 24; n++ {
		for capacity := -1; capacity < n; capacity++ {
			probed := 0
			got, err := bisect(n, func(rung int) (bool, error) {
				probed++
				return rung <= capacity, nil
			})
			if err != nil || got != capacity {
				t.Fatalf("n=%d capacity=%d: bisect = %d, %v", n, capacity, got, err)
			}
			if probed > bits.Len(uint(n)) {
				t.Fatalf("n=%d: %d probes, want at most %d", n, probed, bits.Len(uint(n)))
			}
		}
	}
}

func TestStepMeets(t *testing.T) {
	ok := step{rate: 100, n: 100, p99ms: 10}
	if !ok.meets(50) {
		t.Error("a clean step within the limit must meet it")
	}
	for _, s := range []step{
		{rate: 100, n: 100, p99ms: 80},
		{rate: 100, n: 100, p99ms: 10, growing: true},
		{rate: 100, n: 100, p99ms: 10, failed: 1},
		{rate: 100},
	} {
		if s.meets(50) {
			t.Errorf("%+v must not meet the limit", s)
		}
	}
}

func TestTailAfterSaturation(t *testing.T) {
	span := func(a, b int) busySpan {
		return busySpan{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	// Two workers busy together until 60ms, then one runs alone to 100ms.
	spans := []busySpan{span(0, 30), span(0, 50), span(30, 60), span(50, 100)}
	if got := tailAfterSaturation(spans, 2, 100*time.Millisecond); got != 40*time.Millisecond {
		t.Errorf("tail = %v, want 40ms", got)
	}
	// One worker back to back never saturates a pool of two.
	if got := tailAfterSaturation([]busySpan{span(0, 10), span(10, 20)}, 2, 20*time.Millisecond); got != 20*time.Millisecond {
		t.Errorf("unsaturated tail = %v, want the whole wall", got)
	}
}

func TestSplitResponse(t *testing.T) {
	src, rep, ok := splitResponse([]byte(`{"source":"memory","report":{"a":1,"b":{"c":2}}}`))
	if !ok || src != "memory" || string(rep) != `{"a":1,"b":{"c":2}}` {
		t.Errorf("splitResponse = %q %q %v", src, rep, ok)
	}
	if _, _, ok := splitResponse([]byte(`{"error":"x"}`)); ok {
		t.Error("an error body must not parse as a run response")
	}
}

func TestAnotherSweep(t *testing.T) {
	sec := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
	cases := []struct {
		elapsed float64
		n       int
		want    bool
	}{
		{24, 1, false}, // 48 s overshoots 30 s by more than 24 s undershoots
		{20, 1, true},  // 40 s is 10 s over, 20 s is 10 s under: a tie runs one more
		{17, 1, true},  // 34 s beats 17 s
		{34, 2, false}, // 51 s is further from 30 s than 34 s
		{10, 1, true},
		{31, 1, false}, // already past the budget
	}
	for _, c := range cases {
		if got := anotherSweep(sec(c.elapsed), c.n, sec(30)); got != c.want {
			t.Errorf("anotherSweep(%vs, %d, 30s) = %t, want %t", c.elapsed, c.n, got, c.want)
		}
	}
}
