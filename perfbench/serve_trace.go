package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/store"
)

// Spans of the serving path, recorded from outside the program at the
// seams it exposes: the front end's HTTP handler, its runner's memo
// layer, its shard clients and claimer, and each shard's disk backend.
// The client tags every request with its sequence number so the handler
// and memo spans of one request can be paired with its client latency.

const seqHeader = "X-Perfbench-Seq"

type seqKey struct{}

// seqOf returns the request sequence number carried by ctx, or -1.
func seqOf(ctx context.Context) int {
	if v, ok := ctx.Value(seqKey{}).(int); ok {
		return v
	}
	return -1
}

// bySeq records one duration per request sequence number.
type bySeq struct {
	mu sync.Mutex
	d  map[int]time.Duration
}

func (b *bySeq) add(seq int, d time.Duration) {
	if b == nil || seq < 0 {
		return
	}
	b.mu.Lock()
	if b.d == nil {
		b.d = map[int]time.Duration{}
	}
	b.d[seq] += d
	b.mu.Unlock()
}

func (b *bySeq) get(seq int) (time.Duration, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.d[seq]
	return d, ok
}

// timedHandler times the front end's handling of each request.
type timedHandler struct {
	next http.Handler
	rec  *bySeq
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.Atoi(r.Header.Get(seqHeader))
	if err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	r = r.WithContext(context.WithValue(r.Context(), seqKey{}, seq))
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.rec.add(seq, time.Since(start))
}

// timedMemo times the front end's memo layer, per request.
type timedMemo struct {
	runner.Cache
	rec   *durations
	bySeq *bySeq
}

func (c timedMemo) Get(ctx context.Context, key runner.Key) (*metrics.Report, string, error) {
	start := time.Now()
	rep, tier, err := c.Cache.Get(ctx, key)
	d := time.Since(start)
	c.rec.add(d)
	c.bySeq.add(seqOf(ctx), d)
	return rep, tier, err
}

// timedShard times the front end's RPCs to one shard.
type timedShard struct {
	store.Shard
	fe *frontEnd
}

func (s *timedShard) Get(ctx context.Context, key string) (*metrics.Report, error) {
	start := time.Now()
	rep, err := s.Shard.Get(ctx, key)
	d := time.Since(start)
	s.fe.shardGet.add(d)
	s.fe.shardSeq.add(seqOf(ctx), d)
	if err == nil {
		s.fe.shardHits.Add(1)
	}
	return rep, err
}

func (s *timedShard) Put(ctx context.Context, key string, rep *metrics.Report) error {
	start := time.Now()
	err := s.Shard.Put(ctx, key, rep)
	s.fe.shardPut.add(time.Since(start))
	return err
}

// timedClaimer times fleet-wide claims.
type timedClaimer struct {
	store.Claimer
	rec *durations
}

func (c timedClaimer) Claim(ctx context.Context, key string) (bool, func(), error) {
	start := time.Now()
	owned, release, err := c.Claimer.Claim(ctx, key)
	c.rec.add(time.Since(start))
	return owned, release, err
}

// timedBackend times a shard node's disk store while on is set.
type timedBackend struct {
	store.Backend
	on       atomic.Bool
	get, put *durations
}

func (b *timedBackend) Get(ctx context.Context, key string) (*metrics.Report, error) {
	if !b.on.Load() {
		return b.Backend.Get(ctx, key)
	}
	start := time.Now()
	rep, err := b.Backend.Get(ctx, key)
	b.get.add(time.Since(start))
	return rep, err
}

func (b *timedBackend) Put(ctx context.Context, key string, rep *metrics.Report) error {
	if !b.on.Load() {
		return b.Backend.Put(ctx, key, rep)
	}
	start := time.Now()
	err := b.Backend.Put(ctx, key, rep)
	b.put.add(time.Since(start))
	return err
}

// serveLayers derives the serving path's per-layer metrics from a traced
// phase at the nominal rate. top holds the untraced phase's top-lines and
// shardP50 its median latency of shard-served requests.
func serveLayers(f *fleet, fe *frontEnd, samples []sample, top map[string]float64, shardP50 float64) map[string]float64 {
	wall := time.Duration(0)
	for _, s := range samples {
		if end := s.due + s.latency; end > wall {
			wall = end
		}
	}
	m := zeroLayers()
	for k, v := range runnerLayers(fe.exec, fe.memo, fe.runner.Progress().Snapshot(), wall) {
		m[k] = v
	}
	diskGet, diskPut := &durations{}, &durations{}
	for _, n := range f.nodes {
		diskGet.ds = append(diskGet.ds, n.disk.get.snapshot()...)
		diskPut.ds = append(diskPut.ds, n.disk.put.snapshot()...)
	}
	rejected, late := 0, make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.rejected {
			rejected++
		}
		late = append(late, ms(s.late()))
	}
	m["serve.rejected_frac"] = float64(rejected) / float64(len(samples))
	m["store.shard_get_us.p50"] = fe.shardGet.quantileUS(50)
	m["store.shard_get_us.p99"] = fe.shardGet.quantileUS(99)
	m["store.disk_get_us.p50"] = diskGet.quantileUS(50)
	m["store.disk_get_us.p99"] = diskGet.quantileUS(99)
	m["store.rpc_self_us"] = m["store.shard_get_us.p50"] - m["store.disk_get_us.p50"]
	if n := fe.shardGet.len(); n > 0 {
		m["store.shard_hit_ratio"] = float64(fe.shardHits.Load()) / float64(n)
	}
	m["store.shard_put_ms"] = fe.shardPut.quantileUS(50) / 1000
	m["store.disk_put_ms"] = diskPut.quantileUS(50) / 1000
	m["store.claim_ms"] = fe.claim.quantileUS(50) / 1000
	m["store.claim_waits"] = float64(fe.sharded.Stats().ClaimWaits)
	m["client.late_ms.p99"] = percentile(late, 99)

	lat := latencies(samples, nil)
	m["trace.overhead_pct"] = pctOver(percentile(lat, 50), top["latency_p50_ms"])

	// The budget of the median request's path, a shard hit: split each
	// shard-served request's latency into generator lateness, client and
	// network, the front end's handler outside its lookups, the memo
	// lookup (a miss) and the shard RPC; sum the medians of those
	// self-times and compare with the untraced median of shard hits.
	var lateness, client, handler, memo, shard []float64
	for i, s := range samples {
		if s.failed || s.source != runner.SourceShard {
			continue
		}
		h, ok1 := fe.handlerSeq.get(i)
		g, ok2 := fe.memoSeq.get(i)
		r, ok3 := fe.shardSeq.get(i)
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		lateness = append(lateness, ms(s.late()))
		client = append(client, ms(s.latency-s.late()-h))
		handler = append(handler, ms(h-g-r))
		memo = append(memo, ms(g))
		shard = append(shard, ms(r))
	}
	if len(shard) > 0 && shardP50 > 0 {
		sum := median(lateness) + median(client) + median(handler) + median(memo) + median(shard)
		m["budget.gap_pct"] = (shardP50 - sum) / shardP50 * 100
		fmt.Fprintf(os.Stderr, "perfbench: shard-hit budget (n=%d, ms): lateness %.4f + client/network %.4f + handler %.4f + memo %.4f + shard RPC %.4f = %.4f vs untraced shard-hit p50 %.4f\n",
			len(shard), median(lateness), median(client), median(handler), median(memo), median(shard), sum, shardP50)
	}
	return m
}

// statusError is a non-200 reply.
type statusError struct{ code int }

func (e statusError) Error() string { return "status " + strconv.Itoa(e.code) }
