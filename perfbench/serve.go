package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// The serve-zipf traffic follows the repository's measured load record,
// LOAD_2026-08-08.json: 4096 keys drawn with Zipf(1.1) popularity, and
// 5139 misses in 1M requests (0.51%). The head is LOAD's keyspace, stored
// in the fleet at set-up. Every coldEvery-th request goes to a tail key
// never requested before (claim, simulate, Put), which keeps LOAD's miss
// share in every phase. Each key is a short serveInstructions run of one
// app × scheme × seed.
const (
	serveInstructions = 2_000
	headKeys          = 4096 // LOAD keys
	zipfS             = 1.1  // LOAD zipf_s
	coldEvery         = 200  // LOAD misses / requests ≈ 1/195
	tailSeed0         = 1001 // the tail's seeds lie apart from the head's
	tailSeeds         = 50
	shardNodes        = 3
)

// serveSetupRepeats is how many times a run builds and fills the fleet;
// setup_s is their median.
const serveSetupRepeats = 3

// memoEntries sizes the front end's memo below the head, so the body of
// the distribution is served by shard RPC → disk Get. An LRU of C entries
// serves at most H(C)/H(4096) of Zipf(1.1) requests (H the generalised
// harmonic number): 59% for runner.DefaultCacheSize, whose memo would hold
// the whole head, and above half for any C over 64. At 16 entries the
// memo serves about a third of the requests and the shards two thirds, so
// the median request is a shard hit.
const memoEntries = 16

// Offered load. The nominal rate gives the latency percentiles. It is an
// eighth of LOAD's 4815 req/s, a saturated closed-loop figure (p50
// 395 ms), and about an eighth of the rate the saturated phase reaches on
// the 2-core development host (4000-5100 req/s). At twice this rate the
// median's spread over five seeds was 0.19, against 0.07 here. The
// saturated phase keeps every client connection busy and gives the
// highest rate the fleet completes. The ladder gives the highest rate
// that meets the p99 limit without a growing backlog; it swings with the
// host's speed too much to gate on, so only traced runs climb it.
const (
	nominalRate   = 600.0
	p99LimitMS    = 50.0
	backlogTolMS  = 5.0
	clientTimeout = 30 * time.Second
)

// ladder rises 10% a rung from 200 req/s. A run probes
// bits.Len(len(ladder)) rungs of it by bisection.
var ladder = func() []float64 {
	var l []float64
	for r := 200.0; r < 12_000; r *= 1.1 {
		l = append(l, math.Round(r/10)*10)
	}
	return l
}()

// Shares of --seconds: the nominal rate, then the saturated phase. A
// traced run adds the rate ladder, over ladderShare, two probes per
// probed rung at most.
const (
	nominalShare    = 0.4
	saturationShare = 0.5
	ladderShare     = 0.4
)

// keyspace holds every run of the keyspace with its request body and
// store key, and the seed's popularity order.
type keyspace struct {
	runs   []config.Run
	bodies [][]byte
	keys   []string
	head   []int // popularity rank -> key index
	tail   []int // cold keys in request order
}

// add appends the run of app × scheme × seed to the keyspace.
func (ks *keyspace) add(app string, sch core.Scheme, seed int64) error {
	req := serve.RunRequest{Benchmark: app, Scheme: sch.Name(), Instructions: serveInstructions, Seed: seed}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	// The same translation the front end applies to the body.
	scheme, err := core.SchemeByName(req.Scheme)
	if err != nil {
		return err
	}
	r := config.NewRun(app, scheme)
	r.Instructions, r.Seed = serveInstructions, seed
	k, ok := runner.KeyFor(config.Default(), r)
	if !ok {
		return fmt.Errorf("run %s has no key", r.Name())
	}
	ks.runs = append(ks.runs, r)
	ks.bodies = append(ks.bodies, body)
	ks.keys = append(ks.keys, k.String())
	return nil
}

// newKeyspace enumerates the head (the first headKeys runs, seed by seed)
// and then the tail (tailSeeds whole seeds from tailSeed0).
func newKeyspace(seed int64) (*keyspace, error) {
	ks := &keyspace{}
	apps, schemes := workload.Names(), core.AllSchemes()
	perSeed := len(apps) * len(schemes)
	for i := 0; i < headKeys; i++ {
		s, j := int64(1+i/perSeed), i%perSeed
		if err := ks.add(apps[j/len(schemes)], schemes[j%len(schemes)], s); err != nil {
			return nil, err
		}
	}
	for s := int64(tailSeed0); s < tailSeed0+tailSeeds; s++ {
		for _, app := range apps {
			for _, sch := range schemes {
				if err := ks.add(app, sch, s); err != nil {
					return nil, err
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	ks.head = rng.Perm(headKeys)
	// The tail in blocks of one seed: every run of perSeed consecutive
	// cold keys covers each app × scheme once, in a seeded order.
	for b := 0; b < tailSeeds; b++ {
		for _, j := range rng.Perm(perSeed) {
			ks.tail = append(ks.tail, headKeys+b*perSeed+j)
		}
	}
	return ks, nil
}

// simulate returns the report and its bytes from a direct sim.Simulate of
// key k.
func (ks *keyspace) simulate(k int) (*metrics.Report, []byte, error) {
	rep, err := sim.Simulate(config.Default(), ks.runs[k])
	if err != nil {
		return nil, nil, err
	}
	buf, err := json.Marshal(rep)
	return rep, buf, err
}

// parallel runs f(i) for i in [0,n) on workers() goroutines and returns
// the first error.
func parallel(n int, f func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers())
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || errs[w] != nil {
					return
				}
				errs[w] = f(i)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// planner draws each phase's request stream from the seed: one key index
// per request.
type planner struct {
	ks   *keyspace
	zipf *rand.Zipf
	n    int // requests planned
	cold int // next unused tail key
}

func newPlanner(ks *keyspace, seed int64) *planner {
	return &planner{ks: ks, zipf: rand.NewZipf(rand.New(rand.NewSource(seed+1)), zipfS, 1, uint64(len(ks.head)-1))}
}

// next returns the key of the planner's next request.
func (p *planner) next() (int, error) {
	p.n++
	if p.n%coldEvery != 0 {
		return p.ks.head[p.zipf.Uint64()], nil
	}
	if p.cold == len(p.ks.tail) {
		return 0, errors.New("serve-zipf: the keyspace tail is too short for the planned requests")
	}
	p.cold++
	return p.ks.tail[p.cold-1], nil
}

// phase returns the keys of rate × d requests.
func (p *planner) phase(rate float64, d time.Duration) ([]int, error) {
	out := make([]int, int(rate*d.Seconds()))
	for i := range out {
		k, err := p.next()
		if err != nil {
			return nil, err
		}
		out[i] = k
	}
	return out, nil
}

// shardNode is one disk-backed icrd serving the shard API.
type shardNode struct {
	url  string
	srv  *http.Server
	done chan struct{}
	disk *timedBackend
}

// fleet is the in-process deployment: shard nodes on loopback listeners,
// each over its own disk store.
type fleet struct {
	dir    string
	nodes  []*shardNode
	client *http.Client // the front ends' shard connections
}

// listen serves h on a loopback listener until shutdown.
func listen(h http.Handler) (string, *http.Server, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return "http://" + ln.Addr().String(), srv, done, nil
}

func shutdown(srv *http.Server, done chan struct{}) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		// Connections still open after the grace period are cut; the
		// server is being discarded either way.
		_ = srv.Close()
	}
	<-done
}

func buildFleet(root string) (*fleet, error) {
	dir, err := os.MkdirTemp(root, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}}
	for i := 0; i < shardNodes; i++ {
		st, err := store.Open(filepath.Join(dir, fmt.Sprintf("shard%d", i)), store.Options{})
		if err != nil {
			f.close()
			return nil, err
		}
		disk := &timedBackend{Backend: st, get: &durations{}, put: &durations{}}
		srv := serve.New(serve.Options{Runner: runner.New(runner.Options{Workers: 1}), Backend: disk, ShardAPI: true})
		url, hs, done, err := listen(srv.Handler())
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, &shardNode{url: url, srv: hs, done: done, disk: disk})
	}
	return f, nil
}

func (f *fleet) close() {
	for _, n := range f.nodes {
		shutdown(n.srv, n.done)
	}
	f.client.CloseIdleConnections()
	if err := os.RemoveAll(f.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing fleet stores:", err)
	}
}

// tracing switches the shard-side disk timers.
func (f *fleet) tracing(on bool) {
	for _, n := range f.nodes {
		n.disk.on.Store(on)
	}
}

// frontEnd is the icrd users talk to: memo over the sharded store, with
// fleet-wide claims. Every measured phase gets a fresh one, so each
// starts from an empty memo.
type frontEnd struct {
	url     string
	srv     *http.Server
	done    chan struct{}
	runner  *runner.Runner
	exec    *spanExecutor
	sharded *store.Sharded

	// Traced only.
	memo, shardGet, shardPut, claim *durations
	shardHits                       atomic.Int64
	handlerSeq, memoSeq, shardSeq   *bySeq
}

func (f *fleet) frontEnd(traced bool) (*frontEnd, error) {
	fe := &frontEnd{exec: newSpanExecutor(traced)}
	var shards []store.Shard
	for _, n := range f.nodes {
		var sh store.Shard = store.NewRemote(n.url, f.client)
		if traced {
			if fe.shardGet == nil {
				fe.shardGet, fe.shardPut, fe.shardSeq = &durations{}, &durations{}, &bySeq{}
			}
			sh = &timedShard{Shard: sh, fe: fe}
		}
		shards = append(shards, sh)
	}
	sharded, err := store.NewSharded(shards, store.ShardedOptions{})
	if err != nil {
		return nil, err
	}
	fe.sharded = sharded
	prog := metrics.NewProgress()
	var memo runner.Cache = runner.NewMemoryCache(memoEntries, prog)
	var claimer store.Claimer = sharded
	if traced {
		fe.memo, fe.claim, fe.memoSeq = &durations{}, &durations{}, &bySeq{}
		memo = timedMemo{Cache: memo, rec: fe.memo, bySeq: fe.memoSeq}
		claimer = timedClaimer{Claimer: sharded, rec: fe.claim}
	}
	fe.runner = runner.New(runner.Options{
		Workers:  workers(),
		Progress: prog,
		Cache:    runner.NewTiered(memo, runner.NewStoreCache(sharded, runner.SourceShard)),
		Claimer:  claimer,
		Executor: fe.exec,
	})
	var h http.Handler = serve.New(serve.Options{Runner: fe.runner}).Handler()
	if traced {
		fe.handlerSeq = &bySeq{}
		h = timedHandler{next: h, rec: fe.handlerSeq}
	}
	fe.url, fe.srv, fe.done, err = listen(h)
	if err != nil {
		return nil, err
	}
	return fe, nil
}

func (fe *frontEnd) close() { shutdown(fe.srv, fe.done) }

// oracle collects every response's report bytes per key and checks them
// against direct simulation.
type oracle struct {
	mu       sync.Mutex
	got      map[int][]byte
	want     map[int][]byte
	mismatch []string
}

func (o *oracle) observe(ks *keyspace, k int, report []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	first, ok := o.got[k]
	if !ok {
		o.got[k] = append([]byte(nil), report...)
		return
	}
	if !bytes.Equal(first, report) && len(o.mismatch) < 5 {
		o.mismatch = append(o.mismatch, ks.runs[k].Name())
	}
}

// reference records the direct-simulation bytes of key k.
func (o *oracle) reference(k int, want []byte) {
	o.mu.Lock()
	o.want[k] = want
	o.mu.Unlock()
}

// verify simulates every key not yet referenced and compares.
func (o *oracle) verify(ks *keyspace) error {
	var todo []int
	for k := range o.got {
		if _, ok := o.want[k]; !ok {
			todo = append(todo, k)
		}
	}
	refs := make([][]byte, len(todo))
	if err := parallel(len(todo), func(i int) error {
		_, buf, err := ks.simulate(todo[i])
		refs[i] = buf
		return err
	}); err != nil {
		return err
	}
	for i, k := range todo {
		o.want[k] = refs[i]
	}
	bad := append([]string(nil), o.mismatch...)
	for k, got := range o.got {
		if !bytes.Equal(got, o.want[k]) && len(bad) < 5 {
			bad = append(bad, ks.runs[k].Name())
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("responses differ from direct simulation for %v (of %d keys)", bad, len(o.got))
	}
	return nil
}

// splitResponse extracts source and report bytes from a RunResponse body
// without a full decode: {"source":"...","report":{...}}.
func splitResponse(body []byte) (string, []byte, bool) {
	const pre, mid = `{"source":"`, `","report":`
	if !bytes.HasPrefix(body, []byte(pre)) || !bytes.HasSuffix(body, []byte("}")) {
		return "", nil, false
	}
	rest := body[len(pre):]
	i := bytes.Index(rest, []byte(mid))
	if i < 0 {
		return "", nil, false
	}
	return string(rest[:i]), rest[i+len(mid) : len(rest)-1], true
}

// loadClient is the open-loop generator's HTTP client: at most
// workers() connections.
func loadClient() *http.Client {
	return &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     workers(),
			MaxIdleConnsPerHost: workers(),
			DisableCompression:  true,
		},
	}
}

// openLoop sends keys[i] at start + i/rate whether or not earlier
// requests have finished, over workers() connections. A request due
// while every connection is busy waits, and its latency counts from when
// it was due.
func openLoop(ctx context.Context, hc *http.Client, url string, rate float64, keys []int, ks *keyspace, or *oracle) []sample {
	samples := make([]sample, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(keys) {
					return
				}
				due := time.Duration(float64(i) / rate * float64(time.Second))
				if wait := time.Until(start.Add(due)); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
					}
				}
				k := keys[i]
				s := sample{due: due, sent: time.Since(start)}
				src, report, err := post(ctx, hc, url, ks.bodies[k], i)
				s.latency = time.Since(start) - due
				if err != nil {
					var se statusError
					s.failed = true
					s.rejected = errors.As(err, &se) && se.code == http.StatusTooManyRequests
				} else {
					s.source = src
					or.observe(ks, k, report)
				}
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	return samples
}

func post(ctx context.Context, hc *http.Client, url string, body []byte, seq int) (string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return "", nil, err
	}
	req.Header.Set(seqHeader, strconv.Itoa(seq))
	resp, err := hc.Do(req)
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return "", nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", nil, statusError{resp.StatusCode}
	}
	src, report, ok := splitResponse(buf.Bytes())
	if !ok {
		return "", nil, errors.New("malformed run response")
	}
	return src, report, nil
}

// mixOf counts a phase's requests by the tier that answered them.
func mixOf(samples []sample) map[string]int {
	n := map[string]int{}
	for _, s := range samples {
		if s.failed {
			n["failed"]++
		} else {
			n[s.source]++
		}
	}
	return n
}

// printMix prints on stderr which tier answered what share of a phase's
// requests.
func printMix(phase string, n map[string]int) {
	total := 0
	srcs := make([]string, 0, len(n))
	for src, c := range n {
		srcs = append(srcs, src)
		total += c
	}
	sort.Strings(srcs)
	fmt.Fprintf(os.Stderr, "perfbench: %s, %d requests:", phase, total)
	for _, src := range srcs {
		fmt.Fprintf(os.Stderr, " %s %.1f%%", src, 100*float64(n[src])/float64(total))
	}
	fmt.Fprintln(os.Stderr)
}

// latencies returns request latencies in ms; failures count at the client
// timeout, so they miss any limit.
func latencies(samples []sample, keep func(sample) bool) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if keep != nil && !keep(s) {
			continue
		}
		out = append(out, latencyMS(s, ms(clientTimeout)))
	}
	return out
}

func failures(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.failed {
			n++
		}
	}
	return n
}

// serveRun carries one serve-zipf run's state.
type serveRun struct {
	ks      *keyspace
	plan    *planner
	fleet   *fleet
	or      *oracle
	hc      *http.Client
	reports []*metrics.Report // the head's reports, by key index
}

// prepare makes the run's inputs: it simulates every head key directly.
// The reports are what set-up stores and the oracle's reference bytes.
func (sr *serveRun) prepare() error {
	sr.reports = make([]*metrics.Report, headKeys)
	return parallel(headKeys, func(k int) error {
		rep, buf, err := sr.ks.simulate(k)
		if err != nil {
			return err
		}
		sr.reports[k] = rep
		sr.or.reference(k, buf)
		return nil
	})
}

// setup builds the fleet and pre-populates it: it stores every head
// key's report through the sharded client, RPC to the owner shard's disk.
func (sr *serveRun) setup(ctx context.Context, root string) (time.Duration, error) {
	start := time.Now()
	f, err := buildFleet(root)
	if err != nil {
		return 0, err
	}
	var shards []store.Shard
	for _, n := range f.nodes {
		shards = append(shards, store.NewRemote(n.url, f.client))
	}
	sharded, err := store.NewSharded(shards, store.ShardedOptions{})
	if err == nil {
		err = parallel(headKeys, func(k int) error {
			return sharded.Put(ctx, sr.ks.keys[k], sr.reports[k])
		})
	}
	if err != nil {
		f.close()
		return 0, err
	}
	sr.fleet = f
	return time.Since(start), nil
}

// phase runs one open-loop phase against a fresh front end.
func (sr *serveRun) phase(ctx context.Context, rate float64, d time.Duration, traced bool) ([]sample, *frontEnd, error) {
	keys, err := sr.plan.phase(rate, d)
	if err != nil {
		return nil, nil, err
	}
	fe, err := sr.fleet.frontEnd(traced)
	if err != nil {
		return nil, nil, err
	}
	sr.fleet.tracing(traced)
	runtime.GC() // start every phase from a collected heap
	samples := openLoop(ctx, sr.hc, fe.url, rate, keys, sr.ks, sr.or)
	sr.fleet.tracing(false)
	fe.close()
	return samples, fe, ctx.Err()
}

// saturate sends requests back to back on every client connection for d
// against a fresh front end. It returns the median over the phase's whole
// seconds of the requests completed in each, so one slow second does not
// decide it.
func (sr *serveRun) saturate(ctx context.Context, d time.Duration) (rps float64, attempted, failed int, err error) {
	fe, err := sr.fleet.frontEnd(false)
	if err != nil {
		return 0, 0, 0, err
	}
	defer fe.close()
	runtime.GC()
	var mu sync.Mutex
	var doneAt []time.Duration
	var bad int
	mix := map[string]int{}
	var planErr error
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				mu.Lock()
				k, err := sr.plan.next()
				if err != nil {
					planErr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
				src, report, err := post(ctx, sr.hc, fe.url, sr.ks.bodies[k], -1)
				at := time.Since(start)
				mu.Lock()
				if err != nil {
					bad++
					mix["failed"]++
				} else {
					doneAt = append(doneAt, at)
					mix[src]++
				}
				mu.Unlock()
				if err == nil {
					sr.or.observe(sr.ks, k, report)
				}
			}
		}()
	}
	wg.Wait()
	if planErr != nil {
		return 0, 0, 0, planErr
	}
	printMix("saturated phase", mix)
	perSecond := make([]float64, max(1, int(d/time.Second)))
	for _, at := range doneAt {
		if i := int(at / time.Second); i < len(perSecond) {
			perSecond[i]++
		}
	}
	return median(perSecond), len(doneAt) + bad, bad, ctx.Err()
}

// ladderRate climbs the rate ladder by bisection. A rung fails only when
// two probes in a row miss the limit, so one host hiccup does not cut the
// search short.
func (sr *serveRun) ladderRate(ctx context.Context, probeDur time.Duration) (rps float64, attempted, failed int, err error) {
	best, err := bisect(len(ladder), func(i int) (bool, error) {
		for try := 0; try < 2; try++ {
			samples, _, err := sr.phase(ctx, ladder[i], probeDur, false)
			if err != nil {
				return false, err
			}
			attempted += len(samples)
			failed += failures(samples)
			st := summarize(ladder[i], samples, backlogTolMS*time.Millisecond, ms(clientTimeout))
			fmt.Fprintf(os.Stderr, "perfbench: ladder %6.0f/s: n=%d failed=%d p99=%.2fms growing=%t\n",
				st.rate, st.n, st.failed, st.p99ms, st.growing)
			if st.meets(p99LimitMS) {
				return true, nil
			}
		}
		return false, nil
	})
	if err != nil || best < 0 {
		return 0, attempted, failed, err
	}
	return ladder[best], attempted, failed, nil
}

func runServeZipf(ctx context.Context, c cliArgs) (outcome, error) {
	root := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return outcome{}, err
	}
	ks, err := newKeyspace(c.seed)
	if err != nil {
		return outcome{}, err
	}
	sr := &serveRun{ks: ks, plan: newPlanner(ks, c.seed), hc: loadClient(),
		or: &oracle{got: map[int][]byte{}, want: map[int][]byte{}}}
	defer sr.hc.CloseIdleConnections()
	if err := sr.prepare(); err != nil {
		return outcome{}, err
	}
	total := time.Duration(c.seconds) * time.Second
	share := func(f float64) time.Duration { return time.Duration(f * float64(total)) }
	nomDur := share(nominalShare)

	repeats := serveSetupRepeats
	if c.trace {
		repeats = 1
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		if sr.fleet != nil {
			sr.fleet.close()
		}
		d, err := sr.setup(ctx, root)
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, d.Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-ups %.3f s\n", setups)
	defer func() { sr.fleet.close() }()

	nominal, _, err := sr.phase(ctx, nominalRate, nomDur, false)
	if err != nil {
		return outcome{}, err
	}
	attempted, failed := len(nominal), failures(nominal)
	printMix("nominal phase", mixOf(nominal))
	top := map[string]float64{
		"setup_s":        median(setups),
		"latency_p50_ms": median(latencies(nominal, nil)),
	}
	rps, n, bad, err := sr.saturate(ctx, share(saturationShare))
	if err != nil {
		return outcome{}, err
	}
	attempted, failed = attempted+n, failed+bad
	top["max_rps"] = rps
	var m map[string]float64
	var rep config.Run
	if !c.trace {
		top["peak_rss_mb"] = peakRSSMB()
		m = top
	} else {
		traced, fe, err := sr.phase(ctx, nominalRate, nomDur, true)
		if err != nil {
			return outcome{}, err
		}
		attempted += len(traced)
		failed += failures(traced)
		shardP50 := median(latencies(nominal, func(s sample) bool { return s.source == runner.SourceShard }))
		m = serveLayers(sr.fleet, fe, traced, top, shardP50)
		m["serve.miss_p50_ms"] = median(latencies(nominal, func(s sample) bool { return s.source == runner.SourceSimulated }))
		m["serve.p99_ms"] = windowed(nominal, 99, ms(clientTimeout))
		probeDur := share(ladderShare) / time.Duration(2*bits.Len(uint(len(ladder))))
		ladderRPS, n, bad, err := sr.ladderRate(ctx, probeDur)
		if err != nil {
			return outcome{}, err
		}
		attempted, failed = attempted+n, failed+bad
		m["serve.ladder_rps"] = ladderRPS
		var ok bool
		if rep, ok = fe.exec.find(func(config.Run) bool { return true }); !ok {
			return outcome{}, errors.New("no key was simulated in the traced phase")
		}
	}
	if err := sr.or.verify(ks); err != nil {
		return outcome{metrics: m, attempted: attempted, failed: failed, oracleErr: err}, nil
	}
	if c.trace {
		// One of the traced phase's cold keys, replayed layer by layer.
		layers, err := replayLayers(config.Default(), rep)
		if err != nil {
			return oracleOutcome(attempted, err)
		}
		for k, v := range layers {
			m[k] = v
		}
	}
	return outcome{metrics: m, attempted: attempted, failed: failed}, nil
}
