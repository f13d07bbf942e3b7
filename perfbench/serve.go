package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpmcs4fta/internal/core"
	"mpmcs4fta/internal/gen"
	"mpmcs4fta/internal/serve"
)

// poolTree is one distinct tree of a serve-mixed step, with its analyze
// and top-k variants (each carries its own reference) and JSON body.
type poolTree struct {
	an, tk    *input
	body      []byte
	generated bool // a seeded tree at its spec size
	twin      bool // the n/4 twin of a generated tree
}

// request is one scheduled send.
type request struct {
	tree *poolTree
	topk bool
	due  time.Time
	key  string
	// repeat: the same tree and kind was requested earlier in the run;
	// dupInFlight: an identical request was outstanding when it was due.
	repeat, dupInFlight bool
}

// reply is one completed request.
type reply struct {
	req       *request
	latencyMS float64 // from the scheduled send time
	serviceMS float64 // from the actual send
	lateMS    float64 // how late the send ran against the schedule
	elapsedMS float64 // the response document's elapsedMillis
	// lookedUp: the response carried a document with a tree hash, so the
	// server looked the tree up in its cache; cached: that lookup hit.
	lookedUp, cached bool
	httpStatus       int
	o                outcome
}

// stepStats summarises one offered rate.
type stepStats struct {
	rate       float64
	replies    []*reply
	backlogMax int
	drain      time.Duration // from the last scheduled send to the last reply
	span       time.Duration // schedule plus drain
}

// servePool builds the distinct trees the requests draw from: the
// spec's trees plus the n/4 twins of its generated ones.
func servePool(cfg config) ([]*poolTree, error) {
	w := cfg.work
	inputs, err := buildInputs(w, cfg.seed, 1, cfg.small, true)
	if err != nil {
		return nil, err
	}
	var pool []*poolTree
	add := func(in *input, generated, twin bool) error {
		body, err := json.Marshal(in.tree)
		if err != nil {
			return fmt.Errorf("marshal %s: %w", in.id, err)
		}
		tk := &input{id: in.id + "/topk", tree: in.tree, k: w.TopKK}
		pool = append(pool, &poolTree{an: in, tk: tk, body: body, generated: generated, twin: twin})
		return nil
	}
	for _, in := range inputs {
		if err := add(in, in.twin != nil, false); err != nil {
			return nil, err
		}
	}
	for _, in := range inputs {
		if in.twin != nil {
			if err := add(in.twin, false, true); err != nil {
				return nil, err
			}
		}
	}
	return pool, nil
}

// schedule lays out every step's sends at its fixed rate. Trees are
// drawn Zipf-like by pool position, so popularity follows the spec's
// tree order (the small literature trees first) for every seed, and a
// fixed share of requests asks for top-k instead of one cut set.
func schedule(cfg config, pool []*poolTree, stepDur time.Duration) [][]*request {
	w := cfg.work
	rng := rand.New(rand.NewSource(cfg.seed))
	steps := make([][]*request, len(w.RatesRPS))
	for step := range steps {
		zipf := rand.NewZipf(rng, w.ZipfS, 1, uint64(len(pool)-1))
		n := int(w.RatesRPS[step] * stepDur.Seconds())
		for i := 0; i < n; i++ {
			t := pool[zipf.Uint64()]
			topk := rng.Float64() >= w.AnalyzeShare
			key := t.an.id
			if topk {
				key = t.tk.id
			}
			steps[step] = append(steps[step], &request{tree: t, topk: topk, key: key})
		}
	}
	return steps
}

// loadgen runs one step as an open loop: a dispatcher releases each
// request at its scheduled time onto a queue that nproc senders, each
// with its own connection, drain.
type loadgen struct {
	client  *http.Client
	base    string
	timeout int
	guard   *opGuard

	mu          sync.Mutex
	outstanding map[string]int  // guarded by mu
	seen        map[string]bool // guarded by mu
	backlog     int             // guarded by mu
}

func newLoadgen(base string, timeoutMillis int, guard *opGuard) *loadgen {
	conns := runtime.NumCPU()
	return &loadgen{
		client:      &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}},
		base:        base,
		timeout:     timeoutMillis,
		guard:       guard,
		outstanding: map[string]int{},
		seen:        map[string]bool{},
	}
}

func (lg *loadgen) close() { lg.client.CloseIdleConnections() }

func (lg *loadgen) runStep(reqs []*request, rate float64) *stepStats {
	st := &stepStats{rate: rate}
	queue := make(chan *request, len(reqs)) // sized to the sends: the dispatcher never blocks
	replies := make(chan *reply, len(reqs))
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range queue {
				replies <- lg.send(r)
			}
		}()
	}
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	for i, r := range reqs {
		r.due = start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(r.due))
		st.backlogMax = max(st.backlogMax, lg.arrive(r))
		queue <- r
	}
	close(queue)
	lastDue := reqs[len(reqs)-1].due
	wg.Wait()
	close(replies)
	for r := range replies {
		st.replies = append(st.replies, r)
	}
	st.drain = time.Since(lastDue)
	st.span = time.Since(start)
	return st
}

// arrive records that r is due, classifying it as a repeat or an
// in-flight duplicate, and returns the backlog including it.
func (lg *loadgen) arrive(r *request) int {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	r.repeat = lg.seen[r.key]
	r.dupInFlight = lg.outstanding[r.key] > 0
	lg.seen[r.key] = true
	lg.outstanding[r.key]++
	lg.backlog++
	return lg.backlog
}

// send posts r and checks the response; r must have arrived.
func (lg *loadgen) send(r *request) *reply {
	sent := time.Now()
	rep := &reply{req: r, lateMS: ms(sent.Sub(r.due))}
	in := r.tree.an
	url := lg.base + "/v1/analyze?timeoutMillis=" + strconv.Itoa(lg.timeout)
	if r.topk {
		in = r.tree.tk
		url = lg.base + "/v1/topk?k=" + strconv.Itoa(in.k) + "&timeoutMillis=" + strconv.Itoa(lg.timeout)
	}
	rep.o = outcome{input: in.id}
	// Cancelling the request closes its connection, which cancels the
	// server-side solve: the heap guard reaches analyses run by the
	// server this way.
	ctx, release := lg.guard.context()
	defer release()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(r.tree.body))
	var resp *http.Response
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
		resp, err = lg.client.Do(req)
	}
	var data []byte
	if err == nil {
		rep.httpStatus = resp.StatusCode
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	done := time.Now()
	rep.latencyMS, rep.serviceMS = ms(done.Sub(r.due)), ms(done.Sub(sent))
	lg.mu.Lock()
	lg.outstanding[r.key]--
	lg.backlog--
	lg.mu.Unlock()
	if err != nil {
		rep.o.err = err
		return rep
	}
	rep.o = checkDocument(in, rep, data, r.topk)
	return rep
}

// checkDocument parses and checks one response body.
func checkDocument(in *input, rep *reply, data []byte, topk bool) outcome {
	o := outcome{input: in.id}
	var doc serve.Document
	if err := json.Unmarshal(data, &doc); err != nil {
		o.err = fmt.Errorf("HTTP %d: decode document: %w", rep.httpStatus, err)
		return o
	}
	rep.lookedUp, rep.cached = doc.Hash != "", doc.Cached
	if rep.httpStatus != http.StatusOK || doc.Status != serve.StatusOptimal {
		o.err = fmt.Errorf("HTTP %d status %s: %s", rep.httpStatus, doc.Status, doc.Error)
		return o
	}
	var sols []*core.Solution
	if topk {
		if err := json.Unmarshal(doc.Solutions, &sols); err != nil {
			o.err = fmt.Errorf("decode solutions: %w", err)
			return o
		}
	} else {
		var sol core.Solution
		if err := json.Unmarshal(doc.Solution, &sol); err != nil {
			o.err = fmt.Errorf("decode solution: %w", err)
			return o
		}
		sols = []*core.Solution{&sol}
	}
	if len(sols) > 0 {
		rep.elapsedMS = sols[0].ElapsedMS
		for _, s := range sols[1:] {
			rep.elapsedMS += s.ElapsedMS
		}
	}
	return check(in, sols, nil)
}

// startServer starts a serve.Server with default settings on a
// loopback port and warms it up with one request on a tree outside
// every pool.
func startServer() (*serve.Server, string, error) {
	srv := serve.New(serve.Config{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	base := "http://" + addr
	warm, err := gen.Random(gen.Config{Events: 12, Seed: -1})
	if err == nil {
		var body []byte
		if body, err = json.Marshal(warm); err == nil {
			var resp *http.Response
			if resp, err = http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body)); err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // warm-up only
				resp.Body.Close()
			}
		}
	}
	if err != nil {
		srv.Close()
		return nil, "", fmt.Errorf("warm up server: %w", err)
	}
	return srv, base, nil
}

// scrapeCache reads the cache counters from /metrics.
func scrapeCache(base string) (hits, misses int64, err error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, 0, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, _ := strconv.ParseInt(f[1], 10, 64)
		switch f[0] {
		case "mpmcsd_cache_hits":
			hits = v
		case "mpmcsd_cache_misses":
			misses = v
		}
	}
	return hits, misses, sc.Err()
}

// serveSetup builds the pool, starts a server and warms it up,
// setup_reps times. It returns the pool, setup_s (process start to the
// end of the median repetition) and the cold setup (to the end of the
// first).
func serveSetup(cfg config) ([]*poolTree, float64, float64, error) {
	lead := time.Since(processStart).Seconds()
	var reps []float64
	var pool []*poolTree
	for r := 0; r < cfg.spec.SetupReps; r++ {
		start := time.Now()
		var err error
		if pool, err = servePool(cfg); err != nil {
			return nil, 0, 0, err
		}
		srv, _, err := startServer()
		if err != nil {
			return nil, 0, 0, err
		}
		reps = append(reps, time.Since(start).Seconds())
		srv.Close()
	}
	return pool, lead + median(reps), lead + reps[0], nil
}

// serveReferences attaches references to every pool tree's variants.
func serveReferences(cfg config, pool []*poolTree, res *result) error {
	var all []*input
	for _, t := range pool {
		all = append(all, t.an, t.tk)
	}
	return attachReferences(all, cfg.tamper, res)
}

// openLoop runs every rate step in ascending order against one warm
// server, each step after the previous one drained, so the result cache
// is cold only for the first, lowest rate. It returns the steps and the
// cache hits and misses /metrics counted during them.
func openLoop(cfg config, guard *opGuard, pool []*poolTree, stepDur time.Duration, res *result) ([]*stepStats, int64, int64, error) {
	srv, base, err := startServer()
	if err != nil {
		return nil, 0, 0, err
	}
	defer srv.Close()
	h0, m0, err := scrapeCache(base)
	if err != nil {
		return nil, 0, 0, err
	}
	var out []*stepStats
	for i, reqs := range schedule(cfg, pool, stepDur) {
		lg := newLoadgen(base, cfg.work.TimeoutMillis, guard)
		st := lg.runStep(reqs, cfg.work.RatesRPS[i])
		lg.close()
		for _, r := range st.replies {
			res.tally(r.o)
		}
		out = append(out, st)
	}
	h1, m1, err := scrapeCache(base)
	if err != nil {
		return nil, 0, 0, err
	}
	return out, h1 - h0, m1 - m0, nil
}

// runServeMixed is the serve-mixed end-to-end run.
func runServeMixed(cfg config, guard *opGuard) (*result, error) {
	res := newResult()
	pool, setup, cold, err := serveSetup(cfg)
	if err != nil {
		return nil, err
	}
	if err := serveReferences(cfg, pool, res); err != nil {
		return nil, err
	}
	reportProperties(poolInputs(pool), res)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stepDur := time.Duration(cfg.seconds / float64(len(cfg.work.RatesRPS)) * float64(time.Second))
	steps, _, _, err := openLoop(cfg, guard, pool, stepDur, res)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)

	limit := cfg.work.LatencyLimitMS
	maxRate := 0.0
	var nominal *stepStats
	total := 0
	for _, st := range steps {
		lat, failed := stepLatencies(st)
		tv, tp := tail(lat)
		sustained := failed == 0 && tv <= limit && ms(st.drain) <= limit
		if sustained {
			maxRate = st.rate
		}
		if st.rate == cfg.work.NominalRPS {
			nominal = st
		}
		total += len(st.replies)
		res.note("rate %g rps: %d requests, p50 %.3f ms, p%.1f %.1f ms, failed %d, drain %.1f ms, backlog max %d, sustained=%v",
			st.rate, len(st.replies), median(lat), tp, tv, failed, ms(st.drain), st.backlogMax, sustained)
	}
	if nominal == nil {
		return nil, fmt.Errorf("spec.json: nominal rate %g is not one of the offered rates", cfg.work.NominalRPS)
	}
	lat, _ := stepLatencies(nominal)
	tv, tp := tail(lat)
	top := steps[len(steps)-1]
	okTop := 0
	for _, r := range top.replies {
		if r.o.err == nil {
			okTop++
		}
	}
	res.set("setup_s", setup, "s")
	res.set("setup_cold_s", cold, "s")
	res.set("latency_p50_ms", median(lat), "ms")
	res.set("latency_tail_ms", tv, "ms")
	res.set("max_rate_rps", maxRate, "1/s")
	res.set("analyses_per_s", float64(okTop)/top.span.Seconds(), "1/s")
	res.set("alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/float64(max(total, 1)), "MB")
	res.set("scaling_4x", serveScaling(steps), "ratio")
	res.note("latency at the nominal %g rps: tail is p%.1f over %d requests; latency limit %g ms", nominal.rate, tp, len(lat), limit)
	reportTraffic(steps, res)
	return res, nil
}

// stepLatencies returns a step's latencies from the scheduled send
// times and its failure count.
func stepLatencies(st *stepStats) ([]float64, int) {
	lat := make([]float64, 0, len(st.replies))
	failed := 0
	for _, r := range st.replies {
		lat = append(lat, r.latencyMS)
		if r.o.err != nil {
			failed++
		}
	}
	return lat, failed
}

// serveScaling is the median in-server solve time of uncached analyze
// responses on generated trees over that on their n/4 twins.
func serveScaling(steps []*stepStats) float64 {
	var big, small []float64
	for _, st := range steps {
		for _, r := range st.replies {
			if r.cached || r.req.topk || r.o.err != nil {
				continue
			}
			switch {
			case r.req.tree.generated:
				big = append(big, r.elapsedMS)
			case r.req.tree.twin:
				small = append(small, r.elapsedMS)
			}
		}
	}
	return ratio(median(big), median(small))
}

// reportTraffic prints the repeat and in-flight-duplicate shares.
func reportTraffic(steps []*stepStats, res *result) {
	n, repeats, dups, topk := 0, 0, 0, 0
	for _, st := range steps {
		for _, r := range st.replies {
			n++
			if r.req.repeat {
				repeats++
			}
			if r.req.dupInFlight {
				dups++
			}
			if r.req.topk {
				topk++
			}
		}
	}
	res.note("traffic over %d requests: repeats an earlier tree and kind %.1f%%, identical request in flight %.1f%%, top-k %.1f%%",
		n, 100*share(repeats, n), 100*share(dups, n), 100*share(topk, n))
}

func poolInputs(pool []*poolTree) []*input {
	out := make([]*input, len(pool))
	for i, t := range pool {
		out[i] = t.an
	}
	return out
}

// serveTraced runs the open loop for the traced serve-mixed run and
// derives the serve and loadgen metrics; it returns the first step's
// trees, largest first, for the layer probes.
func serveTraced(cfg config, guard *opGuard, budget time.Duration, res *result, samples layerSamples) ([]*input, error) {
	pool, _, _, err := serveSetup(cfg)
	if err != nil {
		return nil, err
	}
	if err := serveReferences(cfg, pool, res); err != nil {
		return nil, err
	}
	stepDur := time.Duration(float64(budget) / float64(len(cfg.work.RatesRPS)))
	steps, hits, misses, err := openLoop(cfg, guard, pool, stepDur, res)
	if err != nil {
		return nil, err
	}
	var replies []*reply
	for _, st := range steps {
		replies = append(replies, st.replies...)
		if st.rate == cfg.work.NominalRPS {
			var late []float64
			for _, r := range st.replies {
				late = append(late, r.lateMS)
			}
			samples.add("loadgen.late_ms", median(late))
			samples.add("loadgen.backlog_max", float64(st.backlogMax))
		}
	}
	serveReplyMetrics(replies, hits, misses, res, samples)
	probes := poolInputs(pool)
	sort.SliceStable(probes, func(i, j int) bool { return probes[i].tree.NumEvents() > probes[j].tree.NumEvents() })
	return probes, nil
}

// serveReplyMetrics derives the serve-layer samples from responses,
// cross-checking the cache counts against /metrics. Hits and misses are
// counted over every response whose document shows a cache lookup,
// verified or not; the wait and solve samples come from verified
// uncached responses. A request that ended without a document (a
// transport error or a guard cancellation) may or may not have reached
// the lookup, so the scraped counts may exceed the responses' by at
// most the number of such requests.
func serveReplyMetrics(replies []*reply, scrapedHits, scrapedMisses int64, res *result, samples layerSamples) {
	var wait, solve []float64
	var hits, misses, unknown int64
	status := map[int]int{}
	for _, r := range replies {
		status[r.httpStatus]++
		switch {
		case r.cached:
			hits++
		case r.lookedUp:
			misses++
		default:
			unknown++
		}
		if r.o.err == nil && !r.cached {
			wait = append(wait, r.serviceMS-r.elapsedMS)
			solve = append(solve, r.elapsedMS)
		}
	}
	if scrapedHits < hits || scrapedMisses < misses || scrapedHits-hits+scrapedMisses-misses > unknown {
		res.correct = false
		res.note("FAIL cache accounting: responses show %d hits / %d misses (%d without a document), /metrics %d / %d",
			hits, misses, unknown, scrapedHits, scrapedMisses)
	}
	tv, _ := tail(wait)
	samples.add("serve.wait_p50_ms", median(wait))
	samples.add("serve.wait_tail_ms", tv)
	samples.add("serve.solve_ms", median(solve))
	samples.add("serve.cache_hits", float64(hits))
	samples.add("serve.cache_misses", float64(misses))
	samples.add("serve.cache_hit_frac", share(int(hits), int(hits+misses)))
	for _, code := range []int{200, 400, 500, 503, 504} {
		samples.add("serve.status."+strconv.Itoa(code), float64(status[code]))
	}
}
