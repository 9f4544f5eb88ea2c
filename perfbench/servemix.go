package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ringmesh"
	"ringmesh/internal/metrics"
	"ringmesh/internal/serve"
)

// The serve-mix traffic: one open-loop generator sends Poisson
// arrivals at a fixed offered rate, well below the daemon's capacity on
// a 2-core machine; then a closed loop sends a fixed number of
// requests as fast as the daemon answers them.
const (
	offeredRate = 360.0 // requests per second
	// closedRate sizes the closed loop: it sends this many requests
	// per second of its half of the window, about what a 2-core Xeon
	// answers, so the phase lasts about that half.
	closedRate = 1200.0
	tinyRate   = 160.0
	// Request shares; the rest are misses (fresh simulations).
	hitShare      = 0.70
	analyticShare = 0.20
	// latencyLimit is the goodput limit, from when a request was due
	// until its answer (for a miss, its result) arrived.
	latencyLimit = 100 * time.Millisecond
	// pollEvery is the job-document polling period that awaits a
	// miss's result; each miss starts polling at a random phase within
	// it, so the median is not quantised to the period.
	pollEvery = 2 * time.Millisecond
	// drainTimeout bounds the wait for requests still in flight after
	// the window and for the daemon's drain.
	drainTimeout = 60 * time.Second
)

const (
	kindHit = iota
	kindAnalytic
	kindMiss
)

// shortRun is the schedule of every simulated serve-mix run: a few
// milliseconds of engine time on the small systems below.
var shortRun = ringmesh.RunOptions{WarmupCycles: 200, BatchCycles: 400, Batches: 3}

// smallSystems are the geometries of simulated (hit and miss) runs.
var smallSystems = []ringmesh.Config{
	{Network: "ring", Topology: "8"},
	{Network: "ring", Topology: "2:4"},
	{Network: "ring", Topology: "3:4"},
	{Network: "mesh", Nodes: 9, BufferFlits: 4},
	{Network: "mesh", Nodes: 16, BufferFlits: 1},
}

// analyticRings are the geometries of analytic requests; R is drawn
// from a continuum, so their cache keys (which drop the seed) do not
// repeat and every request runs the estimator.
var analyticRings = []string{"4", "8", "12", "2:4", "3:6", "2:3:4", "3:3:8", "2:2:3:4"}

var lineSizes = []int{16, 32, 64, 128}

// simConfig draws one small simulated system with a fresh seed.
func simConfig(rng *rand.Rand) ringmesh.Config {
	c := smallSystems[rng.IntN(len(smallSystems))]
	c.LineBytes = lineSizes[rng.IntN(len(lineSizes))]
	c.Workload = ringmesh.PaperWorkload()
	c.Seed = rng.Uint64()
	return c
}

// analyticConfig draws one analytic-fidelity ring configuration.
func analyticConfig(rng *rand.Rand) ringmesh.Config {
	wl := ringmesh.PaperWorkload()
	wl.R = 0.1 + 0.9*rng.Float64()
	wl.T = []int{1, 2, 4}[rng.IntN(3)]
	return ringmesh.Config{
		Network:   "ring",
		Topology:  analyticRings[rng.IntN(len(analyticRings))],
		LineBytes: lineSizes[rng.IntN(len(lineSizes))],
		Workload:  wl,
		Fidelity:  "analytic",
	}
}

// request is one scheduled request and what came back.
type request struct {
	kind   int
	due    time.Duration // offset from the window's start
	cfg    ringmesh.Config
	body   []byte
	hitKey int // pre-warmed key a hit repeats

	late     time.Duration // how late the generator sent it
	answered time.Duration // response, from due
	done     time.Duration // miss: result available, from due
	status   int
	cached   bool
	result   []byte // canonical JSON of the answer
	err      error
}

type runBody struct {
	Config  ringmesh.Config     `json:"config"`
	Options ringmesh.RunOptions `json:"options"`
}

// jobDoc is the part of ringmeshd's job document the benchmark reads.
type jobDoc struct {
	ID     string           `json:"id"`
	State  string           `json:"state"`
	Cached bool             `json:"cached"`
	Result *ringmesh.Result `json:"result"`
}

// mixSource draws the serve-mix requests from the workload seed. Both
// phases draw from one source, so every miss in a run is fresh.
type mixSource struct {
	rng     *rand.Rand
	hitCfgs []ringmesh.Config
	// hitBodies are the hit keys' request bodies, shared by every hit.
	hitBodies [][]byte
	seen      map[string]bool // cache keys of the misses drawn so far
}

func newMixSource(seed uint64) *mixSource {
	m := &mixSource{rng: rand.New(rand.NewPCG(seed, 0x5e7e)), seen: map[string]bool{}}
	// One hit key per small system and line size, each with a seed of
	// its own, so pre-warming costs about the same for every workload
	// seed.
	for _, sys := range smallSystems {
		for _, line := range lineSizes {
			c := sys
			c.LineBytes, c.Workload, c.Seed = line, ringmesh.PaperWorkload(), m.rng.Uint64()
			m.hitCfgs = append(m.hitCfgs, c)
			m.hitBodies = append(m.hitBodies, mustJSON(runBody{Config: c, Options: shortRun}))
		}
	}
	return m
}

// next draws one request: a hit on a pre-warmed key, an analytic
// request or a fresh miss, in the configured shares.
func (m *mixSource) next() (request, error) {
	var q request
	switch u := m.rng.Float64(); {
	case u < hitShare:
		q.kind, q.hitKey = kindHit, m.rng.IntN(len(m.hitCfgs))
		q.cfg, q.body = m.hitCfgs[q.hitKey], m.hitBodies[q.hitKey]
		return q, nil
	case u < hitShare+analyticShare:
		q.kind, q.cfg = kindAnalytic, analyticConfig(m.rng)
	default:
		q.kind = kindMiss
		for {
			q.cfg = simConfig(m.rng)
			key, err := ringmesh.CacheKey(q.cfg, shortRun)
			if err != nil {
				return q, err
			}
			if !m.seen[key] {
				m.seen[key] = true
				break
			}
		}
	}
	q.body = mustJSON(runBody{Config: q.cfg, Options: shortRun})
	return q, nil
}

// draw draws n requests in order.
func (m *mixSource) draw(n int) ([]request, error) {
	reqs := make([]request, n)
	for i := range reqs {
		q, err := m.next()
		if err != nil {
			return nil, err
		}
		reqs[i] = q
	}
	return reqs, nil
}

// schedule draws the open-loop phase's requests: count fixed by rate
// and window, exponential gaps scaled to span the window exactly.
func schedule(m *mixSource, rate float64, window time.Duration) ([]request, error) {
	n := max(1, int(math.Round(rate*window.Seconds())))
	gaps := make([]float64, n)
	total := 0.0
	for i := range gaps {
		gaps[i] = m.rng.ExpFloat64()
		total += gaps[i]
	}
	reqs, err := m.draw(n)
	if err != nil {
		return nil, err
	}
	at := 0.0
	for i := range reqs {
		at += gaps[i] / total * float64(window)
		reqs[i].due = time.Duration(at)
	}
	return reqs, nil
}

// daemon is one in-process ringmeshd on a loopback test server, with
// its durable cache and job journal in a temporary directory.
type daemon struct {
	dir    string
	srv    *serve.Server
	http   *httptest.Server
	client *http.Client
	// answers holds the first answer for each pre-warmed key.
	answers [][]byte
}

// startDaemon builds the daemon and pre-warms the hit key set.
func startDaemon(cfg config, tr *tracer, hitCfgs []ringmesh.Config) (*daemon, error) {
	dir, err := os.MkdirTemp(cfg.workDir(), "serve-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir}
	sp := tr.start("serve.New", laneServe)
	d.srv, err = serve.New(serve.Options{
		JournalDir: dir + "/journal",
		CacheDir:   dir + "/cache",
	})
	tr.end(sp)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	h := d.srv.Handler()
	if tr != nil {
		h = tracedHandler(tr, h)
	}
	d.http = httptest.NewServer(h)
	nproc := runtime.NumCPU()
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     nproc,
		MaxIdleConnsPerHost: nproc,
	}}

	sp = tr.start("prewarm", laneBench)
	defer tr.end(sp)
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	ids := make([]string, len(hitCfgs))
	for i, c := range hitCfgs {
		doc, status, err := d.post(ctx, mustJSON(runBody{Config: c, Options: shortRun}))
		if err != nil || status != http.StatusAccepted {
			d.stop()
			return nil, fmt.Errorf("pre-warm submit: status %d: %v", status, err)
		}
		ids[i] = doc.ID
	}
	for _, id := range ids {
		doc, err := d.await(ctx, id, 0)
		if err != nil || doc.Result == nil {
			d.stop()
			return nil, fmt.Errorf("pre-warm job %s: %v", id, err)
		}
		d.answers = append(d.answers, mustJSON(doc.Result))
	}
	return d, nil
}

// tracedHandler records one span per request handled, named by route.
func tracedHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := r.URL.Path
		if strings.HasPrefix(route, "/v1/jobs/") {
			route = "/v1/jobs/{id}"
		}
		sp := tr.start("serve.http "+r.Method+" "+route, laneServe)
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// stop drains the daemon, closes the server and removes its files.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := d.srv.Drain(ctx)
	d.http.Close()
	d.client.CloseIdleConnections()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only the benchmark's own plain structs are encoded
	}
	return b
}

func (d *daemon) post(ctx context.Context, body []byte) (jobDoc, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.http.URL+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return jobDoc{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	return d.do(req)
}

func (d *daemon) get(ctx context.Context, id string) (jobDoc, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.http.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		return jobDoc{}, 0, err
	}
	return d.do(req)
}

func (d *daemon) do(req *http.Request) (jobDoc, int, error) {
	resp, err := d.client.Do(req)
	if err != nil {
		return jobDoc{}, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobDoc{}, resp.StatusCode, err
	}
	var doc jobDoc
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(b, &doc); err != nil {
			return jobDoc{}, resp.StatusCode, err
		}
	}
	return doc, resp.StatusCode, nil
}

// await polls a job document until the job has finished.
func (d *daemon) await(ctx context.Context, id string, phase time.Duration) (jobDoc, error) {
	t := time.NewTimer(phase)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return jobDoc{}, ctx.Err()
		case <-t.C:
		}
		doc, status, err := d.get(ctx, id)
		if err != nil {
			return doc, err
		}
		if status != http.StatusOK {
			return doc, fmt.Errorf("job %s: status %d", id, status)
		}
		switch doc.State {
		case "done":
			return doc, nil
		case "failed":
			return doc, fmt.Errorf("job %s failed", id)
		}
		t.Reset(pollEvery)
	}
}

// spinAhead is how long before a request is due the generator stops
// sleeping and yields in a loop instead: timer wake-ups on small
// virtual machines run most of a millisecond late, which would
// otherwise dominate the latency of a cache hit.
const spinAhead = 1500 * time.Microsecond

// waitUntil returns at t, sleeping until shortly before it and then
// yielding to runnable goroutines until it passes.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinAhead; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// issue sends one scheduled request and records what came back.
func (d *daemon) issue(ctx context.Context, q *request, due time.Time, phase time.Duration) {
	q.late = time.Since(due)
	doc, status, err := d.post(ctx, q.body)
	q.answered = time.Since(due)
	q.status, q.err, q.cached = status, err, doc.Cached
	if err != nil {
		return
	}
	if q.kind == kindMiss && status == http.StatusAccepted {
		doc, q.err = d.await(ctx, doc.ID, phase)
		q.done = time.Since(due)
	}
	if doc.Result != nil {
		q.result = mustJSON(doc.Result)
		// A hit that matches its key's first answer shares that
		// answer's bytes, so the many hits kept for checking cost
		// no memory of their own.
		if q.kind == kindHit && bytes.Equal(q.result, d.answers[q.hitKey]) {
			q.result = d.answers[q.hitKey]
		}
	}
}

// counter sums a registry counter over its label sets.
func counter(reg *metrics.Registry, name string) float64 {
	v := 0.0
	for _, s := range reg.Series() {
		if s.Name == name && s.Kind == metrics.KindCounter {
			v += s.Value()
		}
	}
	return v
}

// histogram merges a registry histogram's bucket counts over its label
// sets (every set of one name shares the bucket bounds).
func histogram(reg *metrics.Registry, name string) (bounds []float64, counts []int64) {
	for _, s := range reg.Series() {
		h := s.Hist()
		if s.Name != name || h == nil {
			continue
		}
		c := h.BucketCounts()
		if counts == nil {
			bounds, counts = h.Bounds(), make([]int64, len(c))
		}
		for i := range c {
			counts[i] += c[i]
		}
	}
	return bounds, counts
}

// bucketQuantile interpolates the q-quantile of bucket counts the way
// metrics.Histogram.Quantile does.
func bucketQuantile(bounds []float64, counts []int64, q float64) float64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	target, cum := q*float64(n), 0.0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (target-cum)/float64(c)*(bounds[i]-lo)
		}
		cum += float64(c)
	}
	return bounds[len(bounds)-1]
}

// serveCounters are the daemon counters the traced run reports as
// deltas over the measurement window.
var serveCounters = []string{
	"ringmeshd_cache_hits_total", "ringmeshd_cache_misses_total",
	"ringmeshd_disk_cache_writes_total", "ringmeshd_shed_total",
	"ringmeshd_journal_appends_total",
}

// serveHists are the daemon histograms reported as window quantiles.
var serveHists = []string{"ringmeshd_job_queue_wait_seconds", "ringmeshd_job_run_seconds"}

type regSnapshot struct {
	counters map[string]float64
	bounds   map[string][]float64
	hists    map[string][]int64
}

func snapshot(reg *metrics.Registry) regSnapshot {
	s := regSnapshot{counters: map[string]float64{}, bounds: map[string][]float64{}, hists: map[string][]int64{}}
	for _, n := range serveCounters {
		s.counters[n] = counter(reg, n)
	}
	for _, n := range serveHists {
		s.bounds[n], s.hists[n] = histogram(reg, n)
	}
	return s
}

// windowQuantile is the q-quantile of what a histogram observed
// between two snapshots, in ms.
func windowQuantile(before, after regSnapshot, name string, q float64) float64 {
	a, b := after.hists[name], before.hists[name]
	delta := make([]int64, len(a))
	for i := range a {
		delta[i] = a[i]
		if i < len(b) {
			delta[i] -= b[i]
		}
	}
	return 1e3 * bucketQuantile(after.bounds[name], delta, q)
}

// runServeMix sets up the daemon (several times, reporting the
// median), sends the open-loop schedule over the first half of the
// window, measures capacity with the closed loop, then checks every
// answer.
func runServeMix(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	mix := newMixSource(cfg.seed)
	openRate, capRate := offeredRate, closedRate
	if cfg.tiny {
		openRate, capRate = tinyRate, tinyRate
	}
	phase := time.Duration(cfg.seconds * float64(time.Second) / 2)
	reqs, err := schedule(mix, openRate, phase)
	if err != nil {
		return nil, err
	}
	closed, err := mix.draw(max(1, int(math.Round(capRate*phase.Seconds()))))
	if err != nil {
		return nil, err
	}

	var d *daemon
	var setups []float64
	setupStart := time.Now()
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		sp := tr.start("setup", laneBench)
		d, err = startDaemon(cfg, tr, mix.hitCfgs)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.values["setup_s"] = startupCPU.Seconds() + setupStart.Sub(processStart).Seconds() + median(setups)
	before := snapshot(d.srv.Registry())

	ctx, cancel := context.WithTimeout(context.Background(), 2*phase+drainTimeout)
	defer cancel()
	sp := tr.start("serve-mix open loop", laneBench)
	start := time.Now().Add(time.Millisecond)
	pollRng := rand.New(rand.NewPCG(cfg.seed, 0x9011))
	var wg sync.WaitGroup
	for i := range reqs {
		q := &reqs[i]
		due := start.Add(q.due)
		waitUntil(due)
		poll := time.Duration(pollRng.Float64() * float64(pollEvery))
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.issue(ctx, q, due, poll)
		}()
	}
	wg.Wait()
	tr.end(sp)
	after := snapshot(d.srv.Registry())

	sp = tr.start("serve-mix closed loop", laneBench)
	elapsed, cpu := capacity(ctx, d, closed)
	tr.end(sp)
	// The checks below allocate much more than the measured work, so
	// the peak is read before them.
	rep.values["peak_rss_mb"] = peakRSSMB()

	// Check every answer; the miss replays also run here, after the
	// window, so they are not timed.
	sp = tr.start("check", laneBench)
	all := append(append([]request(nil), reqs...), closed...)
	wrong, failed := checkAnswers(ctx, d, all)
	tr.end(sp)
	good := 0
	for i := range all {
		switch {
		case wrong[i]:
			rep.failed++
			rep.mismatches++
		case failed[i]:
			rep.failed++
		case i < len(reqs) && all[i].latency() <= latencyLimit:
			good++
		}
	}
	rep.attempted = int64(len(all))

	sp = tr.start("serve.Drain", laneServe)
	err = d.stop()
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	var lat, hits, analytic, misses, late []float64
	last := time.Duration(0)
	for i := range reqs {
		q := &reqs[i]
		last = max(last, q.due+q.latency())
		lat = append(lat, ms(q.answered))
		late = append(late, ms(q.late))
		switch q.kind {
		case kindHit:
			hits = append(hits, ms(q.answered))
		case kindAnalytic:
			analytic = append(analytic, ms(q.answered))
		case kindMiss:
			misses = append(misses, ms(q.done))
		}
	}
	rep.values["wall_s"] = last.Seconds()
	rep.values["goodput_rps"] = float64(good) / last.Seconds()
	rep.values["cpu_ms_per_op"] = ms(cpu) / float64(len(closed))
	rep.values["req_p50_ms"] = median(lat)
	rep.values["req_p99_ms"] = quantile(lat, 0.99)
	rep.values["hit_p50_ms"] = median(hits)
	rep.values["analytic_p50_ms"] = median(analytic)
	rep.values["miss_p50_ms"] = median(misses)

	dc := func(name string) float64 { return after.counters[name] - before.counters[name] }
	if lookups := dc("ringmeshd_cache_hits_total") + dc("ringmeshd_cache_misses_total"); lookups > 0 {
		rep.values["serve.hit_ratio"] = dc("ringmeshd_cache_hits_total") / lookups
	}
	rep.values["serve.disk_writes"] = dc("ringmeshd_disk_cache_writes_total")
	rep.values["serve.shed"] = dc("ringmeshd_shed_total")
	rep.values["serve.journal_appends"] = dc("ringmeshd_journal_appends_total")
	rep.values["serve.queue_wait_p50_ms"] = windowQuantile(before, after, "ringmeshd_job_queue_wait_seconds", 0.5)
	rep.values["serve.run_p50_ms"] = windowQuantile(before, after, "ringmeshd_job_run_seconds", 0.5)
	rep.values["bench.gen_late_p99_ms"] = quantile(late, 0.99)
	if tr != nil {
		rep.values["serve.http.runs_p50_ms"] = median(tr.durations("serve.http POST /v1/runs"))
		rep.values["serve.http.jobs_p50_ms"] = median(tr.durations("serve.http GET /v1/jobs/{id}"))
	}

	n := float64(len(reqs))
	rep.mix["hit_share"] = float64(len(hits)) / n
	rep.mix["analytic_share"] = float64(len(analytic)) / n
	rep.mix["miss_share"] = float64(len(misses)) / n
	rep.mix["analytic_key_repeat_share"] = analyticRepeatShare(all)
	// The closed loop's rate is the daemon's capacity for this mix.
	rep.mix["closed_loop_rps"] = float64(len(closed)) / elapsed.Seconds()
	rep.mix["offered_load_share"] = openRate / rep.mix["closed_loop_rps"]
	return rep, nil
}

// latency is how long the request waited for its answer from when it
// was due: for a miss, until its result was available.
func (q *request) latency() time.Duration {
	if q.kind == kindMiss {
		return q.done
	}
	return q.answered
}

// capacity runs the closed loop: nproc clients, each sending the next
// unsent request as soon as its previous one is answered (a miss once
// its result is available), until all are sent. It returns the time
// until the last was answered and the CPU time the process used
// meanwhile.
func capacity(ctx context.Context, d *daemon, reqs []request) (elapsed, cpu time.Duration) {
	var next atomic.Int64
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(reqs)); i = next.Add(1) - 1 {
				d.issue(ctx, &reqs[i], time.Now(), 0)
			}
		}()
	}
	wg.Wait()
	return time.Since(start), cpuTime() - cpu0
}

// analyticRepeatShare is the share of analytic requests whose cache key
// an earlier analytic request already used.
func analyticRepeatShare(reqs []request) float64 {
	seen := map[string]bool{}
	n, rep := 0, 0
	for _, q := range reqs {
		if q.kind != kindAnalytic {
			continue
		}
		n++
		key, err := ringmesh.CacheKey(q.cfg, shortRun)
		if err != nil {
			continue
		}
		if seen[key] {
			rep++
		}
		seen[key] = true
	}
	if n == 0 {
		return 0
	}
	return float64(rep) / float64(n)
}

// checkAnswers verifies every request: a hit must be served from the
// cache and equal the first answer for its key; an analytic answer
// must equal a direct ringmesh.Estimate of its config; a miss must
// equal its later cached replay. wrong marks answers that differ;
// failed marks requests that got no answer to check.
func checkAnswers(ctx context.Context, d *daemon, reqs []request) (wrong, failed []bool) {
	wrong, failed = make([]bool, len(reqs)), make([]bool, len(reqs))
	for i := range reqs {
		q := &reqs[i]
		if q.err != nil || q.result == nil || q.status < 200 || q.status >= 300 {
			failed[i] = true
			continue
		}
		switch q.kind {
		case kindHit:
			wrong[i] = !q.cached || !bytes.Equal(q.result, d.answers[q.hitKey])
		case kindAnalytic:
			r, err := ringmesh.Estimate(q.cfg, shortRun)
			wrong[i] = err != nil || !bytes.Equal(q.result, mustJSON(r))
		case kindMiss:
			doc, status, err := d.post(ctx, q.body)
			if err != nil || status != http.StatusOK || doc.Result == nil {
				failed[i] = true
				continue
			}
			wrong[i] = !doc.Cached || !bytes.Equal(q.result, mustJSON(doc.Result))
		}
		if wrong[i] {
			fmt.Fprintf(os.Stderr, "perfbench: wrong answer to request %d (kind %d)\n", i, q.kind)
		}
	}
	return wrong, failed
}
