package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ringmesh"
	"ringmesh/internal/obs"
)

// Job kinds: a single run, a size sweep, or a batch of runs submitted
// as one prioritized unit.
const (
	kindRun   = "run"
	kindSweep = "sweep"
	kindBatch = "batch"
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	// JobQueued means the job is accepted but no worker has started it.
	JobQueued JobState = "queued"
	// JobRunning means a worker is simulating it.
	JobRunning JobState = "running"
	// JobDone means it finished with a result.
	JobDone JobState = "done"
	// JobFailed means it finished with an error.
	JobFailed JobState = "failed"
)

// JobError describes a failed job in the job document. Status carries
// the same taxonomy as cmd/ringmesh's exit codes, mapped onto HTTP:
// configuration errors are 400 (though most are caught synchronously
// at submission), stalls 422, timeouts 504, cancellation (drain) 503,
// and anything else 500.
type JobError struct {
	Status  int                      `json:"status"`
	Kind    string                   `json:"kind"`
	Message string                   `json:"message"`
	Stall   *ringmesh.StallDiagnosis `json:"stall,omitempty"`
}

// errConfig marks an error produced while constructing a system —
// a configuration problem by definition.
type configError struct{ err error }

func (e *configError) Error() string { return e.err.Error() }
func (e *configError) Unwrap() error { return e.err }

// errDeadlineExpired marks a job whose client deadline passed while it
// was still queued: it is failed without ever occupying a worker.
var errDeadlineExpired = errors.New("serve: deadline expired before execution")

// classify maps a run error onto the job-document error taxonomy.
func classify(err error) *JobError {
	if err == nil {
		return nil
	}
	je := &JobError{Message: err.Error()}
	var ce *configError
	var se *shedError
	switch {
	case errors.As(err, &ce):
		je.Status, je.Kind = http.StatusBadRequest, "config"
	case errors.Is(err, ringmesh.ErrStalled):
		je.Status, je.Kind = http.StatusUnprocessableEntity, "stall"
		je.Stall = ringmesh.DiagnoseStall(err)
	case errors.Is(err, ringmesh.ErrTimeout):
		je.Status, je.Kind = http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, errDeadlineExpired), errors.Is(err, context.DeadlineExceeded):
		// A client deadline (or the server's JobTimeout) ran out — the
		// same meaning as an engine wall-clock timeout, surfaced under
		// its own kind so callers can tell "the run was slow" from "the
		// budget was short".
		je.Status, je.Kind = http.StatusGatewayTimeout, "deadline"
	case errors.As(err, &se):
		je.Status, je.Kind = http.StatusServiceUnavailable, "shed"
	case errors.Is(err, context.Canceled):
		je.Status, je.Kind = http.StatusServiceUnavailable, "canceled"
	default:
		je.Status, je.Kind = http.StatusInternalServerError, "runtime"
	}
	return je
}

// PointError is one failed point in a sweep's structured error
// report: the size that failed and its classified error. The sweep's
// completed points ride alongside in Points — a partial failure
// degrades the response, it does not void it.
type PointError struct {
	Nodes int       `json:"nodes"`
	Error *JobError `json:"error"`
}

// batchEntry is one run inside a batch submission: a validated config
// plus its resolved options — the journaled shape of a batch's points.
// Cache keys are recomputed on replay, never stored.
type batchEntry struct {
	Config  ringmesh.Config     `json:"config"`
	Options ringmesh.RunOptions `json:"options"`
}

// BatchItem is one entry's outcome in a batch job document: either a
// result or a classified error, in submission order.
type BatchItem struct {
	Index    int              `json:"index"`
	Topology string           `json:"topology,omitempty"`
	Cached   bool             `json:"cached,omitempty"`
	Result   *ringmesh.Result `json:"result,omitempty"`
	Error    *JobError        `json:"error,omitempty"`
}

// point is one simulation inside a job: a config, its run schedule and
// its cache key, computed once when the job is built. A run is one
// point, a sweep one point per size, a batch one point per entry.
type point struct {
	cfg ringmesh.Config
	opt ringmesh.RunOptions
	key string
}

// outcome is how one point resolved: a result (cached when replayed
// rather than computed for this job) or a classified error.
type outcome struct {
	res      *ringmesh.Result
	cached   bool
	attempts int
	err      *JobError
}

// jobTraceSpans bounds each job's span timeline; spans past it are
// counted as dropped, never silently lost.
const jobTraceSpans = 64

// job is one accepted unit of work: a list of points, rendered as a
// single run, a size sweep, or a batch of runs according to its kind.
type job struct {
	id   string
	kind string // kindRun, kindSweep or kindBatch
	// cfg and opt are a run's or a sweep's submitted config and
	// schedule — journaled as submitted, and the source of the family
	// and fidelity labels. A batch leaves them zero.
	cfg    ringmesh.Config
	opt    ringmesh.RunOptions
	points []point

	// class is the admission priority; deadline, when set, is the
	// absolute wall-clock instant after which the client no longer wants
	// the answer (zero: no deadline).
	class    class
	deadline time.Time
	// journaled marks jobs whose accepted record landed in the WAL, so
	// terminal transitions know whether to journal too.
	journaled bool
	// allowDegrade permits answering this run analytically (with a
	// best-effort upgrade job) if admission would shed it: set only for
	// background-class runs whose client did not name a fidelity tier,
	// so an explicit "simulate" request is never silently downgraded.
	allowDegrade bool

	// Progress. For runs, tick counts engine ticks out of totalTicks
	// (fed by the engine's per-cycle hook; totalTicks is written by the
	// executing worker and read by watchers, hence atomic). For sweeps
	// and batches, pointsDone counts resolved points.
	tick       atomic.Int64
	totalTicks atomic.Int64
	pointsDone atomic.Int64

	// tr is the job's lifecycle span timeline (validate, enqueue,
	// queue-wait, run, cache-store), served at GET /v1/jobs/{id}/trace.
	tr *obs.Trace
	// enqueuedAt timestamps queue admission so the executing worker can
	// reconstruct the queue-wait span and histogram observation.
	enqueuedAt time.Time

	mu        sync.Mutex
	state     JobState
	cached    bool
	degraded  bool
	upgradeID string
	result    *ringmesh.Result
	sweep     []ringmesh.SweepPoint
	pointErrs []PointError
	items     []BatchItem
	errObj    *JobError
	done      chan struct{} // closed on completion (done or failed)
}

// JobView is the job document served by GET /v1/jobs/{id} and
// embedded in submission responses.
type JobView struct {
	ID    string   `json:"id"`
	Kind  string   `json:"kind"`
	State JobState `json:"state"`
	// Class is the admission priority class the job was accepted under.
	Class string `json:"class"`
	// DeadlineUnixNS is the absolute client deadline, when one was set.
	DeadlineUnixNS int64 `json:"deadline_unix_ns,omitempty"`
	// Cached is true when the result was replayed from the cache (or a
	// coalesced concurrent computation) instead of simulated by this
	// job.
	Cached bool `json:"cached"`
	// Progress is the fraction of the schedule completed, in [0, 1].
	Progress float64               `json:"progress"`
	Result   *ringmesh.Result      `json:"result,omitempty"`
	Points   []ringmesh.SweepPoint `json:"points,omitempty"`
	// Degraded marks a response that is less than what was asked for: a
	// sweep or batch that completed with some points missing (Points or
	// Items hold what succeeded, PointErrors or the items' errors
	// classify the rest), or a background run answered analytically
	// under shed pressure.
	Degraded    bool         `json:"degraded,omitempty"`
	PointErrors []PointError `json:"point_errors,omitempty"`
	// UpgradeJobID names the background job enqueued to land the exact
	// result after an analytic-fidelity answer; poll it to upgrade.
	UpgradeJobID string `json:"upgrade_job_id,omitempty"`
	// Items holds a batch job's per-entry outcomes, in submission order.
	Items []BatchItem `json:"items,omitempty"`
	Error *JobError   `json:"error,omitempty"`
}

// newJob builds a queued job with a completion channel and a bounded
// span timeline. Its points come from expand (or, for an upgrade job,
// from the job it upgrades).
func newJob(id, kind string) *job {
	return &job{
		id: id, kind: kind, state: JobQueued,
		done: make(chan struct{}),
		tr:   obs.NewTrace(jobTraceSpans),
	}
}

// expand builds the job's points from its submission, validating each
// through CacheKey (the model's own validation) and keeping the key: a
// run is its cfg and opt; a sweep measures cfg at each size, with the
// topology re-derived from the node count as SweepSizes does; a batch
// is its entries. The error names the offending size or entry.
func (j *job) expand(sizes []int, entries []batchEntry) error {
	add := func(cfg ringmesh.Config, opt ringmesh.RunOptions) error {
		key, err := ringmesh.CacheKey(cfg, opt)
		j.points = append(j.points, point{cfg: cfg, opt: opt, key: key})
		return err
	}
	switch j.kind {
	case kindSweep:
		for _, n := range sizes {
			cfg := j.cfg
			cfg.Topology = ""
			cfg.Nodes = n
			if err := add(cfg, j.opt); err != nil {
				return fmt.Errorf("invalid config at size %d: %v", n, err)
			}
		}
	case kindBatch:
		for i, e := range entries {
			if err := add(e.Config, e.Options); err != nil {
				return fmt.Errorf("invalid config at entry %d: %v", i, err)
			}
		}
	default:
		if err := add(j.cfg, j.opt); err != nil {
			return fmt.Errorf("invalid config: %v", err)
		}
	}
	return nil
}

// family names the job's topology family for metric labels. A batch
// may mix families, so it gets its own label value.
func (j *job) family() string {
	if j.kind == kindBatch {
		return "batch"
	}
	return j.cfg.Network
}

// expired reports whether the job's client deadline has passed.
func (j *job) expired(now time.Time) bool {
	return !j.deadline.IsZero() && now.After(j.deadline)
}

// units is the job's work-unit count for admission-time cost
// estimation: its number of points.
func (j *job) units() int {
	return max(1, len(j.points))
}

// progress returns the completed fraction of the job's schedule.
func (j *job) progress() float64 {
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	switch state {
	case JobDone, JobFailed:
		return 1
	case JobQueued:
		return 0
	}
	if j.kind != kindRun {
		return float64(j.pointsDone.Load()) / float64(j.units())
	}
	total := j.totalTicks.Load()
	if total <= 0 {
		return 0
	}
	p := float64(j.tick.Load()) / float64(total)
	if p > 1 {
		p = 1
	}
	return p
}

// view snapshots the job document.
func (j *job) view() JobView {
	p := j.progress()
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:           j.id,
		Kind:         j.kind,
		State:        j.state,
		Class:        j.class.String(),
		Cached:       j.cached,
		Degraded:     j.degraded,
		UpgradeJobID: j.upgradeID,
		Progress:     p,
		Error:        j.errObj,
	}
	if !j.deadline.IsZero() {
		v.DeadlineUnixNS = j.deadline.UnixNano()
	}
	if j.result != nil {
		r := *j.result
		v.Result = &r
	}
	if j.sweep != nil {
		v.Points = append([]ringmesh.SweepPoint(nil), j.sweep...)
	}
	if j.pointErrs != nil {
		v.PointErrors = append([]PointError(nil), j.pointErrs...)
	}
	if j.items != nil {
		v.Items = append([]BatchItem(nil), j.items...)
	}
	return v
}

// setUpgrade records the background upgrade job's ID for the document.
func (j *job) setUpgrade(id string) {
	j.mu.Lock()
	j.upgradeID = id
	j.mu.Unlock()
}

// markDegraded flags the document as answered below the requested
// fidelity (shed-pressure analytic degrade).
func (j *job) markDegraded() {
	j.mu.Lock()
	j.degraded = true
	j.mu.Unlock()
}

// start transitions queued -> running.
func (j *job) start() {
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()
}

// fail ends the job outright — expiry, eviction, cancellation — with
// err's classification, and closes the completion channel.
func (j *job) fail(err error) *JobError {
	j.mu.Lock()
	j.state = JobFailed
	j.errObj = classify(err)
	j.mu.Unlock()
	close(j.done)
	return j.errObj
}

// finish merges the points' outcomes into the job document and closes
// the completion channel. The kind only selects the wire shape: a run
// renders its result or its classified error, a sweep its points by
// size plus point_errors, a batch its items in submission order. Some
// failed points degrade a multi-point job; when every point failed the
// job fails, classified by the first point (a sweep's smallest size),
// so a sweep that died entirely of stalls reports as such, not as a
// generic 500. The job is cached when every point was. It returns the
// job's error, nil when done.
func (j *job) finish(outs []outcome) *JobError {
	cached := len(outs) > 0
	failed := 0
	var first *JobError
	for _, o := range outs {
		if o.err != nil {
			failed++
			first = cmp.Or(first, o.err)
		}
		cached = cached && o.cached && o.err == nil
	}
	j.mu.Lock()
	defer close(j.done)
	defer j.mu.Unlock()
	j.cached = cached
	switch j.kind {
	case kindRun:
		j.result = outs[0].res
	case kindSweep:
		for i, o := range outs {
			n := j.points[i].cfg.Nodes
			if o.err != nil {
				j.pointErrs = append(j.pointErrs, PointError{Nodes: n, Error: o.err})
				continue
			}
			j.sweep = append(j.sweep, ringmesh.SweepPoint{
				Nodes: n, Topology: resolveTopology(j.points[i].cfg), Result: *o.res, Attempts: o.attempts,
			})
		}
		sort.SliceStable(j.sweep, func(a, b int) bool { return j.sweep[a].Nodes < j.sweep[b].Nodes })
		sort.SliceStable(j.pointErrs, func(a, b int) bool { return j.pointErrs[a].Nodes < j.pointErrs[b].Nodes })
		if failed > 0 {
			first = j.pointErrs[0].Error
		}
	case kindBatch:
		j.items = make([]BatchItem, len(outs))
		for i, o := range outs {
			j.items[i] = BatchItem{Index: i, Cached: o.cached, Result: o.res, Error: o.err}
		}
		for i, p := range j.points {
			if j.items[i].Error == nil {
				j.items[i].Topology = resolveTopology(p.cfg)
			}
		}
	}
	switch {
	case failed == 0:
		j.state = JobDone
	case j.kind == kindRun:
		j.state, j.errObj = JobFailed, first
	case failed == len(outs):
		what := "points"
		if j.kind == kindBatch {
			what = "batch entries"
		}
		j.state = JobFailed
		j.errObj = &JobError{
			Status:  first.Status,
			Kind:    first.Kind,
			Message: fmt.Sprintf("all %d %s failed; first: %s", failed, what, first.Message),
		}
	default:
		j.state, j.degraded = JobDone, true
	}
	return j.errObj
}

// finished reports whether the job has completed (either way).
func (j *job) finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}
