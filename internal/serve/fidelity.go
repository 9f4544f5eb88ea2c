package serve

// This file implements multi-fidelity serving: the daemon can answer
// from three tiers — the result cache, the closed-form analytic
// estimator (microseconds, labeled with its recorded error bound),
// and the exact simulator. Clients pick a tier with the request's
// fidelity field:
//
//	"simulate" (or omitted)  exact simulation, exactly as before
//	"analytic"               inline closed-form estimate, never queued
//	"auto"                   cache hit if available, else an analytic
//	                         answer plus a background "upgrade to
//	                         exact" job whose ID rides in the response
//
// Auto is an admission policy, not an answer tier: it is resolved
// here, before cache keys exist, and never enters a key. Analytic
// results live under their own cache keys (fidelity joins the key),
// so an estimate can never be served as an exact result. When the
// analytic model refuses a configuration (ErrUnsupported), auto falls
// back to a normal exact enqueue — refusal costs a queue slot, never
// a wrong labeled answer.
//
// Under admission pressure, background-class runs whose client did
// not name a tier degrade to analytic-with-upgrade instead of 503:
// the caller gets a bounded estimate now and (best-effort) the exact
// result later, observable via the ringmeshd_fidelity_* counters.

import (
	"net/http"
	"time"

	"ringmesh"
	"ringmesh/internal/fidelity"
	"ringmesh/internal/metrics"
	"ringmesh/internal/obs"
)

// fidelityBuckets spans 1µs to ~16s in x4 steps: inline analytic
// answers land in the microsecond decades and simulations in seconds,
// and one bucket family must hold both for the per-fidelity latency
// histograms to be comparable.
var fidelityBuckets = metrics.ExpBuckets(1e-6, 4, 12)

// resolveFidelity merges a request's top-level fidelity field into its
// config (the top-level field wins) and resolves the serving mode:
// fidelity.Simulate, fidelity.Analytic or fidelity.Auto. Auto is
// cleared from the config here so cache keys are always computed for
// a concrete tier. explicit reports whether the client named a tier
// itself, which gates shed-pressure degradation — a client that
// explicitly asked to "simulate" is never silently answered
// analytically.
func (s *Server) resolveFidelity(reqFid string, cfg *ringmesh.Config) (mode string, explicit bool, err error) {
	if reqFid != "" {
		cfg.Fidelity = reqFid
	}
	raw := cfg.Fidelity
	if raw == fidelity.Auto {
		cfg.Fidelity = ""
		s.fidRequests[fidelity.Auto].Inc()
		return fidelity.Auto, false, nil
	}
	mode, err = fidelity.Normalize(raw)
	if err != nil {
		return "", false, err
	}
	s.fidRequests[mode].Inc()
	return mode, raw != "", nil
}

// jobFidelity labels a queued job's answer tier for the per-fidelity
// latency histograms.
func jobFidelity(j *job) string {
	if f, err := fidelity.Normalize(j.cfg.Fidelity); err == nil {
		return f
	}
	return fidelity.Simulate
}

// observeFidelityAnswer records one inline analytic answer's latency.
func (s *Server) observeFidelityAnswer(start time.Time) {
	s.histogram("ringmeshd_fidelity_answer_seconds",
		metrics.Labels{Fidelity: fidelity.Analytic}, fidelityBuckets).
		Observe(time.Since(start).Seconds())
}

// answerAnalytic computes the analytic-tier answer for one point
// through the result cache, under the analytic cache key — estimates
// and exact results never collide, and identical estimates coalesce.
// The result carries the "analytic" fidelity label and its recorded
// error bound, attached by ringmesh.Estimate.
func (s *Server) answerAnalytic(p point, tr *obs.Trace) (ringmesh.Result, bool, error) {
	if p.cfg.Fidelity != fidelity.Analytic {
		p.cfg.Fidelity = fidelity.Analytic
		key, err := ringmesh.CacheKey(p.cfg, p.opt)
		if err != nil {
			return ringmesh.Result{}, false, err
		}
		p.key = key
	}
	return s.cache.do(s.baseCtx, p.key, tr, func() (ringmesh.Result, error) {
		return ringmesh.Estimate(p.cfg, p.opt)
	})
}

// resolveInline tries to answer every point of j on the request path,
// without the simulator. Each point resolves, in order, from an exact
// cache hit, from the analytic tier — when its config names analytic,
// or when auto(i) lets an estimate stand in for the exact result — or
// not at all: the point needs the simulator, and resolveInline returns
// no outcomes so the job takes the queue. Points answered by a
// stand-in estimate come back as upgrade, the work a background job
// should redo exactly. err is the analytic tier's refusal, when that
// is what stopped it.
func (s *Server) resolveInline(j *job, auto func(i int) bool) (outs []outcome, upgrade []point, err error) {
	outs = make([]outcome, len(j.points))
	for i, p := range j.points {
		// A point that names analytic is keyed by its estimate, which
		// answerAnalytic looks up itself.
		named := p.cfg.Fidelity == fidelity.Analytic
		if !named {
			if res, ok := s.cache.get(p.key); ok {
				outs[i] = outcome{res: &res, cached: true, attempts: 1}
				continue
			}
			if !auto(i) {
				return nil, nil, nil
			}
		}
		res, cached, err := s.answerAnalytic(p, j.tr)
		if err != nil {
			return nil, nil, err
		}
		outs[i] = outcome{res: &res, cached: cached, attempts: 1}
		if !named {
			upgrade = append(upgrade, p)
		}
	}
	return outs, upgrade, nil
}

// answerInline completes j on the request path with its inline
// outcomes and writes the 200 job document. Estimates that stood in
// for exact results get one background-class upgrade job carrying just
// those points, landing the exact results under the exact cache keys.
// Its admission is best-effort: under the same pressure that degraded
// the request the upgrade is usually shed too, and the document simply
// carries no upgrade ID.
func (s *Server) answerInline(w http.ResponseWriter, r *http.Request, j *job, outs []outcome, upgrade []point, start time.Time) {
	if len(upgrade) > 0 {
		u := newJob("", j.kind)
		u.cfg, u.opt, u.points = j.cfg, j.opt, upgrade
		u.class = classBackground
		s.register(u)
		u.enqueuedAt = time.Now()
		if err := s.admit(u); err != nil {
			s.unregister(u)
			s.log.Info("upgrade job not admitted", "kind", u.kind, "err", err)
		} else {
			s.accepted.Inc()
			s.fidUpgrades.Inc()
			j.setUpgrade(u.id)
			s.log.Info("upgrade job enqueued", "job", u.id, "kind", u.kind)
		}
	}
	if len(upgrade) > 0 || j.cfg.Fidelity == fidelity.Analytic {
		s.fidAnalyticAnswers.Inc()
		s.observeFidelityAnswer(start)
	}
	j.finish(outs)
	s.register(j)
	s.accepted.Inc()
	s.completed.Inc()
	s.log.Info("job answered inline", "job", j.id, "kind", j.kind,
		"family", j.family(), "client", clientKey(r))
	writeJSON(w, http.StatusOK, j.view())
}
