package main

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"ringmesh"
)

// The smoke tests run from perfbench/, so the checkout root is "..".
const testRoot = ".."

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(testRoot + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func unitsOf(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestWorkloadsEmitDeclaredMetrics runs every declared workload at tiny
// scale, untraced and traced, and checks that each result carries
// exactly the metrics BENCHMARK.json names, with their units, that
// every check passed, and that the end-to-end metrics are non-zero.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	e2e, layer := unitsOf(d.EndToEnd), unitsOf(d.PerLayer)
	if len(d.Workloads) != 3 {
		t.Fatalf("BENCHMARK.json declares %d workloads, want 3", len(d.Workloads))
	}
	for _, w := range d.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 7, seconds: 0.5, trace: traced, root: testRoot, tiny: true}
			res, rec, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if traced {
				want = layer
				if _, err := os.Stat(rec["trace_file"].(string)); err != nil {
					t.Errorf("%s: trace file: %v", w.Name, err)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s: metric %s unit %q, want %q", w.Name, name, m.Unit, unit)
				case !traced && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
				}
			}
			if !traced {
				continue
			}
			// Every workload runs the probes; only serve-mix sends
			// requests, and a layer a workload never calls reads 0.
			names := []string{"ring.wormhole.ns_per_pm_cycle", "mesh.buf4.flits_per_pm_cycle",
				"sim.parallel.speedup", "fidelity.estimate_us", "ringmesh.cachekey_us"}
			if w.Name == "serve-mix" {
				names = append(names, "req_p50_ms", "req_p99_ms", "hit_p50_ms", "analytic_p50_ms",
					"miss_p50_ms", "serve.hit_ratio", "serve.journal_appends")
			} else {
				names = append(names, map[string]string{"ring-figures": "exp.fig6_s", "mesh-figures": "exp.fig13_s"}[w.Name])
			}
			for _, name := range names {
				if !(res.Metrics[name].Value > 0) {
					t.Errorf("%s: %s = %v, want > 0", w.Name, name, res.Metrics[name].Value)
				}
			}
		}
	}
}

// TestCheckFigureDetectsCorruption feeds corrupted reference CSVs to
// the figure check.
func TestCheckFigureDetectsCorruption(t *testing.T) {
	ref, err := os.ReadFile(testRoot + "/results/fig6.csv")
	if err != nil {
		t.Fatal(err)
	}
	if rows, bad := checkFigure(ref, ref, true); rows != 108 || bad != 0 {
		t.Fatalf("identical figure: rows=%d bad=%d, want 108 and 0", rows, bad)
	}
	lines := csvLines(ref)
	corrupt := func(f func([]string) []string) []byte {
		l := f(append([]string(nil), lines...))
		return []byte(strings.Join(l, "\n") + "\n")
	}
	cases := map[string]struct {
		ref   []byte
		exact bool
	}{
		"one digit changed": {corrupt(func(l []string) []string {
			l[5] = strings.Replace(l[5], "1", "2", 1)
			return l
		}), true},
		"row missing":    {corrupt(func(l []string) []string { return append(l[:7], l[8:]...) }), true},
		"header changed": {corrupt(func(l []string) []string { l[0] = "series,x,y"; return l }), false},
		"other series label": {corrupt(func(l []string) []string {
			l[3] = "99B" + l[3][3:]
			return l
		}), false},
	}
	for name, c := range cases {
		if _, bad := checkFigure(ref, c.ref, c.exact); bad == 0 {
			t.Errorf("%s: corruption not detected", name)
		}
	}
	nan := corrupt(func(l []string) []string { l[2] = "16B T=1,6,NaN,0.1,false,false"; return l })
	if _, bad := checkFigure(nan, ref, false); bad != 1 {
		t.Errorf("NaN value: bad=%d, want 1", bad)
	}
}

// TestTamperedAnswersFail runs one request of each kind against a
// daemon and checks that altering any answer fails its check.
func TestTamperedAnswersFail(t *testing.T) {
	cfg := config{seed: 5, root: testRoot, tiny: true}
	rng := rand.New(rand.NewPCG(1, 2))
	hit := simConfig(rng)
	d, err := startDaemon(cfg, nil, []ringmesh.Config{hit})
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	reqs := []request{
		{kind: kindHit, cfg: hit, hitKey: 0},
		{kind: kindAnalytic, cfg: analyticConfig(rng)},
		{kind: kindMiss, cfg: simConfig(rng)},
	}
	for i := range reqs {
		q := &reqs[i]
		q.body = mustJSON(runBody{Config: q.cfg, Options: shortRun})
		d.issue(ctx, q, time.Now(), 0)
		if q.err != nil || q.result == nil {
			t.Fatalf("request %d: status %d err %v", i, q.status, q.err)
		}
	}
	wrong, failed := checkAnswers(ctx, d, reqs)
	for i := range reqs {
		if wrong[i] || failed[i] {
			t.Fatalf("untampered request %d: wrong=%v failed=%v", i, wrong[i], failed[i])
		}
	}
	for i := range reqs {
		q := reqs[i]
		var r ringmesh.Result
		if err := json.Unmarshal(q.result, &r); err != nil {
			t.Fatal(err)
		}
		r.LatencyCycles += 0.5
		q.result = mustJSON(r)
		if wrong, _ := checkAnswers(ctx, d, []request{q}); !wrong[0] {
			t.Errorf("tampered answer to request %d (kind %d) passed", i, q.kind)
		}
	}
	if reqs[0].status != http.StatusOK || !reqs[0].cached {
		t.Errorf("hit: status %d cached %v, want a cache hit", reqs[0].status, reqs[0].cached)
	}
}
