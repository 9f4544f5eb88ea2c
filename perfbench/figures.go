package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ringmesh/internal/core"
	"ringmesh/internal/exp"
)

// figureSet is one figure workload: the experiments it reproduces
// and how the experiment driver is parallelised.
type figureSet struct {
	ids []string
	// sweepWorkers runs figure points concurrently; engineWorkers
	// shards each point's tick loop.
	sweepWorkers, engineWorkers int
}

// ringFigures exercises the wormhole ring model, the multi-rate engine
// path (double-speed global rings) and the sweep pool; it does no mesh,
// analytic-tier or daemon work.
func ringFigures() figureSet {
	return figureSet{ids: []string{"fig6", "fig19"}, sweepWorkers: runtime.NumCPU(), engineWorkers: 1}
}

// meshFigures exercises the mesh model, the slowest per PM-cycle, and
// is the only workload that runs the sharded tick engine.
func meshFigures() figureSet {
	return figureSet{ids: []string{"fig13"}, sweepWorkers: 1, engineWorkers: min(2, runtime.NumCPU())}
}

// tinySchedule is the smoke-test simulation schedule.
var tinySchedule = core.RunConfig{WarmupCycles: 100, BatchCycles: 150, Batches: 2}

// referenceSeed is the seed results/ was made with (paper schedule).
const referenceSeed = 42

// csvLines splits a CSV document into lines without the trailing
// newline.
func csvLines(b []byte) []string {
	return strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
}

// checkFigure compares a produced figure CSV with the reference. With
// exact set, every row must equal the reference byte for byte (the
// reference seed and schedule); otherwise each row must name the same
// series and x as the reference and carry finite, non-negative values.
// It returns the number of rows checked and how many were wrong.
func checkFigure(got, ref []byte, exact bool) (rows, bad int) {
	g, r := csvLines(got), csvLines(ref)
	rows = max(len(g), len(r)) - 1
	if len(g) == 0 || len(r) == 0 || g[0] != r[0] {
		return rows, rows
	}
	for i := 1; i < len(g); i++ {
		if i >= len(r) || !rowMatches(g[i], r[i], exact) {
			bad++
		}
	}
	if len(r) > len(g) {
		bad += len(r) - len(g)
	}
	return rows, bad
}

func rowMatches(got, ref string, exact bool) bool {
	if exact {
		return got == ref
	}
	gf, rf := strings.Split(got, ","), strings.Split(ref, ",")
	if len(gf) != 6 || len(rf) != 6 || gf[0] != rf[0] || gf[1] != rf[1] {
		return false
	}
	for _, v := range gf[2:4] {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
			return false
		}
	}
	return true
}

// setupReps is how many times a run sets up; setup_s reports the
// median.
const setupReps = 5

// readReferences reads the workload's reference CSVs from results/.
func readReferences(cfg config, fs figureSet) (map[string][]byte, error) {
	refs := map[string][]byte{}
	for _, id := range fs.ids {
		b, err := os.ReadFile(filepath.Join(cfg.root, "results", id+".csv"))
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		refs[id] = b
	}
	return refs, nil
}

// runFigures reproduces the workload's figures once and checks every
// row. The figures are the unit of work, so the run ends when they are
// made and checked, whatever the measurement window.
func runFigures(cfg config, tr *tracer, fs figureSet) (*report, error) {
	rep := newReport()

	var refs map[string][]byte
	var setups []float64
	setupStart := time.Now()
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		sp := tr.start("setup", laneBench)
		r, err := readReferences(cfg, fs)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		refs = r
		setups = append(setups, time.Since(t0).Seconds())
	}
	spec := exp.DefaultSpec()
	if cfg.tiny {
		spec.Run = tinySchedule
	}
	spec.Seed = cfg.seed
	spec.Workers = fs.sweepWorkers
	spec.EngineWorkers = fs.engineWorkers
	exact := cfg.seed == referenceSeed && !cfg.tiny
	rep.values["setup_s"] = startupCPU.Seconds() + setupStart.Sub(processStart).Seconds() + median(setups)

	cpu0 := cpuTime()
	measureStart := time.Now()
	csvs := map[string][]byte{}
	for _, id := range fs.ids {
		e, ok := exp.ByID(id)
		if !ok {
			return nil, fmt.Errorf("experiment %s not registered", id)
		}
		sp := tr.start("exp.Run "+id, laneExp)
		out, err := e.Run(spec)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		var b bytes.Buffer
		if err := exp.WriteCSV(&b, out); err != nil {
			return nil, err
		}
		csvs[id] = b.Bytes()
	}
	wall, cpu := time.Since(measureStart).Seconds(), cpuTime()-cpu0
	rep.values["peak_rss_mb"] = peakRSSMB()
	goodRows := 0
	for _, id := range fs.ids {
		rows, bad := checkFigure(csvs[id], refs[id], exact)
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d rows differ from results/%s.csv\n", id, bad, rows, id)
		}
		rep.attempted += int64(rows)
		rep.failed += int64(bad)
		rep.mismatches += int64(bad)
		goodRows += rows - bad
	}
	rep.values["wall_s"] = wall
	// A figure's points are delivered together, so no latency limit
	// applies: goodput is correct figure points per second of wall
	// time, the row count over wall_s.
	rep.values["goodput_rps"] = float64(goodRows) / wall
	rep.values["cpu_ms_per_op"] = ms(cpu) / float64(rep.attempted)
	for _, id := range fs.ids {
		rep.values["exp."+id+"_s"] = median(tr.durations("exp.Run "+id)) / 1e3
	}
	return rep, nil
}
