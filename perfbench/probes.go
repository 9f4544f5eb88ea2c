package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"ringmesh"
	"ringmesh/internal/obs"
)

// modelProbe is one model variant measured in steady state, with
// tracing and metrics off.
type modelProbe struct {
	name string
	cfg  ringmesh.Config
}

var modelProbes = []modelProbe{
	{"ring.wormhole", ringmesh.Config{Network: "ring", Topology: "3:3:8", LineBytes: 32}},
	{"ring.doublespeed", ringmesh.Config{Network: "ring", Topology: "3:3:8", LineBytes: 32, DoubleSpeedGlobal: true}},
	{"ring.slotted", ringmesh.Config{Network: "ring", Topology: "3:3:8", LineBytes: 32, SlottedSwitching: true}},
	{"mesh.buf4", ringmesh.Config{Network: "mesh", Nodes: 64, LineBytes: 32, BufferFlits: 4}},
	{"mesh.buf1", ringmesh.Config{Network: "mesh", Nodes: 64, LineBytes: 32, BufferFlits: 1}},
}

// Probe sizes in PM cycles: a warm-up, then timed chunks whose median
// gives the per-cycle time.
type probeSize struct {
	warm, chunk int64
	chunks      int
	builds      int
}

func probeSizes(tiny bool) probeSize {
	if tiny {
		return probeSize{warm: 100, chunk: 100, chunks: 2, builds: 2}
	}
	return probeSize{warm: 2000, chunk: 1000, chunks: 5, builds: 5}
}

// runProbes measures the per-layer probes of a traced run: every model
// variant's steady-state step cost, the sharded engine's phases, the
// analytic estimator and the cache key. They run after the workload,
// alone in the process.
func runProbes(cfg config, tr *tracer, rep *report) error {
	size := probeSizes(cfg.tiny)
	for _, p := range modelProbes {
		if err := probeModel(cfg, tr, p, size, rep); err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	if err := probeParallel(cfg, tr, size, rep); err != nil {
		return fmt.Errorf("parallel probe: %w", err)
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 0x9e0b))
	var est, keys []ringmesh.Config
	for i := 0; i < 64; i++ {
		est = append(est, analyticConfig(rng))
		keys = append(keys, simConfig(rng))
	}
	if err := probeEstimate(tr, est, rep); err != nil {
		return fmt.Errorf("estimate probe: %w", err)
	}
	return probeCacheKey(tr, keys, rep)
}

// probeModel times NewSystem, then steps the system to steady state
// and times StepCycles chunks, with allocation deltas from MemStats and
// the flits moved counted through OnCycle.
func probeModel(cfg config, tr *tracer, p modelProbe, size probeSize, rep *report) error {
	c := p.cfg
	c.Workload = ringmesh.PaperWorkload()
	c.Seed = cfg.seed
	attrs := []obs.Attr{{Key: "probe", Value: p.name}}

	var builds []float64
	var sys *ringmesh.System
	for i := 0; i < size.builds; i++ {
		t0 := time.Now()
		sp := tr.start("ringmesh.NewSystem", laneFacade, attrs...)
		s, err := ringmesh.NewSystem(c)
		tr.end(sp)
		if err != nil {
			return err
		}
		builds = append(builds, float64(time.Since(t0))/1e3)
		if sys != nil {
			sys.Close()
		}
		sys = s
	}
	defer sys.Close()
	var flits uint64
	sys.OnCycle(func(_ int64, moved uint64) { flits += moved })

	sp := tr.start("ringmesh.StepCycles warm-up", laneFacade, attrs...)
	err := sys.StepCycles(size.warm)
	tr.end(sp)
	if err != nil {
		return err
	}
	// One span covers the timed chunks, opened and closed outside the
	// MemStats reads so its own allocations are not counted.
	runtime.GC()
	sp = tr.start("ringmesh.StepCycles", laneFacade, attrs...)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f0 := flits
	chunks := make([]float64, 0, size.chunks)
	total := time.Duration(0)
	for i := 0; i < size.chunks && err == nil; i++ {
		t0 := time.Now()
		err = sys.StepCycles(size.chunk)
		d := time.Since(t0)
		total += d
		chunks = append(chunks, float64(d))
	}
	runtime.ReadMemStats(&m1)
	tr.end(sp)
	if err != nil {
		return err
	}
	cycles := float64(size.chunk) * float64(size.chunks)
	moved := float64(flits - f0)
	if moved == 0 {
		return fmt.Errorf("no flits moved in %g cycles", cycles)
	}
	rep.values[p.name+".setup_us"] = median(builds)
	rep.values[p.name+".ns_per_pm_cycle"] = median(chunks) / float64(size.chunk)
	rep.values[p.name+".allocs_per_pm_cycle"] = float64(m1.Mallocs-m0.Mallocs) / cycles
	rep.values[p.name+".bytes_per_pm_cycle"] = float64(m1.TotalAlloc-m0.TotalAlloc) / cycles
	rep.values[p.name+".ns_per_flit"] = float64(total) / moved
	rep.values[p.name+".flits_per_pm_cycle"] = moved / cycles
	return nil
}

// probeParallel steps an 8x8 mesh on the serial engine and on two
// workers with phase timing on, over the same cycles.
func probeParallel(cfg config, tr *tracer, size probeSize, rep *report) error {
	c := ringmesh.Config{Network: "mesh", Nodes: 64, LineBytes: 32, BufferFlits: 4,
		Workload: ringmesh.PaperWorkload(), Seed: cfg.seed}
	cycles := size.chunk * int64(size.chunks)
	sys, err := ringmesh.NewSystem(c)
	if err != nil {
		return err
	}
	defer sys.Close()
	if err := sys.StepCycles(size.warm); err != nil {
		return err
	}
	t0 := time.Now()
	sp := tr.start("ringmesh.StepCycles serial 8x8", laneFacade)
	err = sys.StepCycles(cycles)
	tr.end(sp)
	serial := time.Since(t0)
	if err != nil {
		return err
	}

	c.Workers, c.PhaseStats = 2, true
	// The phase accumulators cover warm-up too, so the probe reads
	// them before and after the timed cycles.
	sysP, err := ringmesh.NewSystem(c)
	if err != nil {
		return err
	}
	defer sysP.Close()
	if !sysP.Parallel() {
		return fmt.Errorf("8x8 mesh did not shard")
	}
	if err := sysP.StepCycles(size.warm); err != nil {
		return err
	}
	ps := sysP.PhaseStats()
	comp0, commit0, bar0 := ps.TotalComputeNS(), ps.TotalCommitNS(), barrierNS(ps)
	t0 = time.Now()
	sp = tr.start("ringmesh.StepCycles 2 workers 8x8", laneFacade)
	err = sysP.StepCycles(cycles)
	tr.end(sp)
	par := time.Since(t0)
	if err != nil {
		return err
	}
	sp = tr.start("ringmesh.PhaseStats", laneFacade)
	rep.values["sim.parallel.compute_ms"] = float64(ps.TotalComputeNS()-comp0) / 1e6
	rep.values["sim.parallel.commit_ms"] = float64(ps.TotalCommitNS()-commit0) / 1e6
	rep.values["sim.parallel.barrier_ms"] = (barrierNS(ps) - bar0) / 1e6
	tr.end(sp)
	rep.values["sim.parallel.speedup"] = float64(serial) / float64(par)
	return nil
}

// barrierNS sums every worker's barrier waits.
func barrierNS(ps *obs.PhaseStats) float64 {
	t := 0.0
	for i := range ps.Barrier {
		t += ps.Barrier[i].Sum()
	}
	return t
}

// probeEstimate times ringmesh.Estimate over the serve-mix analytic
// configurations, with allocations per call.
func probeEstimate(tr *tracer, cfgs []ringmesh.Config, rep *report) error {
	times := make([]float64, 0, len(cfgs))
	runtime.GC()
	sp := tr.start("ringmesh.Estimate probe", laneFacade)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, c := range cfgs {
		t0 := time.Now()
		_, err := ringmesh.Estimate(c, shortRun)
		times = append(times, float64(time.Since(t0))/1e3)
		if err != nil {
			tr.end(sp)
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	tr.end(sp)
	rep.values["fidelity.estimate_us"] = median(times)
	rep.values["fidelity.estimate_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(cfgs))
	return nil
}

// probeCacheKey times ringmesh.CacheKey over simulated configurations
// like the serve-mix hit keys.
func probeCacheKey(tr *tracer, cfgs []ringmesh.Config, rep *report) error {
	times := make([]float64, 0, len(cfgs))
	sp := tr.start("ringmesh.CacheKey probe", laneFacade)
	defer tr.end(sp)
	for _, c := range cfgs {
		t0 := time.Now()
		_, err := ringmesh.CacheKey(c, shortRun)
		times = append(times, float64(time.Since(t0))/1e3)
		if err != nil {
			return err
		}
	}
	rep.values["ringmesh.cachekey_us"] = median(times)
	return nil
}
