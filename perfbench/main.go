// Command perfbench is the repository benchmark. It runs one named
// workload, checks every output it produces, and prints one JSON
// result line as the last line of standard output:
//
//	ring-figures  reproduces paper figures 6 and 19 (ring models)
//	mesh-figures  reproduces paper figure 13 (mesh model, sharded engine)
//	serve-mix     drives an in-process ringmeshd, open loop then closed loop
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload ring-figures --seed 42 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off. With --trace 1 the same workload runs with spans
// recorded around every call into a layer (internal/obs), followed by
// the per-layer probes, and the result carries the request latencies
// and the per-layer metrics; the spans are written once, at exit, as
// one Chrome trace file under .bench_build/perfbench/. See README.md
// for what each metric means.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart is when this package's variables were initialised,
// after the Go runtime started and the imported packages were
// initialised. That start-up runs without waiting, so startupCPU, the
// CPU time the process had used by then, stands for the wall time from
// exec to processStart; setup_s adds the two.
var processStart, startupCPU = time.Now(), cpuTime()

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// root is the checkout root: results/ is read from it, and
	// generated files go under root/.bench_build/perfbench.
	root string
	// tiny selects the smoke-test scale: short simulation schedules,
	// a low request rate and small probes. Figures made at this scale
	// are checked against their own facade replays only, since
	// results/ holds the paper schedule's output.
	tiny bool
}

// workDir is where a run keeps what it generates.
func (c config) workDir() string { return filepath.Join(c.root, ".bench_build", "perfbench") }

// metric is one named measurement as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits and layerUnits name every metric the benchmark prints,
// with its unit; BENCHMARK.json declares the same sets (the smoke test
// checks that they agree). The end-to-end set holds what stays steady
// on a shared 2-vCPU host; the request latencies, which CPU stolen by
// the hypervisor moves by a factor of two or more from run to run, are
// reported by the traced run instead (see README.md, "Noise").
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"peak_rss_mb":   "MB",
	"wall_s":        "s",
	"goodput_rps":   "1/s",
	"cpu_ms_per_op": "ms",
}

var layerUnits = func() map[string]string {
	u := map[string]string{
		"req_p50_ms":                "ms",
		"req_p99_ms":                "ms",
		"hit_p50_ms":                "ms",
		"analytic_p50_ms":           "ms",
		"miss_p50_ms":               "ms",
		"exp.fig6_s":                "s",
		"exp.fig19_s":               "s",
		"exp.fig13_s":               "s",
		"sim.parallel.compute_ms":   "ms",
		"sim.parallel.commit_ms":    "ms",
		"sim.parallel.barrier_ms":   "ms",
		"sim.parallel.speedup":      "x",
		"fidelity.estimate_us":      "us",
		"fidelity.estimate_allocs":  "count",
		"ringmesh.cachekey_us":      "us",
		"serve.hit_ratio":           "ratio",
		"serve.disk_writes":         "count",
		"serve.queue_wait_p50_ms":   "ms",
		"serve.run_p50_ms":          "ms",
		"serve.shed":                "count",
		"serve.journal_appends":     "count",
		"serve.http.runs_p50_ms":    "ms",
		"serve.http.jobs_p50_ms":    "ms",
		"bench.gen_late_p99_ms":     "ms",
		"bench.trace_overhead_frac": "ratio",
	}
	for _, p := range modelProbes {
		u[p.name+".ns_per_pm_cycle"] = "ns"
		u[p.name+".allocs_per_pm_cycle"] = "count"
		u[p.name+".bytes_per_pm_cycle"] = "B"
		u[p.name+".ns_per_flit"] = "ns"
		u[p.name+".flits_per_pm_cycle"] = "count"
		u[p.name+".setup_us"] = "us"
	}
	return u
}()

// report is what a workload measured.
type report struct {
	attempted, failed int64
	// mismatches counts answers that were wrong, as opposed to
	// operations that failed outright; correct means none were.
	mismatches int64
	// values holds every metric measured; the run prints those of the
	// set its mode selects.
	values map[string]float64
	// mix holds workload-specific facts for the run record (measured
	// traffic shares).
	mix map[string]float64
}

func newReport() *report {
	return &report{values: map[string]float64{}, mix: map[string]float64{}}
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "ring-figures, mesh-figures or serve-mix")
		seed     = flag.Uint64("seed", 42, "workload seed (42 is the seed results/ was made with)")
		seconds  = flag.Float64("seconds", 10, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, not %d\n", *trace)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive\n")
		os.Exit(2)
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, root: "."}
	res, rec, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"run_record": rec}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := out.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed")
	}
}

// run executes one workload and assembles the result line and the run
// record.
func run(cfg config) (result, map[string]any, error) {
	if err := os.MkdirAll(cfg.workDir(), 0o755); err != nil {
		return result{}, nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rec := runRecord(cfg)
	steal0, total0 := cpuTicks()
	runSpan := tr.start("perfbench "+cfg.workload, laneBench, obsAttrs(rec)...)
	var (
		rep *report
		err error
	)
	switch cfg.workload {
	case "ring-figures":
		rep, err = runFigures(cfg, tr, ringFigures())
	case "mesh-figures":
		rep, err = runFigures(cfg, tr, meshFigures())
	case "serve-mix":
		rep, err = runServeMix(cfg, tr)
	default:
		return result{}, nil, fmt.Errorf("unknown workload %q (want ring-figures, mesh-figures or serve-mix)", cfg.workload)
	}
	if err != nil {
		return result{}, nil, err
	}

	units := endToEndUnits
	if cfg.trace {
		if err := runProbes(cfg, tr, rep); err != nil {
			return result{}, nil, err
		}
		tr.end(runSpan)
		rep.values["bench.trace_overhead_frac"] = tr.overheadFrac()
		path := filepath.Join(cfg.workDir(), fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return result{}, nil, err
		}
		rec["trace_file"] = path
		units = layerUnits
	}
	res := result{
		Correct:   rep.mismatches == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	for name, unit := range units {
		// A layer the workload never calls did no work and took no
		// time in this run, so it reads 0.
		res.Metrics[name] = metric{Value: rep.values[name], Unit: unit}
	}
	for name := range rep.values {
		if endToEndUnits[name] == "" && layerUnits[name] == "" {
			return result{}, nil, fmt.Errorf("internal: metric %q has no declared unit", name)
		}
	}
	for k, v := range rep.mix {
		rec[k] = v
	}
	// The share of the machine's CPU time the hypervisor took during
	// the run: the main cause of slow runs on a shared virtual machine.
	if steal1, total1 := cpuTicks(); total1 > total0 {
		rec["steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	return res, rec, nil
}

// runRecord describes the run: its arguments and the machine.
func runRecord(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"git_sha":    gitSHA(),
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
	}
}

// gitSHA reads the revision the build stamped; a checkout without git
// metadata has none.
func gitSHA() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	sha, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			sha = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		sha += "+dirty"
	}
	return sha
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the machine's stolen and total CPU time, in clock
// ticks, from the aggregate line of /proc/stat (zeros if unreadable).
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// cpuTime is the CPU time the process has used, user and system. Time
// the hypervisor stole from the machine is not charged to it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
