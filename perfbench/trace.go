package main

import (
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"ringmesh/internal/obs"
)

// Lanes (Chrome trace "threads") group the spans by layer.
const (
	laneBench  = iota // the run, set-up, probes
	laneExp           // internal/exp: Experiment.Run
	laneFacade        // ringmesh: NewSystem, StepCycles, Run, Estimate, CacheKey
	laneServe         // internal/serve: New, Handler, Drain
)

// maxSpans bounds the trace; serve-mix records a few spans per request.
const maxSpans = 1 << 18

// tracer records the benchmark's own spans around its calls into each
// layer, with the repository's span tracer. A nil *tracer (an
// untraced run) records nothing and costs one pointer test per call.
type tracer struct {
	tr *obs.Trace
	// overhead is the time spent opening and closing spans, in ns.
	overhead atomic.Int64
	started  time.Time
}

func newTracer() *tracer { return &tracer{tr: obs.NewTrace(maxSpans), started: time.Now()} }

func (t *tracer) start(name string, lane int, attrs ...obs.Attr) *obs.Span {
	if t == nil {
		return nil
	}
	c := time.Now()
	sp := t.tr.Start(name, attrs...).SetTID(lane)
	t.overhead.Add(int64(time.Since(c)))
	return sp
}

func (t *tracer) end(sp *obs.Span) {
	if t == nil {
		return
	}
	c := time.Now()
	sp.End()
	t.overhead.Add(int64(time.Since(c)))
}

// overheadFrac is the share of the traced run's wall time spent
// recording spans: the tracing overhead the traced run adds over an
// untraced one.
func (t *tracer) overheadFrac() float64 {
	return float64(t.overhead.Load()) / float64(time.Since(t.started))
}

// durations returns the durations, in ms, of the spans named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.tr.Spans() {
		if s.Name == name {
			out = append(out, float64(s.Dur)/1e6)
		}
	}
	return out
}

// write exports every span, once, as Chrome trace-event JSON.
func (t *tracer) write(path string) error {
	if n := t.tr.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: trace bound dropped %d spans\n", n)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.tr.WriteChrome(f, os.Getpid()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// obsAttrs turns the run record into span attributes, so the trace
// file carries it too.
func obsAttrs(rec map[string]any) []obs.Attr {
	keys := make([]string, 0, len(rec))
	for k := range rec {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]obs.Attr, 0, len(keys))
	for _, k := range keys {
		out = append(out, obs.Attr{Key: k, Value: fmt.Sprint(rec[k])})
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
