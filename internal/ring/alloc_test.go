package ring

import (
	"math"
	"runtime"
	"testing"

	"ringmesh/internal/node"
	"ringmesh/internal/packet"
	"ringmesh/internal/sim"
	"ringmesh/internal/topo"
	"ringmesh/internal/workload"
)

// countingPM counts the requests delivered to a PM's memory, so that
// responses made = requests delivered - requests still queued in
// memory is exact at any tick.
type countingPM struct {
	*node.PM
	reqsIn *int64
}

func (c countingPM) Deliver(p *packet.Packet, now int64) {
	if p.Type.IsRequest() {
		*c.reqsIn++
	}
	c.PM.Deliver(p, now)
}

// With tracing and metrics off, a steady-state ring hierarchy
// allocates nothing but the packets its PMs create (DESIGN §4.7,
// "zero-cost when disabled"): one allocation per request issued or
// response made, under every switching mode.
func TestSteadyStateAllocatesOnlyPackets(t *testing.T) {
	const warm, window = 2000, 5000
	spec := topo.MustRingSpec(3, 3, 8)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"wormhole", Config{Spec: spec, LineBytes: 32}},
		{"double-speed", Config{Spec: spec, LineBytes: 32, DoubleSpeedGlobal: true}},
		{"slotted", Config{Spec: spec, LineBytes: 32, Switching: Slotted}},
	} {
		tpc := tc.cfg.TicksPerCycle()
		engine := &sim.Engine{}
		col := node.NewCollector(tpc)
		pattern, err := workload.NewRingLocality(spec.PMs(), 1)
		if err != nil {
			t.Fatal(err)
		}
		var reqsIn int64
		pms := make([]*node.PM, spec.PMs())
		ports := make([]PMPort, spec.PMs())
		for id := range pms {
			pm, err := node.NewPM(id, node.Config{
				Workload:  workload.MMRP{R: 1, C: 0.04, T: 4, ReadProb: 0.7},
				Pattern:   pattern,
				Sizing:    packet.RingSizing,
				LineBytes: 32,
				Seed:      1,
			}, col)
			if err != nil {
				t.Fatal(err)
			}
			engine.Register(pm, tpc)
			pms[id], ports[id] = pm, countingPM{PM: pm, reqsIn: &reqsIn}
		}
		var net sim.Component
		if tc.cfg.Switching == Slotted {
			net, err = NewSlotted(tc.cfg, ports, engine)
		} else {
			net, err = New(tc.cfg, ports, engine)
		}
		if err != nil {
			t.Fatal(err)
		}
		engine.Register(net, 1)
		packets := func() int64 {
			queued := 0
			for _, pm := range pms {
				queued += pm.QueuedInMemory()
			}
			return col.Issued + reqsIn - int64(queued)
		}
		cycles := func(n int) {
			for i := int64(0); i < int64(n)*tpc; i++ {
				engine.Step()
			}
		}

		cycles(warm)
		// MemStats counts every goroutine's allocations, so a stray
		// runtime or test-harness allocation can land in a window; the
		// contract must hold in the quietest of three.
		excess := int64(math.MaxInt64)
		for w := 0; w < 3; w++ {
			runtime.GC()
			var m0, m1 runtime.MemStats
			p0 := packets()
			runtime.ReadMemStats(&m0)
			cycles(window)
			runtime.ReadMemStats(&m1)
			made := packets() - p0
			allocs := int64(m1.Mallocs - m0.Mallocs)
			t.Logf("%s window %d: %d allocations, %d packets made in %d cycles (%.2f allocs/cycle)",
				tc.name, w, allocs, made, window, float64(allocs)/window)
			if made == 0 {
				t.Fatalf("%s: no packets made in the window", tc.name)
			}
			excess = min(excess, allocs-made)
		}
		if excess > 0 {
			t.Fatalf("%s: every window allocated at least %d times beyond its packets: the hot loop allocates beyond packet creation",
				tc.name, excess)
		}
	}
}
