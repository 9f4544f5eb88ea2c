package mesh

import (
	"testing"

	"ringmesh/internal/packet"
	"ringmesh/internal/rng"
	"ringmesh/internal/topo"
)

// The per-router tables New builds are exactly Spec.Route and
// Spec.Neighbor, so e-cube routing has one implementation.
func TestRoutingTablesMatchSpec(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8, 11} {
		spec := topo.MustMeshSpec(k)
		h := newHarness(t, Config{Spec: spec, LineBytes: 32, BufferFlits: 4})
		for _, r := range h.net.routers {
			if len(r.route) != spec.PMs() {
				t.Fatalf("%s router %d: route table has %d entries, want %d", spec, r.id, len(r.route), spec.PMs())
			}
			for dst := 0; dst < spec.PMs(); dst++ {
				if got, want := topo.Direction(r.route[dst]), spec.Route(r.id, dst); got != want {
					t.Fatalf("%s router %d: route[%d] = %s, want %s", spec, r.id, dst, got, want)
				}
			}
			if r.nbr[topo.Local] != -1 || r.down[topo.Local] != nil {
				t.Fatalf("%s router %d: Local has neighbour %d / downstream %p", spec, r.id, r.nbr[topo.Local], r.down[topo.Local])
			}
			for o := topo.Direction(0); o < topo.Local; o++ {
				want := spec.Neighbor(r.id, o)
				if r.nbr[o] != want {
					t.Fatalf("%s router %d: nbr[%s] = %d, want %d", spec, r.id, o, r.nbr[o], want)
				}
				var wantDown *packet.FIFO
				if want >= 0 {
					wantDown = h.net.routers[want].inputs[o.Opposite()]
				}
				if r.down[o] != wantDown {
					t.Fatalf("%s router %d: down[%s] is not router %d's %s input", spec, r.id, o, want, o.Opposite())
				}
			}
		}
	}
}

// referenceMove is the arbitration rule written directly against the
// FIFOs and Spec.Route, without the tables or the request vector: the
// locked worm continues, otherwise the first input in round-robin
// order whose head flit is a packet head routed to o wins.
func referenceMove(h *harness, r *router, o topo.Direction) (topo.Direction, packet.Flit, bool) {
	if r.outLock[o] != nil {
		i := r.outLockIn[o]
		f, has := r.inputs[i].Peek()
		return i, f, has
	}
	for k := 0; k < int(topo.NumPorts); k++ {
		i := topo.Direction((r.rr[o] + k) % int(topo.NumPorts))
		f, has := r.inputs[i].Peek()
		if has && f.Head() && h.spec.Route(r.id, f.Pkt.Dst) == o {
			return i, f, true
		}
	}
	return -1, packet.Flit{}, false
}

// On a loaded mesh every move Compute stages is the one pickMove
// returns when re-asked the way the stall forensics ask it, and both
// agree with the table-free reference rule; an output with a candidate
// but no staged move is blocked only by a full downstream input.
func TestStagedMovesMatchPickMove(t *testing.T) {
	spec := topo.MustMeshSpec(4)
	for _, buf := range []int{1, 4} {
		h := newHarness(t, Config{Spec: spec, LineBytes: 32, BufferFlits: buf})
		r := rng.New(7)
		for i := 0; i < 400; i++ {
			src, dst := r.Intn(spec.PMs()), r.Intn(spec.PMs())
			typ := packet.WriteRequest
			if i%2 == 1 {
				typ = packet.ReadResponse
			}
			p := &packet.Packet{ID: uint64(i + 1), Type: typ, Src: src, Dst: dst,
				Flits: packet.MeshSizing.PacketFlits(typ, 32)}
			if typ.IsResponse() {
				h.pms[src].pendResp = append(h.pms[src].pendResp, p)
			} else {
				h.pms[src].pendReq = append(h.pms[src].pendReq, p)
			}
		}
		moves, blocked := 0, 0
		for now := int64(0); now < 3000; now++ {
			h.net.Compute(now)
			for _, rt := range h.net.routers {
				staged := rt.staged
				rt.scanInputs()
				for o := topo.Direction(0); o < topo.NumPorts; o++ {
					in, f, ok := h.net.pickMove(rt, o)
					rin, rf, rok := referenceMove(h, rt, o)
					if ok != rok || (ok && (in != rin || f != rf)) {
						t.Fatalf("buf %d tick %d router %d %s: pickMove (%s, %v, %v), reference (%s, %v, %v)",
							buf, now, rt.id, o, in, f, ok, rin, rf, rok)
					}
					mv := staged[o]
					switch {
					case mv.ok:
						if !ok || mv.in != in || mv.f != f {
							t.Fatalf("buf %d tick %d router %d %s: staged (%s, %v), pickMove (%s, %v, %v)",
								buf, now, rt.id, o, mv.in, mv.f, in, f, ok)
						}
						moves++
					case ok:
						if o == topo.Local || rt.down[o].Space() >= 1 {
							t.Fatalf("buf %d tick %d router %d %s: pickMove offers %v but nothing staged",
								buf, now, rt.id, o, f)
						}
						blocked++
					}
				}
			}
			h.net.Commit(now)
		}
		if moves == 0 || blocked == 0 {
			t.Fatalf("buf %d: load too light to compare (%d moves, %d blocked)", buf, moves, blocked)
		}
		delivered := 0
		for _, pm := range h.pms {
			delivered += len(pm.delivered)
		}
		if delivered != 400 {
			t.Fatalf("buf %d: delivered %d of 400", buf, delivered)
		}
	}
}
