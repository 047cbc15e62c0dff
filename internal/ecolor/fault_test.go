package ecolor_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ecolor"
	"repro/internal/graph"
	"repro/internal/linegraph"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
)

// tentativeProbe runs the fault-tolerant line-graph coloring standalone on
// edge coloring's shared memory, emitting each node's tentative edge-color
// map (keyed by neighbor ID) as its output.
func tentativeProbe() runtime.Factory {
	part1 := core.Stage{Name: "lg", New: linegraph.Part1()}
	emit := core.Stage{
		Name: "emit",
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			return emitTentative{mem: mem.(*ecolor.Memory)}
		},
	}
	return core.Sequence(ecolor.NewMemory, part1, emit)
}

type emitTentative struct{ mem *ecolor.Memory }

func (m emitTentative) Send(c *core.StageCtx) []runtime.Out { return nil }
func (m emitTentative) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	out := make(map[int]int, len(m.mem.R1Colors))
	for nb, col := range m.mem.R1Colors {
		out[nb] = col
	}
	c.Output(out)
}

// TestTentativeColoringFaultTolerance crashes random subsets of nodes at
// random rounds during the tentative line-graph coloring and checks that
// edges between survivors still carry an agreed, proper (2Δ−1)-coloring —
// the property Section 8's Parallel Template needs from its reference's
// part 1 under faults: the surviving edges form an extendable partial edge
// coloring (edges to crashed endpoints drop out of the computation, so
// their stale colors are excluded from the check).
func TestTentativeColoringFaultTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 25; trial++ {
		g := graph.GNP(32, 0.15, rng)
		total := linegraph.Rounds(g.D(), g.MaxDegree())
		crashes := map[int]int{}
		for i := 0; i < g.N(); i++ {
			if rng.Float64() < 0.25 {
				crashes[i] = 1 + rng.Intn(total+1)
			}
		}
		res, err := runtime.Run(runtime.Config{
			Graph:     g,
			Factory:   tentativeProbe(),
			Adversary: fault.Schedule(crashes),
			MaxRounds: total + 8, // the Linial countdown exceeds the engine default
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		palette := 2*g.MaxDegree() - 1
		colors := make([]map[int]int, g.N())
		for i, o := range res.Outputs {
			if o != nil {
				colors[i] = o.(map[int]int)
			}
		}
		for v := 0; v < g.N(); v++ {
			if colors[v] == nil {
				continue
			}
			seen := map[int]int{}
			for _, u32 := range g.Neighbors(v) {
				u := int(u32)
				if colors[u] == nil {
					continue
				}
				cv, okV := colors[v][g.ID(u)]
				cu, okU := colors[u][g.ID(v)]
				if !okV || !okU {
					t.Fatalf("trial %d: surviving edge (%d,%d) missing a color", trial, g.ID(v), g.ID(u))
				}
				if cv != cu {
					t.Fatalf("trial %d: edge (%d,%d) endpoint colors disagree: %d vs %d",
						trial, g.ID(v), g.ID(u), cv, cu)
				}
				if cv < 1 || cv > palette {
					t.Fatalf("trial %d: edge (%d,%d) color %d outside palette [1,%d]",
						trial, g.ID(v), g.ID(u), cv, palette)
				}
				if prev, dup := seen[cv]; dup {
					t.Fatalf("trial %d: node %d has surviving edges to %d and %d both colored %d",
						trial, g.ID(v), prev, g.ID(u), cv)
				}
				seen[cv] = g.ID(u)
			}
		}
	}
}
