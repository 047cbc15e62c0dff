package matching_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
)

// ecProbe runs the fault-tolerant edge coloring standalone on matching's
// shared memory, emitting each node's final edge-color map (keyed by
// neighbor ID) as its output.
func ecProbe() runtime.Factory {
	part1 := core.Stage{Name: "ec", New: matching.EdgeColorPart1()}
	emit := core.Stage{
		Name: "emit",
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			return emitColors{mem: mem.(*matching.Memory)}
		},
	}
	return core.Sequence(matching.NewMemory(), part1, emit)
}

type emitColors struct{ mem *matching.Memory }

func (m emitColors) Send(c *core.StageCtx) []runtime.Out { return nil }
func (m emitColors) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	out := make(map[int]int, len(m.mem.R1Colors))
	for nb, col := range m.mem.R1Colors {
		out[nb] = col
	}
	c.Output(out)
}

// checkSurvivorEdgeColors verifies the coloring restricted to edges between
// surviving nodes: both endpoints hold the same color, the color is within
// the (2Δ−1) palette, and no two surviving edges at a node share a color.
// Edges to crashed neighbors are excluded — a crashed endpoint stops
// syncing, so the survivor's copy of that edge's color is stale by design.
func checkSurvivorEdgeColors(t *testing.T, trial int, g *graph.Graph, outputs []any, palette int) {
	t.Helper()
	colors := make([]map[int]int, g.N())
	for i, o := range outputs {
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

// TestEdgeColoringFaultTolerance crashes random subsets of nodes at random
// rounds during the reference's fault-tolerant edge coloring and checks that
// the surviving edges still carry an agreed, proper (2Δ−1)-coloring — the
// extendability property the Parallel Template relies on when the coloring
// serves as its part 1 (a crashed endpoint's edges drop out; the rest form a
// partial solution some full coloring contains).
func TestEdgeColoringFaultTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 25; trial++ {
		g := graph.GNP(32, 0.15, rng)
		total := matching.EdgeColorRounds(g.D(), g.MaxDegree())
		crashes := map[int]int{}
		for i := 0; i < g.N(); i++ {
			if rng.Float64() < 0.25 {
				crashes[i] = 1 + rng.Intn(total+1)
			}
		}
		res, err := runtime.Run(runtime.Config{
			Graph:     g,
			Factory:   ecProbe(),
			Adversary: fault.Schedule(crashes),
			MaxRounds: total + 8, // the Linial countdown exceeds the engine default
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkSurvivorEdgeColors(t, trial, g, res.Outputs, 2*g.MaxDegree()-1)
	}
}
