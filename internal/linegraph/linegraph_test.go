package linegraph_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/linegraph"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
)

// probeMemory hosts the stage with every edge live and captures the result.
type probeMemory struct {
	info   runtime.NodeInfo
	colors map[int]int
}

func (m *probeMemory) LiveEdges(info runtime.NodeInfo) []int { return info.NeighborIDs }
func (m *probeMemory) StoreEdgeColors(colors map[int]int)    { m.colors = colors }

// probeFactory runs Part1 and then outputs the stored per-edge colors in
// identifier order.
func probeFactory() runtime.Factory {
	emit := core.Stage{
		Name: "emit",
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			return emitMachine{mem: mem.(*probeMemory)}
		},
	}
	part1 := core.Stage{Name: "lg", New: linegraph.Part1()}
	return core.Sequence(func(info runtime.NodeInfo, pred any) any {
		return &probeMemory{info: info}
	}, part1, emit)
}

type emitMachine struct{ mem *probeMemory }

func (m emitMachine) Send(c *core.StageCtx) []runtime.Out { return nil }
func (m emitMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	out := make([]int, len(c.Info().NeighborIDs))
	for j, nb := range c.Info().NeighborIDs {
		out[j] = m.mem.colors[nb]
	}
	c.Output(out)
}

func checkColoring(t *testing.T, g *graph.Graph, res *runtime.Result, crashed map[int]int) {
	t.Helper()
	// Build per-edge colors from the surviving endpoints and check
	// agreement + properness on the surviving subgraph.
	colors := map[[2]int]int{}
	for v := 0; v < g.N(); v++ {
		if res.Outputs[v] == nil {
			continue
		}
		vec := res.Outputs[v].([]int)
		for j, u := range g.NeighborsByID(v) {
			if _, dead := crashed[u]; dead {
				continue
			}
			a, b := v, u
			if a > b {
				a, b = b, a
			}
			key := [2]int{a, b}
			if prev, seen := colors[key]; seen {
				if prev != vec[j] {
					t.Fatalf("edge %v: endpoints disagree (%d vs %d)", key, prev, vec[j])
				}
			} else {
				colors[key] = vec[j]
			}
		}
	}
	palette := 2*g.MaxDegree() - 1
	used := map[int]map[int]bool{}
	for e, c := range colors {
		if c < 1 || c > palette {
			t.Fatalf("edge %v color %d outside palette %d", e, c, palette)
		}
		for _, v := range e {
			if used[v] == nil {
				used[v] = map[int]bool{}
			}
			if used[v][c] {
				t.Fatalf("node %d repeats color %d", g.ID(v), c)
			}
			used[v][c] = true
		}
	}
}

func TestLineGraphColoringProper(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for name, g := range map[string]*graph.Graph{
		"line12":   graph.Line(12),
		"ring9":    graph.Ring(9),
		"star8":    graph.Star(8),
		"clique6":  graph.Clique(6),
		"grid4x4":  graph.Grid2D(4, 4),
		"gnp24":    graph.GNP(24, 0.2, rng),
		"shuffled": graph.ShuffleIDs(graph.Grid2D(4, 4), 64, rng),
	} {
		t.Run(name, func(t *testing.T) {
			want := linegraph.Rounds(g.D(), g.MaxDegree()) + 1
			res, err := runtime.Run(runtime.Config{
				Graph: g, Factory: probeFactory(), MaxRounds: want + 32,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds != want {
				t.Errorf("rounds %d, want %d", res.Rounds, want)
			}
			checkColoring(t, g, res, nil)
		})
	}
}

func TestLineGraphFaultTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	for trial := 0; trial < 20; trial++ {
		g := graph.GNP(20, 0.25, rng)
		total := linegraph.Rounds(g.D(), g.MaxDegree())
		crashes := map[int]int{}
		for i := 0; i < g.N(); i++ {
			if rng.Float64() < 0.25 {
				crashes[i] = 1 + rng.Intn(total+1)
			}
		}
		res, err := runtime.Run(runtime.Config{
			Graph: g, Factory: probeFactory(), Adversary: fault.Schedule(crashes),
			MaxRounds: total + 32,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkColoring(t, g, res, crashes)
	}
}

func TestHostRequired(t *testing.T) {
	g := graph.Line(2)
	factory := core.Sequence(nil, core.Stage{Name: "lg", New: linegraph.Part1()})
	if _, err := runtime.Run(runtime.Config{Graph: g, Factory: factory}); err == nil {
		t.Fatal("want error when the shared memory does not implement Host")
	}
}
