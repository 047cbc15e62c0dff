package tree_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
	"repro/internal/tree"
	"repro/internal/verify"
)

// cvProbe wraps ColoringPart1 so the stored color becomes the node's output,
// letting us run the GPS 3-coloring standalone (with and without crashes).
func cvProbe(r *tree.Rooted) runtime.Factory {
	emit := core.Stage{
		Name: "emit",
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			return emitColor{mem: mem.(*tree.Memory)}
		},
	}
	part1 := core.Stage{Name: "cv", New: tree.ColoringPart1()}
	return core.Sequence(func(info runtime.NodeInfo, pred any) any {
		return tree.NewMemory(r)(info, pred)
	}, part1, emit)
}

type emitColor struct{ mem *tree.Memory }

func (m emitColor) Send(c *core.StageCtx) []runtime.Out { return nil }
func (m emitColor) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	c.Output(m.mem.Color)
}

// TestGPSThreeColoring: the standalone CV/GPS algorithm 3-colors rooted
// trees of every shape within its declared bound.
func TestGPSThreeColoring(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	trees := map[string]*tree.Rooted{
		"single":   tree.DirectedLine(1),
		"line50":   tree.DirectedLine(50),
		"rand80":   tree.RandomRooted(80, rng),
		"star":     tree.RootAt(graph.Star(15), 0),
		"starleaf": tree.RootAt(graph.Star(15), 5),
		"cat":      tree.RootAt(graph.Caterpillar(10, 3), 0),
		"forest":   tree.RootAt(graph.DisjointPaths(4, 6), 0),
	}
	for name, r := range trees {
		t.Run(name, func(t *testing.T) {
			res, err := runtime.Run(runtime.Config{Graph: r.G, Factory: cvProbe(r)})
			if err != nil {
				t.Fatal(err)
			}
			colors := make([]int, r.G.N())
			for i, o := range res.Outputs {
				colors[i] = o.(int)
			}
			if err := verify.VColorWithPalette(r.G, colors, 3); err != nil {
				t.Fatal(err)
			}
			if res.Rounds > tree.CVRounds(r.G.D())+1 {
				t.Errorf("rounds %d > CV bound %d", res.Rounds, tree.CVRounds(r.G.D()))
			}
		})
	}
}

// TestGPSFaultTolerance crashes nodes mid-coloring; the survivors' colors
// must remain a proper 3-coloring of the surviving forest (crashed parents
// turn their children into roots).
func TestGPSFaultTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 25; trial++ {
		r := tree.RandomRooted(40, rng)
		total := tree.CVRounds(r.G.D())
		crashes := map[int]int{}
		for i := 0; i < r.G.N(); i++ {
			if rng.Float64() < 0.2 {
				crashes[i] = 1 + rng.Intn(total+1)
			}
		}
		res, err := runtime.Run(runtime.Config{Graph: r.G, Factory: cvProbe(r), Adversary: fault.Schedule(crashes)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var survivors []int
		for i := 0; i < r.G.N(); i++ {
			if res.Outputs[i] != nil {
				survivors = append(survivors, i)
			}
		}
		sub, orig := r.G.InducedSubgraph(survivors)
		colors := make([]int, sub.N())
		for i, oldIdx := range orig {
			colors[i] = res.Outputs[oldIdx].(int)
		}
		if err := verify.VColorPartial(sub, colors, 3); err != nil {
			t.Fatalf("trial %d (%d crashed): %v", trial, len(crashes), err)
		}
	}
}

// TestRootsLeavesExtendableAtEvenRounds: Algorithm 6's partial solution is
// extendable at the end of every even round (needed for the Parallel
// Template with an even budget, Corollary 15).
func TestRootsLeavesExtendableAtEvenRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 10; trial++ {
		r := tree.RandomRooted(60, rng)
		res, err := runtime.Run(runtime.Config{
			Graph:   r.G,
			Factory: tree.Solo(r, tree.RootsAndLeaves(0)),
		})
		if err != nil {
			t.Fatal(err)
		}
		for round := 2; round <= res.Rounds; round += 2 {
			if err := verify.MISPartialExtendable(r.G, settledAt(res, round)); err != nil {
				t.Errorf("trial %d round %d: %v", trial, round, err)
			}
		}
	}
}

// settledAt is a completed run's partial output vector at the end of round
// r: node i holds its int output iff it terminated by then
// (0 < TerminatedAt[i] <= r), and is Undecided otherwise.
func settledAt(res *runtime.Result, r int) []int {
	partial := make([]int, len(res.Outputs))
	for i, at := range res.TerminatedAt {
		partial[i] = verify.Undecided
		if v, ok := res.Outputs[i].(int); ok && at > 0 && at <= r {
			partial[i] = v
		}
	}
	return partial
}

// TestTreeInitMonochromatic: after the rooted-tree initialization, the
// active components are monochromatic (Section 9.2).
func TestTreeInitMonochromatic(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	for trial := 0; trial < 20; trial++ {
		r := tree.RandomRooted(50, rng)
		preds := make([]int, r.G.N())
		for i := range preds {
			preds[i] = rng.Intn(2)
		}
		anyPreds := make([]any, len(preds))
		for i, p := range preds {
			anyPreds[i] = p
		}
		res, err := runtime.Run(runtime.Config{
			Graph:       r.G,
			Factory:     tree.SimpleRootsLeaves(r),
			Predictions: anyPreds,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds < 4 {
			continue // everything terminated before round 4
		}
		activeAt4 := make([]bool, r.G.N())
		for u, at := range res.TerminatedAt {
			activeAt4[u] = at == 0 || at > 4
		}
		for u := 0; u < r.G.N(); u++ {
			if !activeAt4[u] {
				continue
			}
			for _, v := range r.G.Neighbors(u) {
				if activeAt4[v] && preds[u] != preds[v] {
					t.Fatalf("trial %d: active nodes %d (pred %d) and %d (pred %d) adjacent",
						trial, r.G.ID(u), preds[u], r.G.ID(int(v)), preds[v])
				}
			}
		}
	}
}
