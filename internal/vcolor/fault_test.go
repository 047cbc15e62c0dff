package vcolor_test

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
	"repro/internal/vcolor"
	"repro/internal/verify"
)

// TestLinialFaultTolerance crashes random subsets of nodes at random rounds
// and checks that the survivors still terminate on schedule with a coloring
// that is proper on the subgraph they induce — the property the Parallel
// Template requires of its reference's first part (Section 7.4).
func TestLinialFaultTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		g := graph.GNP(36, 0.15, rng)
		total := vcolor.Rounds(g.D(), g.MaxDegree())
		crashes := map[int]int{}
		for i := 0; i < g.N(); i++ {
			if rng.Float64() < 0.25 {
				crashes[i] = 1 + rng.Intn(total+1)
			}
		}
		res, err := runtime.Run(runtime.Config{
			Graph:     g,
			Factory:   vcolor.Solo(vcolor.LinialStandalone()),
			Adversary: fault.Schedule(crashes),
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Build the survivor subgraph and its coloring.
		var survivors []int
		for i := 0; i < g.N(); i++ {
			if res.Outputs[i] != nil {
				survivors = append(survivors, i)
			}
		}
		sub, orig := g.InducedSubgraph(survivors)
		colors := make([]int, sub.N())
		for i, oldIdx := range orig {
			colors[i] = res.Outputs[oldIdx].(int)
		}
		// Survivors colored within the ORIGINAL palette Δ(G)+1 and properly
		// on the induced subgraph.
		if err := verify.VColorPartial(sub, colors, g.MaxDegree()+1); err != nil {
			t.Fatalf("trial %d (%d crashed): %v", trial, len(crashes), err)
		}
		for i, c := range colors {
			if c < 1 {
				t.Fatalf("trial %d: survivor %d uncolored", trial, sub.ID(i))
			}
		}
	}
}

// TestLinialTerminationRoundIsExact verifies the schedule: with no crashes,
// every node terminates in exactly Rounds(d, Δ) rounds — which is what lets
// the Parallel Template compute the budget r1 from static information.
func TestLinialTerminationRoundIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, g := range []*graph.Graph{
		graph.Line(1),
		graph.Line(33),
		graph.Clique(9),
		graph.GNP(64, 0.1, rng),
		graph.ShuffleIDs(graph.Ring(20), 500, rng),
	} {
		res, err := runtime.Run(runtime.Config{
			Graph:   g,
			Factory: vcolor.Solo(vcolor.LinialStandalone()),
		})
		if err != nil {
			t.Fatal(err)
		}
		want := vcolor.Rounds(g.D(), g.MaxDegree())
		if res.Rounds != want {
			t.Errorf("n=%d d=%d: rounds=%d, want %d", g.N(), g.D(), res.Rounds, want)
		}
		for i, r := range res.TerminatedAt {
			if r != want {
				t.Errorf("node %d terminated at %d, want %d", g.ID(i), r, want)
			}
		}
	}
}

// TestListReferenceRespectsForbiddenColors runs Init + LinialList on
// adversarial predictions and checks (via the full verifier, already done in
// other tests) plus the specific list property: no node's final color equals
// a color output by a neighbor that terminated during initialization.
func TestListReferenceRespectsForbiddenColors(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 15; trial++ {
		g := graph.GNP(40, 0.12, rng)
		// Half-correct predictions: many nodes keep their color in the init,
		// constraining the remainder's palettes.
		preds := make([]int, g.N())
		perfect := perfectColors(g)
		for i := range preds {
			preds[i] = perfect[i]
			if rng.Intn(2) == 0 {
				preds[i] = 1 + rng.Intn(g.MaxDegree()+1)
			}
		}
		var anyPreds []any
		anyPreds = make([]any, len(preds))
		for i, p := range preds {
			anyPreds[i] = p
		}
		res, err := runtime.Run(runtime.Config{
			Graph: g, Factory: vcolor.SimpleLinial(), Predictions: anyPreds,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		out := make([]int, g.N())
		for i, o := range res.Outputs {
			out[i] = o.(int)
		}
		if err := verify.VColor(g, out); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func perfectColors(g *graph.Graph) []int {
	colors := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		used := map[int]bool{}
		for _, u := range g.Neighbors(v) {
			if int(u) < v {
				used[colors[u]] = true
			}
		}
		for c := 1; ; c++ {
			if !used[c] {
				colors[v] = c
				break
			}
		}
	}
	return colors
}
