// Package verify checks complete and partial solutions to the four problems
// in the paper, including the extendability conditions of Section 3 that the
// templates rely on at every stage boundary.
package verify

import (
	"fmt"

	"repro/internal/graph"
)

// Undecided marks a node (or edge) with no output yet in a partial solution.
const Undecided = -1

// MIS checks that out (0/1 per node) is a maximal independent set of g.
func MIS(g *graph.Graph, out []int) error {
	if err := lengths(g, len(out)); err != nil {
		return err
	}
	for v := 0; v < g.N(); v++ {
		switch out[v] {
		case 1:
			for _, u := range g.Neighbors(v) {
				if out[u] == 1 {
					return fmt.Errorf("verify: adjacent nodes %d and %d both in set", g.ID(v), g.ID(int(u)))
				}
			}
		case 0:
			hasOne := false
			for _, u := range g.Neighbors(v) {
				if out[u] == 1 {
					hasOne = true
					break
				}
			}
			if !hasOne {
				return fmt.Errorf("verify: node %d out of set with no in-set neighbor", g.ID(v))
			}
		default:
			return fmt.Errorf("verify: node %d has output %d, want 0 or 1", g.ID(v), out[v])
		}
	}
	return nil
}

// MISPartialExtendable checks that a partial MIS assignment (Undecided where
// no output yet) is an extendable partial solution in the paper's sense: the
// decided nodes solve MIS on the subgraph they induce, and every neighbor of
// a decided 1 is decided 0 (Section 3).
func MISPartialExtendable(g *graph.Graph, out []int) error {
	if err := lengths(g, len(out)); err != nil {
		return err
	}
	for v := 0; v < g.N(); v++ {
		switch out[v] {
		case Undecided:
		case 1:
			for _, u := range g.Neighbors(v) {
				if out[u] != 0 {
					return fmt.Errorf("verify: in-set node %d has neighbor %d with output %d, want 0 (not extendable)",
						g.ID(v), g.ID(int(u)), out[u])
				}
			}
		case 0:
			hasOne := false
			for _, u := range g.Neighbors(v) {
				if out[u] == 1 {
					hasOne = true
					break
				}
			}
			if !hasOne {
				return fmt.Errorf("verify: decided-0 node %d has no in-set neighbor (not a partial solution)", g.ID(v))
			}
		default:
			return fmt.Errorf("verify: node %d has output %d", g.ID(v), out[v])
		}
	}
	return nil
}

// Matching checks that out (partner identifier per node, predict.Unmatched=0
// for none) is a maximal matching of g.
func Matching(g *graph.Graph, out []int) error {
	if err := lengths(g, len(out)); err != nil {
		return err
	}
	for v := 0; v < g.N(); v++ {
		p := out[v]
		if p == 0 {
			for _, u := range g.Neighbors(v) {
				if out[u] == 0 {
					return fmt.Errorf("verify: unmatched adjacent nodes %d and %d (not maximal)", g.ID(v), g.ID(int(u)))
				}
			}
			continue
		}
		u := g.NeighborByID(v, p)
		if u < 0 {
			return fmt.Errorf("verify: node %d matched to non-neighbor %d", g.ID(v), p)
		}
		if out[u] != g.ID(v) {
			return fmt.Errorf("verify: node %d matched to %d but %d matched to %d", g.ID(v), p, p, out[u])
		}
	}
	return nil
}

// MatchingPartialExtendable checks that a partial matching assignment
// (Undecided for no output) is extendable: matched pairs are mutual edges,
// and a node decided unmatched has all neighbors matched (Section 8.1).
func MatchingPartialExtendable(g *graph.Graph, out []int) error {
	if err := lengths(g, len(out)); err != nil {
		return err
	}
	for v := 0; v < g.N(); v++ {
		switch out[v] {
		case Undecided:
		case 0:
			for _, u := range g.Neighbors(v) {
				if out[u] <= 0 {
					return fmt.Errorf("verify: node %d decided unmatched but neighbor %d undecided or unmatched",
						g.ID(v), g.ID(int(u)))
				}
			}
		default:
			u := g.NeighborByID(v, out[v])
			if u < 0 {
				return fmt.Errorf("verify: node %d matched to non-neighbor %d", g.ID(v), out[v])
			}
			if out[u] != g.ID(v) {
				return fmt.Errorf("verify: asymmetric match %d -> %d", g.ID(v), out[v])
			}
		}
	}
	return nil
}

// VColor checks a (Δ+1)-vertex coloring.
func VColor(g *graph.Graph, out []int) error {
	return VColorWithPalette(g, out, g.MaxDegree()+1)
}

// VColorWithPalette checks a proper vertex coloring with colors in
// {1, ..., palette}.
func VColorWithPalette(g *graph.Graph, out []int, palette int) error {
	if err := lengths(g, len(out)); err != nil {
		return err
	}
	for v := 0; v < g.N(); v++ {
		if out[v] < 1 || out[v] > palette {
			return fmt.Errorf("verify: node %d has color %d outside [1,%d]", g.ID(v), out[v], palette)
		}
		for _, u := range g.Neighbors(v) {
			if out[u] == out[v] {
				return fmt.Errorf("verify: adjacent nodes %d and %d share color %d", g.ID(v), g.ID(int(u)), out[v])
			}
		}
	}
	return nil
}

// VColorPartial checks a partial proper coloring (Undecided allowed).
func VColorPartial(g *graph.Graph, out []int, palette int) error {
	if err := lengths(g, len(out)); err != nil {
		return err
	}
	for v := 0; v < g.N(); v++ {
		if out[v] == Undecided {
			continue
		}
		if out[v] < 1 || out[v] > palette {
			return fmt.Errorf("verify: node %d has color %d outside [1,%d]", g.ID(v), out[v], palette)
		}
		for _, u := range g.Neighbors(v) {
			if out[u] == out[v] {
				return fmt.Errorf("verify: adjacent nodes %d and %d share color %d", g.ID(v), g.ID(int(u)), out[v])
			}
		}
	}
	return nil
}

// EColor checks a (2Δ−1)-edge coloring given per-edge colors indexed like
// g.Edges().
func EColor(g *graph.Graph, colors []int) error {
	if len(colors) != g.M() {
		return fmt.Errorf("verify: %d edge colors for %d edges", len(colors), g.M())
	}
	palette := 2*g.MaxDegree() - 1
	incident := make([][]int, g.N())
	for e, ends := range g.Edges() {
		incident[ends[0]] = append(incident[ends[0]], e)
		incident[ends[1]] = append(incident[ends[1]], e)
	}
	for e, c := range colors {
		if c < 1 || c > palette {
			return fmt.Errorf("verify: edge %v has color %d outside [1,%d]", g.Edges()[e], c, palette)
		}
	}
	for v := 0; v < g.N(); v++ {
		seen := make(map[int]int, len(incident[v]))
		for _, e := range incident[v] {
			if prev, dup := seen[colors[e]]; dup {
				return fmt.Errorf("verify: node %d has edges %v and %v with color %d",
					g.ID(v), g.Edges()[prev], g.Edges()[e], colors[e])
			}
			seen[colors[e]] = e
		}
	}
	return nil
}

// NodeEdgeColorsAgree checks that per-node edge-color outputs agree across
// each edge and converts them to per-edge colors. outs[v] lists node v's
// colors in ascending-identifier neighbor order (the order node machines
// see).
func NodeEdgeColorsAgree(g *graph.Graph, outs [][]int) ([]int, error) {
	colors := make([]int, g.M())
	idx := g.EdgeIndex()
	// First pass fills, second pass compares, so the iteration order of the
	// two endpoints does not matter.
	for pass := 0; pass < 2; pass++ {
		for v := 0; v < g.N(); v++ {
			nbrs := g.NeighborsByID(v)
			if len(outs[v]) != len(nbrs) {
				return nil, fmt.Errorf("verify: node %d output %d colors for %d edges", g.ID(v), len(outs[v]), len(nbrs))
			}
			for j, u := range nbrs {
				a, b := v, u
				if a > b {
					a, b = b, a
				}
				e := idx[[2]int{a, b}]
				if pass == 0 && v == a {
					colors[e] = outs[v][j]
				}
				if pass == 1 && v == b && colors[e] != outs[v][j] {
					return nil, fmt.Errorf("verify: edge %v colored %d by one endpoint and %d by the other",
						g.Edges()[e], colors[e], outs[v][j])
				}
			}
		}
	}
	return colors, nil
}

func lengths(g *graph.Graph, got int) error {
	if got != g.N() {
		return fmt.Errorf("verify: %d outputs for %d nodes", got, g.N())
	}
	return nil
}
