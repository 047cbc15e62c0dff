// Package predict provides prediction vectors for the four problems in the
// paper, generators that control the amount of error in them, and the
// paper's error measures: η_H, η₁, η₂, η_bw, and η_t (Sections 5 and 9).
//
// Error components are always computed from the problem's *base* algorithm,
// as the paper prescribes: the error measure is part of the problem
// definition, independent of which (reasonable) initialization algorithm a
// particular algorithm with predictions happens to use.
package predict

import (
	"fmt"

	"repro/internal/exact"
	"repro/internal/graph"
)

// MISBaseActive returns, for each node, whether it would still be active
// after the MIS Base Algorithm (Section 4): the independent set I consists of
// the nodes with prediction 1 all of whose neighbors have prediction 0; I and
// its neighbors terminate.
func MISBaseActive(g *graph.Graph, pred []int) []bool {
	n := g.N()
	inI := make([]bool, n)
	for v := 0; v < n; v++ {
		if pred[v] != 1 {
			continue
		}
		ok := true
		for _, u := range g.Neighbors(v) {
			if pred[u] != 0 {
				ok = false
				break
			}
		}
		inI[v] = ok
	}
	active := make([]bool, n)
	for v := 0; v < n; v++ {
		active[v] = !inI[v]
	}
	for v := 0; v < n; v++ {
		if !inI[v] {
			continue
		}
		for _, u := range g.Neighbors(v) {
			active[u] = false
		}
	}
	return active
}

// MatchingBaseActive returns the active nodes after the Maximal Matching Base
// Algorithm (Section 8.1). pred[i] is the identifier of the predicted partner
// of node i, or Unmatched. Nodes whose mutual predictions agree are matched
// and terminate; a node predicted unmatched terminates if all its neighbors
// were matched.
func MatchingBaseActive(g *graph.Graph, pred []int) []bool {
	n := g.N()
	matched := make([]bool, n)
	for v := 0; v < n; v++ {
		p := pred[v]
		if p == Unmatched {
			continue
		}
		u := g.NeighborByID(v, p)
		if u < 0 {
			continue
		}
		if pred[u] == g.ID(v) {
			matched[v] = true
		}
	}
	active := make([]bool, n)
	for v := 0; v < n; v++ {
		if matched[v] {
			continue
		}
		if pred[v] == Unmatched {
			allMatched := true
			for _, u := range g.Neighbors(v) {
				if !matched[u] {
					allMatched = false
					break
				}
			}
			if allMatched {
				continue
			}
		}
		active[v] = true
	}
	return active
}

// Unmatched is the matching prediction/output value for "no partner" (the
// paper's ⊥).
const Unmatched = 0

// VColorBaseActive returns the active nodes after the (Δ+1)-Vertex Coloring
// Base Algorithm (Section 8.2): a node outputs its predicted color if it
// differs from the predictions of all its neighbors. Predictions outside
// {1, ..., Δ+1} are erroneous and keep the node active.
func VColorBaseActive(g *graph.Graph, pred []int) []bool {
	n := g.N()
	palette := g.MaxDegree() + 1
	active := make([]bool, n)
	for v := 0; v < n; v++ {
		if pred[v] < 1 || pred[v] > palette {
			active[v] = true
			continue
		}
		for _, u := range g.Neighbors(v) {
			if pred[u] == pred[v] {
				active[v] = true
				break
			}
		}
	}
	return active
}

// EdgePrediction holds a node's predicted colors for its incident edges, in
// ascending order of the neighbors' identifiers (the order node machines see
// their neighbor lists in).
type EdgePrediction []int

// EColorBaseUncolored returns, for each edge of g (in g.Edges() order),
// whether it would remain uncolored after the (2Δ−1)-Edge Coloring Base
// Algorithm (Section 8.3): a node offers its predicted color for an edge only
// if that color is unique among its own edge predictions, and the edge is
// colored when both endpoints offer the same color.
func EColorBaseUncolored(g *graph.Graph, pred []EdgePrediction) []bool {
	offers := eColorOffers(g, pred)
	uncolored := make([]bool, g.M())
	for e := range g.Edges() {
		u, v := g.Edges()[e][0], g.Edges()[e][1]
		cu, okU := offers[[2]int{u, v}]
		cv, okV := offers[[2]int{v, u}]
		uncolored[e] = !(okU && okV && cu == cv)
	}
	return uncolored
}

// eColorOffers maps (node, neighbor) to the color the node offers on that
// edge, omitting entries where the node's prediction is duplicated or out of
// range.
func eColorOffers(g *graph.Graph, pred []EdgePrediction) map[[2]int]int {
	palette := 2*g.MaxDegree() - 1
	offers := make(map[[2]int]int)
	for v := 0; v < g.N(); v++ {
		counts := make(map[int]int, len(pred[v]))
		for _, c := range pred[v] {
			counts[c]++
		}
		for j, u := range g.NeighborsByID(v) {
			c := pred[v][j]
			if c < 1 || c > palette || counts[c] > 1 {
				continue
			}
			offers[[2]int{v, u}] = c
		}
	}
	return offers
}

// ErrorComponents returns the error components: the connected components of
// the subgraph induced by the active nodes. Each component is returned as an
// induced subgraph together with its original node indices.
func ErrorComponents(g *graph.Graph, active []bool) []Component {
	nodes := make([]int, 0, g.N())
	for v, a := range active {
		if a {
			nodes = append(nodes, v)
		}
	}
	sub, orig := g.InducedSubgraph(nodes)
	var comps []Component
	for _, comp := range sub.Components() {
		inner, innerOrig := sub.InducedSubgraph(comp)
		mapped := make([]int, len(innerOrig))
		for i, idx := range innerOrig {
			mapped[i] = orig[idx]
		}
		comps = append(comps, Component{Graph: inner, Nodes: mapped})
	}
	return comps
}

// Component is one error component: its induced subgraph and the indices of
// its nodes in the original graph.
type Component struct {
	Graph *graph.Graph
	Nodes []int
}

// EdgeErrorComponents returns the error components of an edge problem: the
// components of the subgraph induced by the given edges (paper Section 4,
// edge-output problems). uncolored is indexed like g.Edges().
func EdgeErrorComponents(g *graph.Graph, uncolored []bool) []Component {
	nodeSet := make(map[int]bool)
	for e, u := range uncolored {
		if u {
			nodeSet[g.Edges()[e][0]] = true
			nodeSet[g.Edges()[e][1]] = true
		}
	}
	active := make([]bool, g.N())
	for v := range nodeSet {
		active[v] = true
	}
	// The induced subgraph on endpoint nodes may include already-colored
	// edges between endpoints of distinct uncolored edges; per the paper the
	// components are those of the subgraph induced by the *edges*, so build
	// that graph explicitly.
	idx := make(map[int]int, len(nodeSet))
	ordered := make([]int, 0, len(nodeSet))
	for v := 0; v < g.N(); v++ {
		if active[v] {
			idx[v] = len(ordered)
			ordered = append(ordered, v)
		}
	}
	b := graph.NewBuilder(len(ordered))
	b.SetDomain(g.D())
	for i, v := range ordered {
		b.SetID(i, g.ID(v))
	}
	for e, u := range uncolored {
		if u {
			b.AddEdge(idx[g.Edges()[e][0]], idx[g.Edges()[e][1]])
		}
	}
	sub := b.MustBuild()
	var comps []Component
	for _, comp := range sub.Components() {
		inner, innerOrig := sub.InducedSubgraph(comp)
		mapped := make([]int, len(innerOrig))
		for i, x := range innerOrig {
			mapped[i] = ordered[x]
		}
		comps = append(comps, Component{Graph: inner, Nodes: mapped})
	}
	return comps
}

// Eta1Edges returns the alternative edge-coloring error measure discussed in
// Section 8.3: the maximum number of edges over the error components. The
// paper notes a component with s nodes has at least s−1 edges (and possibly
// many more), which is why the node-count measure η₁ is preferred — error
// measures should return smaller values when possible.
func Eta1Edges(comps []Component) int {
	maxM := 0
	for _, c := range comps {
		if c.Graph.M() > maxM {
			maxM = c.Graph.M()
		}
	}
	return maxM
}

// Eta1 returns η₁ = max over error components of the node count (0 when the
// predictions are error-free).
func Eta1(comps []Component) int {
	maxN := 0
	for _, c := range comps {
		if c.Graph.N() > maxN {
			maxN = c.Graph.N()
		}
	}
	return maxN
}

// Eta2 returns η₂ = max over error components of μ₂ = 2·min{α, τ}.
func Eta2(comps []Component) (int, error) {
	maxMu := 0
	for _, c := range comps {
		mu, err := exact.Mu2(c.Graph)
		if err != nil {
			return 0, fmt.Errorf("eta2: %w", err)
		}
		if mu > maxMu {
			maxMu = mu
		}
	}
	return maxMu, nil
}

// EtaBW returns η_bw for the MIS problem: the maximum node count of any
// black or white component — a component of the subgraph induced by the
// active nodes with prediction 1, respectively 0 (Section 5).
func EtaBW(g *graph.Graph, pred []int, active []bool) int {
	maxN := 0
	for _, bit := range []int{0, 1} {
		nodes := make([]int, 0, g.N())
		for v := 0; v < g.N(); v++ {
			if active[v] && pred[v] == bit {
				nodes = append(nodes, v)
			}
		}
		sub, _ := g.InducedSubgraph(nodes)
		for _, comp := range sub.Components() {
			if len(comp) > maxN {
				maxN = len(comp)
			}
		}
	}
	return maxN
}

// EtaH returns η_H for the MIS problem: the minimum number of prediction bits
// that must change to obtain a maximal independent set. Exponential; only for
// small graphs (see exact.MaxHammingNodes).
func EtaH(g *graph.Graph, pred []int) (int, error) {
	return exact.MinHammingToMIS(g, pred)
}
