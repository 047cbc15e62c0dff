// Package tree implements the paper's rooted-tree MIS results (Section 9.2):
// the MIS Rooted Tree Initialization Algorithm, the roots-and-leaves
// measure-uniform algorithm (paper Algorithm 6), the Goldberg–Plotkin–
// Shannon/Cole–Vishkin 3-coloring of rooted trees as a fault-tolerant
// reference part 1, the two-round MIS-from-3-coloring part 2, the η_t error
// measure, and the Corollary 15 Parallel Template assembly.
package tree

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// Rooted is a rooted tree (or forest): an undirected graph together with a
// parent pointer per node (-1 at roots). Each node knows only whether it is
// a root and which neighbor is its parent, matching the paper's model.
type Rooted struct {
	G *graph.Graph
	// ParentIdx maps node index to parent node index, -1 at roots.
	ParentIdx []int
}

// ParentID returns the identifier of node i's parent, or 0 at roots.
func (r *Rooted) ParentID(i int) int {
	p := r.ParentIdx[i]
	if p < 0 {
		return 0
	}
	return r.G.ID(p)
}

// DirectedLine returns a rooted path of n nodes: node 0 is the root and node
// i's parent is node i−1.
func DirectedLine(n int) *Rooted {
	g := graph.Line(n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i - 1
	}
	return &Rooted{G: g, ParentIdx: parent}
}

// RandomRooted returns a uniformly random labelled tree rooted at node 0.
func RandomRooted(n int, rng *rand.Rand) *Rooted {
	g := graph.RandomTree(n, rng)
	return RootAt(g, 0)
}

// RootAt orients an acyclic graph as a forest rooted at the given node (and,
// for other components, at each component's smallest index).
func RootAt(g *graph.Graph, root int) *Rooted {
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	var bfs func(src int)
	bfs = func(src int) {
		parent[src] = -1
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Neighbors(u) {
				if parent[v] == -2 {
					parent[v] = u
					queue = append(queue, int(v))
				}
			}
		}
	}
	bfs(root)
	for i := 0; i < g.N(); i++ {
		if parent[i] == -2 {
			bfs(i)
		}
	}
	return &Rooted{G: g, ParentIdx: parent}
}

// Height returns the height (edge count of the longest root-to-leaf path) of
// the forest.
func (r *Rooted) Height() int {
	depth := make([]int, r.G.N())
	maxDepth := 0
	// Parents appear before children in a BFS order from the roots; compute
	// via repeated relaxation (trees are shallow relative to n, but be
	// general with an explicit order).
	order := r.topoOrder()
	for _, v := range order {
		if r.ParentIdx[v] >= 0 {
			depth[v] = depth[r.ParentIdx[v]] + 1
		}
		if depth[v] > maxDepth {
			maxDepth = depth[v]
		}
	}
	return maxDepth
}

// topoOrder returns node indices with every parent before its children.
func (r *Rooted) topoOrder() []int {
	n := r.G.N()
	children := make([][]int, n)
	var roots []int
	for v := 0; v < n; v++ {
		if p := r.ParentIdx[v]; p >= 0 {
			children[p] = append(children[p], v)
		} else {
			roots = append(roots, v)
		}
	}
	order := make([]int, 0, n)
	stack := append([]int(nil), roots...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		stack = append(stack, children[v]...)
	}
	return order
}

// EtaT computes the paper's rooted-tree error measure η_t: one plus the
// maximum height of the black and white components — equivalently, the
// maximum number of nodes on a monochromatic upward path in the subgraph
// induced by the nodes active after the MIS Base Algorithm. active and pred
// are indexed by node index.
func EtaT(r *Rooted, pred []int, active []bool) int {
	chain := make([]int, r.G.N())
	maxChain := 0
	for _, v := range r.topoOrder() {
		if !active[v] {
			continue
		}
		chain[v] = 1
		if p := r.ParentIdx[v]; p >= 0 && active[p] && pred[p] == pred[v] {
			chain[v] = chain[p] + 1
		}
		if chain[v] > maxChain {
			maxChain = chain[v]
		}
	}
	return maxChain
}

// Memory is the per-node shared state for the rooted-tree MIS algorithms.
type Memory struct {
	// Pred is the node's MIS prediction bit.
	Pred int
	// ParentID is the identifier of the node's parent, 0 at roots.
	ParentID int
	// NbrPred holds each neighbor's announced prediction.
	NbrPred core.NbrTable
	// NbrOut holds each neighbor's output bit; presence = terminated.
	NbrOut core.NbrTable
	// Color and Palette hold the 3-coloring stored by reference part 1.
	Color, Palette int
}

// StoreColor implements the reference part 1 color store.
func (m *Memory) StoreColor(color, palette int) { m.Color, m.Palette = color, palette }

// NewMemory returns the MemoryFactory for rooted-tree compositions on r.
// The factory closes over the parent pointers: each node is given only its
// own parent's identifier, consistent with the model.
func NewMemory(r *Rooted) func(info runtime.NodeInfo, pred any) any {
	return func(info runtime.NodeInfo, pred any) any {
		bit := 0
		if p, ok := pred.(int); ok {
			bit = p
		}
		m := &Memory{Pred: bit, ParentID: r.ParentID(info.Index)}
		core.NewNbrTables(info.NeighborIDs, &m.NbrPred, &m.NbrOut)
		return m
	}
}

// ActiveNeighbors returns neighbors not known to have terminated.
func (m *Memory) ActiveNeighbors(info runtime.NodeInfo) []int {
	return m.NbrOut.Missing()
}

// ParentActive reports whether the node still has an active parent.
func (m *Memory) ParentActive() bool {
	if m.ParentID == 0 {
		return false
	}
	return !m.NbrOut.Has(m.ParentID)
}

// ActiveChildren returns the active neighbors other than the parent.
func (m *Memory) ActiveChildren(info runtime.NodeInfo) []int {
	out := make([]int, 0, len(info.NeighborIDs))
	for _, nb := range m.ActiveNeighbors(info) {
		if nb != m.ParentID {
			out = append(out, nb)
		}
	}
	return out
}
