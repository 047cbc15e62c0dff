// Package graph provides the immutable graph representation used by every
// algorithm in this repository, together with generators for the instance
// families appearing in the paper and standard structural queries
// (components, BFS, diameter, induced subgraphs, line graphs).
//
// Nodes carry distinct identifiers from {1, ..., d} as in the paper's model
// (Section 2). Internally nodes are indexed 0..n-1; the identifier of index i
// is stored in IDs[i]. Most algorithmic code works with indices and consults
// identifiers only to break ties, exactly as the paper's algorithms do.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an immutable undirected graph. The zero value is the empty graph.
//
// Adjacency is stored in compressed sparse row form: the neighbors of node i
// (as indices) are adj[offsets[i]:offsets[i+1]], sorted ascending. Neighbor
// slices returned by methods alias internal storage and must not be modified.
type Graph struct {
	n       int
	d       int // upper bound on identifiers; >= max(ids)
	ids     []int
	offsets []int32
	adj     []int32
	edges   [][2]int // each edge once, u < v by index
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	n     int
	ids   []int
	d     int
	edges [][2]int
}

// NewBuilder creates a builder for a graph with n nodes whose identifiers
// default to 1..n (so d = n). Use SetID to override.
func NewBuilder(n int) *Builder {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i + 1
	}
	return &Builder{n: n, ids: ids, d: n}
}

// SetID assigns identifier id to node index i. Identifiers must be distinct
// and positive; this is validated in Build.
func (b *Builder) SetID(i, id int) *Builder {
	b.ids[i] = id
	if id > b.d {
		b.d = id
	}
	return b
}

// SetDomain sets d, the upper bound on identifiers. Build raises it if any
// identifier exceeds it.
func (b *Builder) SetDomain(d int) *Builder {
	b.d = d
	return b
}

// AddEdge adds the undirected edge {u, v} (node indices). Self-loops and
// out-of-range endpoints are rejected in Build via error; duplicates are
// coalesced.
func (b *Builder) AddEdge(u, v int) *Builder {
	b.edges = append(b.edges, [2]int{u, v})
	return b
}

// Build validates the accumulated structure and returns the immutable graph
// (FromEdges over a copy of the added edges).
func (b *Builder) Build() (*Graph, error) {
	return FromEdges(b.n, b.ids, b.d, append([][2]int(nil), b.edges...))
}

// MustBuild is Build that panics on error; intended for generators and tests
// whose inputs are valid by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges assembles a graph directly from an edge list on flat arrays; it
// is the one construction path, Builder.Build included. The edge slice is
// taken over and normalized in place (u < v, sorted, duplicates coalesced).
// ids supplies the identifier of each node index and may be nil for the
// identity assignment 1..n; domain is the identifier upper bound d (0
// selects the smallest valid bound).
func FromEdges(n int, ids []int, domain int, edges [][2]int) (*Graph, error) {
	for i, e := range edges {
		if e[0] > e[1] {
			edges[i] = [2]int{e[1], e[0]}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	w := 0
	for i, e := range edges {
		if e[0] == e[1] {
			return nil, fmt.Errorf("graph: self-loop at node %d", e[0])
		}
		if e[0] < 0 || e[1] >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e[0], e[1], n)
		}
		if i > 0 && e == edges[w-1] {
			continue
		}
		edges[w] = e
		w++
	}
	edges = edges[:w]

	if ids == nil {
		ids = make([]int, n)
		for i := range ids {
			ids[i] = i + 1
		}
		if domain < n {
			domain = n
		}
	} else {
		if len(ids) != n {
			return nil, fmt.Errorf("graph: %d identifiers for %d nodes", len(ids), n)
		}
		own := make([]int, n)
		copy(own, ids)
		ids = own
		for i, id := range ids {
			if id <= 0 {
				return nil, fmt.Errorf("graph: node %d has non-positive identifier %d", i, id)
			}
			if id > domain {
				domain = id
			}
		}
		// Distinctness check: a flat bitmap over the identifier domain when
		// it is comparably sized to n, a map otherwise (huge sparse domains).
		if domain <= 4*n+1024 {
			seen := make([]bool, domain+1)
			for _, id := range ids {
				if seen[id] {
					return nil, fmt.Errorf("graph: duplicate identifier %d", id)
				}
				seen[id] = true
			}
		} else {
			seen := make(map[int]struct{}, n)
			for _, id := range ids {
				if _, dup := seen[id]; dup {
					return nil, fmt.Errorf("graph: duplicate identifier %d", id)
				}
				seen[id] = struct{}{}
			}
		}
	}

	deg := make([]int32, n)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	offsets := make([]int32, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + deg[i]
	}
	adj := make([]int32, offsets[n])
	fill := deg // reuse: overwritten below as the insertion cursor
	copy(fill, offsets[:n])
	for _, e := range edges {
		u, v := int32(e[0]), int32(e[1])
		adj[fill[u]] = v
		fill[u]++
		adj[fill[v]] = u
		fill[v]++
	}
	// No per-range sort is needed: with edges sorted by (u, v), node x first
	// receives its neighbors w < x in ascending w (as second endpoints of the
	// (w, x) groups) and then its neighbors v > x in ascending v (within the
	// first == x group), so every adjacency range comes out ascending.
	return &Graph{
		n:       n,
		d:       domain,
		ids:     ids,
		offsets: offsets,
		adj:     adj,
		edges:   edges,
	}, nil
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// D returns the upper bound on node identifiers (the paper's d).
func (g *Graph) D() int { return g.d }

// ID returns the identifier of node index i.
func (g *Graph) ID(i int) int { return g.ids[i] }

// IDs returns a copy of the identifier slice, indexed by node index.
func (g *Graph) IDs() []int {
	out := make([]int, g.n)
	copy(out, g.ids)
	return out
}

// NeighborByID returns the index of node v's neighbor whose identifier is
// id, or -1 when v has no such neighbor. It scans only v's adjacency, so
// resolving every node's partner (which must be a neighbor) costs O(m).
func (g *Graph) NeighborByID(v, id int) int {
	for _, u := range g.Neighbors(v) {
		if g.ids[u] == id {
			return int(u)
		}
	}
	return -1
}

// Degree returns the degree of node i.
func (g *Graph) Degree(i int) int {
	return int(g.offsets[i+1] - g.offsets[i])
}

// MaxDegree returns Δ, the maximum degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for i := 0; i < g.n; i++ {
		if d := g.Degree(i); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// Neighbors returns the neighbor indices of node i, ascending. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) Neighbors(i int) []int32 {
	return g.adj[g.offsets[i]:g.offsets[i+1]]
}

// CSR exposes the graph's compressed-sparse-row adjacency: node i's
// neighbor indices are adj[offsets[i]:offsets[i+1]], ascending, with
// len(offsets) == N()+1. Both slices alias internal storage and must not be
// modified; they let hot paths (the columnar engine) walk the whole edge
// set without per-node accessor calls or copies.
func (g *Graph) CSR() (offsets, adj []int32) {
	return g.offsets, g.adj
}

// NeighborsByID returns the neighbor indices of node i ordered by ascending
// identifier — the order in which per-edge values (predictions, outputs) are
// exchanged with node machines, whose neighbor lists are identifier-sorted.
func (g *Graph) NeighborsByID(i int) []int {
	nbrs := g.Neighbors(i)
	out := make([]int, len(nbrs))
	for j, v := range nbrs {
		out[j] = int(v)
	}
	sort.Slice(out, func(a, b int) bool { return g.ids[out[a]] < g.ids[out[b]] })
	return out
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	nb := g.Neighbors(u)
	t := int32(v)
	lo, hi := 0, len(nb)
	for lo < hi {
		mid := (lo + hi) / 2
		if nb[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(nb) && nb[lo] == t
}

// Edges returns the edge list; each undirected edge appears once with
// e[0] < e[1] (indices). The returned slice must not be modified.
func (g *Graph) Edges() [][2]int { return g.edges }

// EdgeIndex returns a map from edge (u<v) to a dense edge id 0..M-1 matching
// the order of Edges.
func (g *Graph) EdgeIndex() map[[2]int]int {
	idx := make(map[[2]int]int, len(g.edges))
	for i, e := range g.edges {
		idx[e] = i
	}
	return idx
}

// Components returns the connected components as slices of node indices,
// each sorted ascending, ordered by smallest contained index.
func (g *Graph) Components() [][]int {
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	queue := make([]int32, 0, g.n)
	for s := 0; s < g.n; s++ {
		if comp[s] >= 0 {
			continue
		}
		c := len(comps)
		comp[s] = c
		queue = queue[:0]
		queue = append(queue, int32(s))
		members := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Neighbors(int(u)) {
				if comp[v] < 0 {
					comp[v] = c
					queue = append(queue, v)
					members = append(members, int(v))
				}
			}
		}
		sort.Ints(members)
		comps = append(comps, members)
	}
	return comps
}

// InducedSubgraph returns the subgraph induced by the given node indices,
// preserving identifiers and the identifier domain d. The second return maps
// new indices to old.
func (g *Graph) InducedSubgraph(nodes []int) (*Graph, []int) {
	old2new := make(map[int]int, len(nodes))
	newNodes := make([]int, len(nodes))
	copy(newNodes, nodes)
	sort.Ints(newNodes)
	for newIdx, oldIdx := range newNodes {
		old2new[oldIdx] = newIdx
	}
	b := NewBuilder(len(newNodes))
	b.SetDomain(g.d)
	for newIdx, oldIdx := range newNodes {
		b.SetID(newIdx, g.ids[oldIdx])
	}
	for newIdx, oldIdx := range newNodes {
		for _, w := range g.Neighbors(oldIdx) {
			if nw, ok := old2new[int(w)]; ok && nw > newIdx {
				b.AddEdge(newIdx, nw)
			}
		}
	}
	return b.MustBuild(), newNodes
}

// BFS returns distances from src (-1 where unreachable).
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Diameter returns the largest eccentricity over the graph; it returns -1
// if the graph is disconnected or empty. Runs BFS from every node.
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return -1
	}
	diam := 0
	for s := 0; s < g.n; s++ {
		dist := g.BFS(s)
		for _, d := range dist {
			if d < 0 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}
