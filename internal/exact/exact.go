// Package exact computes the exact graph quantities the paper's error
// measures are defined in terms of: the independence number α(G), the vertex
// cover number τ(G) (= n − α(G) by complementation), and the minimum Hamming
// distance from a prediction vector to the characteristic vector of a maximal
// independent set (the paper's η_H, Section 5).
//
// These are definitions, not distributed algorithms; they are evaluated
// offline on error components, which the experiment configurations keep small
// enough for exact branch-and-bound search.
package exact

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/graph"
)

// MaxExactNodes bounds the component size accepted by the exponential-time
// routines in this package.
const MaxExactNodes = 512

// ErrTooLarge is returned when a graph exceeds MaxExactNodes.
var ErrTooLarge = errors.New("exact: graph too large for exact computation")

// ErrBudget is returned when the branch-and-bound search exceeds its step
// budget; it matches ErrTooLarge under errors.Is.
var ErrBudget = fmt.Errorf("search budget exhausted: %w", ErrTooLarge)

// alphaStepBudget bounds the number of branch nodes explored per call.
const alphaStepBudget = 4_000_000

// Alpha returns α(G), the size of a maximum independent set of g.
func Alpha(g *graph.Graph) (int, error) {
	if g.N() > MaxExactNodes {
		return 0, fmt.Errorf("%w: n=%d", ErrTooLarge, g.N())
	}
	total := 0
	for _, comp := range g.Components() {
		sub, _ := g.InducedSubgraph(comp)
		a, err := alphaConnected(sub)
		if err != nil {
			return 0, err
		}
		total += a
	}
	return total, nil
}

// Tau returns τ(G), the size of a minimum vertex cover of g. The complement
// of a maximum independent set is a minimum vertex cover, so τ = n − α.
func Tau(g *graph.Graph) (int, error) {
	a, err := Alpha(g)
	if err != nil {
		return 0, err
	}
	return g.N() - a, nil
}

// Mu2 returns the paper's measure μ₂(G) = 2·min{α(G), τ(G)}.
func Mu2(g *graph.Graph) (int, error) {
	a, err := Alpha(g)
	if err != nil {
		return 0, err
	}
	t := g.N() - a
	if t < a {
		a = t
	}
	return 2 * a, nil
}

// alphaConnected runs branch and bound on one connected graph using adjacency
// masks over a working vertex set. Standard two-way branching on a
// maximum-degree vertex with isolated/degree-1 simplification.
func alphaConnected(g *graph.Graph) (int, error) {
	n := g.N()
	if n == 0 {
		return 0, nil
	}
	words := (n + 63) / 64
	adj := make([][]uint64, n)
	for i := 0; i < n; i++ {
		adj[i] = make([]uint64, words)
		for _, v := range g.Neighbors(i) {
			adj[i][v/64] |= 1 << (uint(v) % 64)
		}
	}
	full := make([]uint64, words)
	for i := 0; i < n; i++ {
		full[i/64] |= 1 << (uint(i) % 64)
	}
	s := &alphaSolver{n: n, words: words, adj: adj, budget: alphaStepBudget}
	a := s.solve(full)
	if s.exceeded {
		return 0, fmt.Errorf("alpha on %d nodes: %w", n, ErrBudget)
	}
	return a, nil
}

type alphaSolver struct {
	n        int
	words    int
	adj      [][]uint64
	budget   int
	exceeded bool
}

func popcount(mask []uint64) int {
	c := 0
	for _, w := range mask {
		c += bits.OnesCount64(w)
	}
	return c
}

func (s *alphaSolver) solve(mask []uint64) int {
	if s.budget--; s.budget < 0 {
		s.exceeded = true
		return 0
	}
	// Simplification loop: take isolated and degree-1 vertices greedily
	// (always optimal for maximum independent set).
	work := make([]uint64, s.words)
	copy(work, mask)
	taken := 0
	for {
		progress := false
		for v := 0; v < s.n; v++ {
			if work[v/64]&(1<<(uint(v)%64)) == 0 {
				continue
			}
			deg, only := s.degreeIn(v, work)
			switch deg {
			case 0:
				taken++
				clearBit(work, v)
				progress = true
			case 1:
				taken++
				clearBit(work, v)
				clearBit(work, only)
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	if popcount(work) == 0 {
		return taken
	}
	// Split into connected components of the remaining mask; sparse error
	// components splinter quickly, which keeps the search tractable.
	comps := s.splitComponents(work)
	if len(comps) > 1 {
		for _, comp := range comps {
			taken += s.solve(comp)
		}
		return taken
	}
	// Branch on a maximum-degree vertex v: either exclude v, or include v and
	// exclude N(v).
	v, _ := s.maxDegreeIn(work)
	without := make([]uint64, s.words)
	copy(without, work)
	clearBit(without, v)
	best := s.solve(without)
	with := make([]uint64, s.words)
	for w := 0; w < s.words; w++ {
		with[w] = work[w] &^ s.adj[v][w]
	}
	clearBit(with, v)
	if r := 1 + s.solve(with); r > best {
		best = r
	}
	return taken + best
}

// splitComponents partitions the masked vertex set into connected components
// (as masks).
func (s *alphaSolver) splitComponents(mask []uint64) [][]uint64 {
	remaining := make([]uint64, s.words)
	copy(remaining, mask)
	var comps [][]uint64
	for {
		seed := -1
		for w := 0; w < s.words; w++ {
			if remaining[w] != 0 {
				seed = w*64 + bits.TrailingZeros64(remaining[w])
				break
			}
		}
		if seed < 0 {
			return comps
		}
		comp := make([]uint64, s.words)
		queue := []int{seed}
		setBit(comp, seed)
		clearBit(remaining, seed)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for w := 0; w < s.words; w++ {
				x := s.adj[v][w] & remaining[w]
				for x != 0 {
					u := w*64 + bits.TrailingZeros64(x)
					x &= x - 1
					setBit(comp, u)
					clearBit(remaining, u)
					queue = append(queue, u)
				}
			}
		}
		comps = append(comps, comp)
	}
}

func setBit(mask []uint64, v int) {
	mask[v/64] |= 1 << (uint(v) % 64)
}

func (s *alphaSolver) degreeIn(v int, mask []uint64) (deg, only int) {
	only = -1
	for w := 0; w < s.words; w++ {
		x := s.adj[v][w] & mask[w]
		deg += bits.OnesCount64(x)
		if x != 0 {
			only = w*64 + bits.TrailingZeros64(x)
		}
	}
	return deg, only
}

func (s *alphaSolver) maxDegreeIn(mask []uint64) (v, deg int) {
	v, deg = -1, -1
	for u := 0; u < s.n; u++ {
		if mask[u/64]&(1<<(uint(u)%64)) == 0 {
			continue
		}
		d, _ := s.degreeIn(u, mask)
		if d > deg {
			v, deg = u, d
		}
	}
	return v, deg
}

func clearBit(mask []uint64, v int) {
	mask[v/64] &^= 1 << (uint(v) % 64)
}

// MaxHammingNodes bounds the graph size for MinHammingToMIS, which explores
// maximal independent sets exhaustively.
const MaxHammingNodes = 28

// MinHammingToMIS returns the paper's η_H for the MIS problem: the minimum,
// over all maximal independent sets M of g, of the Hamming distance between
// pred and the characteristic vector of M. pred[i] must be 0 or 1.
func MinHammingToMIS(g *graph.Graph, pred []int) (int, error) {
	n := g.N()
	if n > MaxHammingNodes {
		return 0, fmt.Errorf("%w: n=%d (limit %d)", ErrTooLarge, n, MaxHammingNodes)
	}
	if len(pred) != n {
		return 0, fmt.Errorf("exact: %d predictions for %d nodes", len(pred), n)
	}
	adj := make([]uint32, n)
	for i := 0; i < n; i++ {
		for _, v := range g.Neighbors(i) {
			adj[i] |= 1 << uint(v)
		}
	}
	predMask := uint32(0)
	for i, p := range pred {
		if p == 1 {
			predMask |= 1 << uint(i)
		}
	}
	best := n + 1
	// Enumerate all maximal independent sets by branching on the lowest
	// undecided vertex: in or out. Maximality is checked at the leaves.
	var rec func(idx int, set, excluded uint32)
	rec = func(idx int, set, excluded uint32) {
		if idx == n {
			// Maximal iff every vertex outside set has a neighbor inside.
			for v := 0; v < n; v++ {
				bit := uint32(1) << uint(v)
				if set&bit == 0 && adj[v]&set == 0 {
					return
				}
			}
			d := bits.OnesCount32(set ^ predMask)
			if d < best {
				best = d
			}
			return
		}
		bit := uint32(1) << uint(idx)
		if excluded&bit == 0 && adj[idx]&set == 0 {
			rec(idx+1, set|bit, excluded)
		}
		rec(idx+1, set, excluded|bit)
	}
	rec(0, 0, 0)
	return best, nil
}

// GreedyMISByID returns the canonical maximal independent set obtained by
// scanning nodes in ascending identifier order and taking every node none of
// whose neighbors has been taken. Returned as a 0/1 vector by node index.
// This is the deterministic "solve locally" rule shared by every
// collect-and-solve reference in the repository, so distinct nodes computing
// the MIS of the same component agree.
func GreedyMISByID(g *graph.Graph) []int {
	n := g.N()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Sort by identifier.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && g.ID(order[j]) < g.ID(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	for _, v := range order {
		take := true
		for _, u := range g.Neighbors(v) {
			if out[u] == 1 {
				take = false
				break
			}
		}
		if take {
			out[v] = 1
		} else {
			out[v] = 0
		}
	}
	return out
}

// GreedyMatchingByID returns the canonical maximal matching obtained by
// scanning edges in ascending (smaller endpoint ID, larger endpoint ID)
// order, taking every edge whose endpoints are both free. Returned as
// partner identifiers per node index, 0 for unmatched. This is the shared
// deterministic rule used by collect-and-solve matching references.
func GreedyMatchingByID(g *graph.Graph) []int {
	type edge struct{ a, b, ia, ib int }
	edges := make([]edge, 0, g.M())
	for _, e := range g.Edges() {
		a, b := g.ID(e[0]), g.ID(e[1])
		ia, ib := e[0], e[1]
		if a > b {
			a, b = b, a
			ia, ib = ib, ia
		}
		edges = append(edges, edge{a, b, ia, ib})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})
	out := make([]int, g.N())
	for _, e := range edges {
		if out[e.ia] == 0 && out[e.ib] == 0 {
			out[e.ia] = e.b
			out[e.ib] = e.a
		}
	}
	return out
}
