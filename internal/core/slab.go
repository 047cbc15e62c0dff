package core

import "repro/internal/runtime"

// NodeSlab is the per-run storage behind a node-state factory: one T per
// node of the run, indexed by NodeInfo.Index, and a pool of E from which
// per-node slices — outboxes, neighbour-table buffers — are carved. It
// replaces a handful of heap allocations per node with a few per run.
//
// Take relies on the engine's factory contract (runtime.Factory): one call
// per node, in index order, on one goroutine, before round 1. Node 0 makes
// the run's slab; after node N-1 the NodeSlab forgets it, so only the run's
// machines keep it alive and a factory value that serves run after run (a
// session's healing factory) holds nothing between them. A call outside
// that pattern gets fresh allocations. A NodeSlab serves one run at a time:
// a factory that owns one must not build two runs concurrently.
type NodeSlab[T, E any] struct {
	nodes []T
	next  int
	pool  []E
}

// slabChunkDiv sizes the E pool's chunks at N/slabChunkDiv elements (at
// least slabChunkMin): the run's total need — its total degree, for
// outboxes — is not known at node 0, and chunks proportional to N keep the
// chunk count independent of n while bounding the unused tail of the last
// chunk to a small share of the run's storage.
const (
	slabChunkDiv = 4
	slabChunkMin = 256
)

// Take returns node info's zeroed T and a zeroed slice of n E's (capacity
// n), both carved from the run's slab.
func (s *NodeSlab[T, E]) Take(info runtime.NodeInfo, n int) (*T, []E) {
	if info.Index == 0 {
		*s = NodeSlab[T, E]{nodes: make([]T, info.N)}
	}
	var (
		t   *T
		buf []E
	)
	if info.Index == s.next && len(s.nodes) == info.N {
		t = &s.nodes[info.Index]
		buf = s.carve(n, info.N)
		s.next++
	} else {
		t, buf = new(T), make([]E, n)
	}
	if info.Index >= info.N-1 {
		*s = NodeSlab[T, E]{}
	}
	return t, buf
}

// carve cuts n elements off the pool, starting a new chunk when the current
// one is too short (its short remainder is left unused). A request of a
// chunk or more gets its own allocation and leaves the pool as it is.
func (s *NodeSlab[T, E]) carve(n, nodes int) []E {
	if n == 0 {
		return nil
	}
	chunk := max(nodes/slabChunkDiv, slabChunkMin)
	if n >= chunk {
		return make([]E, n)
	}
	if len(s.pool) < n {
		s.pool = make([]E, chunk)
	}
	buf := s.pool[:n:n]
	s.pool = s.pool[n:]
	return buf
}
