// Package shard partitions the communication graph for the engine's
// per-shard ledgers (Config.Shards in internal/runtime): each node belongs
// to one of S shards, and the engine books every round's deliveries by
// destination shard and the traffic crossing between shards, which tracks
// the edge cut, not n. A partition does not split the engine's work: every
// phase cuts the one frontier into chunks, whatever the shard count.
//
// The package provides the two partitioning strategies over the engine's
// CSR arrays — contiguous index ranges (the deterministic default) and a
// seeded greedy edge-cut heuristic. Both are pure functions of their
// inputs: Contiguous of (n, s) alone, GreedyEdgeCut of (n, off, adj, s,
// seed), so a partition is reproducible from the run configuration and the
// engine's determinism contract (results and traces byte-identical for
// every S) extends to partitioned runs.
package shard

import (
	"errors"
	"fmt"
	"math/rand"
)

// ErrPartition classifies every invalid-partition error this package
// builds. The engine wraps partition failures in runtime.ErrConfig at the
// Config boundary (this package cannot import runtime's sentinels — the
// engine imports shard); errors.Is(err, shard.ErrPartition) classifies
// them below that boundary.
var ErrPartition = errors.New("shard: invalid partition")

// Partition is a node→shard assignment over an n-node graph.
type Partition struct {
	// S is the shard count.
	S int
	// Of maps node index to its owning shard, len n.
	Of []int32
}

// New builds a Partition from an explicit node→shard assignment. The
// assignment is validated: s must be at least 1 and every entry in [0, s).
func New(s int, of []int32) (*Partition, error) {
	p := &Partition{S: s, Of: of}
	if err := p.Validate(len(of)); err != nil {
		return nil, err
	}
	return p, nil
}

// Contiguous splits n node indexes into s contiguous ranges of near-equal
// size (the first n mod s shards hold one extra node). It is the engine's
// default strategy: zero-knowledge, deterministic, and for generators that
// lay out edges locally (rings, grids) already a small edge cut.
func Contiguous(n, s int) *Partition {
	if s < 1 {
		s = 1
	}
	of := make([]int32, n)
	base, extra := n/s, n%s
	i := 0
	for sh := 0; sh < s; sh++ {
		size := base
		if sh < extra {
			size++
		}
		for k := 0; k < size; k++ {
			of[i] = int32(sh)
			i++
		}
	}
	return &Partition{S: s, Of: of}
}

// GreedyEdgeCut assigns nodes to s shards with a seeded greedy heuristic
// over the CSR arrays (off, adj): nodes are visited in a seeded random
// order, and each is placed on the shard already holding most of its placed
// neighbors among the shards still under the balance cap ⌈n/s⌉; ties break
// toward the lighter load, then the lower shard index, and a node with no
// placed neighbors lands on the least-loaded shard. The result is balanced
// to within one node of even and deterministic for a fixed
// (n, off, adj, s, seed).
func GreedyEdgeCut(n int, off, adj []int32, s int, seed int64) *Partition {
	if s < 1 {
		s = 1
	}
	of := make([]int32, n)
	for i := range of {
		of[i] = -1
	}
	order := rand.New(rand.NewSource(seed)).Perm(n)
	limit := (n + s - 1) / s
	load := make([]int, s)
	gain := make([]int, s)
	for _, i := range order {
		for sh := range gain {
			gain[sh] = 0
		}
		for _, j := range adj[off[i]:off[i+1]] {
			if sh := of[j]; sh >= 0 {
				gain[sh]++
			}
		}
		best := -1
		for sh := 0; sh < s; sh++ {
			if load[sh] >= limit {
				continue
			}
			if best < 0 || gain[sh] > gain[best] ||
				(gain[sh] == gain[best] && load[sh] < load[best]) {
				best = sh
			}
		}
		// best is always found: fewer than n ≤ s·limit nodes are placed, so
		// some shard is under the cap.
		of[i] = int32(best)
		load[best]++
	}
	return &Partition{S: s, Of: of}
}

// Validate checks the partition against an n-node graph: the assignment
// covers exactly n nodes and every shard index is in [0, S).
func (p *Partition) Validate(n int) error {
	if p.S < 1 {
		return fmt.Errorf("%w: %d shards; need at least 1", ErrPartition, p.S)
	}
	if len(p.Of) != n {
		return fmt.Errorf("%w: assignment covers %d nodes; graph has %d", ErrPartition, len(p.Of), n)
	}
	for i, sh := range p.Of {
		if sh < 0 || int(sh) >= p.S {
			return fmt.Errorf("%w: node %d assigned to shard %d; range is [0, %d)", ErrPartition, i, sh, p.S)
		}
	}
	return nil
}

// CutEdges counts the directed CSR edges whose endpoints live on different
// shards (an undirected edge crossing the cut contributes twice). This is
// the boundary traffic bound: a round's cross-shard message count is at most
// the cut times the adversary's duplication factor.
func (p *Partition) CutEdges(off, adj []int32) int {
	cut := 0
	for i := 0; i < len(off)-1; i++ {
		for _, j := range adj[off[i]:off[i+1]] {
			if p.Of[i] != p.Of[j] {
				cut++
			}
		}
	}
	return cut
}
