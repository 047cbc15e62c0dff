package shard

import "testing"

// ringCSR builds the CSR arrays of an n-cycle (each node adjacent to its
// two ring neighbors), enough topology for partitioner tests without
// importing the graph package.
func ringCSR(n int) (off, adj []int32) {
	off = make([]int32, n+1)
	adj = make([]int32, 0, 2*n)
	for i := 0; i < n; i++ {
		off[i] = int32(len(adj))
		prev, next := (i+n-1)%n, (i+1)%n
		if prev != i {
			adj = append(adj, int32(prev))
		}
		if next != i && next != prev {
			adj = append(adj, int32(next))
		}
	}
	off[n] = int32(len(adj))
	return off, adj
}

// sizes counts each shard's nodes.
func sizes(p *Partition) []int {
	out := make([]int, p.S)
	for _, sh := range p.Of {
		out[sh]++
	}
	return out
}

func TestContiguousBalanced(t *testing.T) {
	for _, tc := range []struct{ n, s int }{
		{0, 1}, {0, 4}, {1, 1}, {7, 3}, {12, 4}, {100, 8}, {5, 8},
	} {
		p := Contiguous(tc.n, tc.s)
		if p.S != tc.s {
			t.Fatalf("Contiguous(%d,%d): S = %d", tc.n, tc.s, p.S)
		}
		if err := p.Validate(tc.n); err != nil {
			t.Fatalf("Contiguous(%d,%d): %v", tc.n, tc.s, err)
		}
		lo, hi := tc.n, 0
		for _, size := range sizes(p) {
			lo, hi = min(lo, size), max(hi, size)
		}
		if tc.n > 0 && hi-lo > 1 {
			t.Fatalf("Contiguous(%d,%d): shard sizes spread %d..%d", tc.n, tc.s, lo, hi)
		}
		// Contiguity: the assignment never steps back to an earlier shard,
		// so every shard's nodes form one index interval.
		for i := 1; i < len(p.Of); i++ {
			if p.Of[i] < p.Of[i-1] {
				t.Fatalf("Contiguous(%d,%d): shard %d not contiguous", tc.n, tc.s, p.Of[i])
			}
		}
	}
}

func TestContiguousRingCut(t *testing.T) {
	off, adj := ringCSR(100)
	p := Contiguous(100, 4)
	// A ring cut into 4 arcs crosses the cut at 4 places, 2 directed edges
	// each.
	if got := p.CutEdges(off, adj); got != 8 {
		t.Fatalf("ring cut edges = %d, want 8", got)
	}
}

func TestGreedyEdgeCutDeterministicAndBalanced(t *testing.T) {
	off, adj := ringCSR(97)
	a := GreedyEdgeCut(97, off, adj, 5, 42)
	b := GreedyEdgeCut(97, off, adj, 5, 42)
	if err := a.Validate(97); err != nil {
		t.Fatal(err)
	}
	for i := range a.Of {
		if a.Of[i] != b.Of[i] {
			t.Fatalf("same seed, different assignment at node %d", i)
		}
	}
	limit := (97 + 4) / 5
	for sh, size := range sizes(a) {
		if size > limit {
			t.Fatalf("shard %d holds %d nodes; balance cap is %d", sh, size, limit)
		}
	}
	// The greedy heuristic should not be worse than a blind split on a ring.
	if cut := a.CutEdges(off, adj); cut > 97*2/2 {
		t.Fatalf("greedy cut %d larger than half the edges", cut)
	}
}

func TestNewRejectsBadAssignments(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Fatal("New(0, nil) accepted")
	}
	if _, err := New(2, []int32{0, 2}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	p, err := New(2, []int32{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(3); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(4); err == nil {
		t.Fatal("Validate accepted wrong n")
	}
	if err := (&Partition{S: 2, Of: []int32{0, -1, 1}}).Validate(3); err == nil {
		t.Fatal("Validate accepted a negative shard")
	}
	if err := (&Partition{S: 0}).Validate(0); err == nil {
		t.Fatal("Validate accepted zero shards")
	}
}
