package graph_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestBuilderValidation(t *testing.T) {
	t.Run("duplicate identifier", func(t *testing.T) {
		b := graph.NewBuilder(2)
		b.SetID(0, 5)
		b.SetID(1, 5)
		if _, err := b.Build(); err == nil {
			t.Error("want error for duplicate identifiers")
		}
	})
	t.Run("non-positive identifier", func(t *testing.T) {
		b := graph.NewBuilder(1)
		b.SetID(0, 0)
		if _, err := b.Build(); err == nil {
			t.Error("want error for identifier 0")
		}
	})
	t.Run("self loop", func(t *testing.T) {
		b := graph.NewBuilder(2)
		b.AddEdge(1, 1)
		if _, err := b.Build(); err == nil {
			t.Error("want error for self loop")
		}
	})
	t.Run("out of range edge", func(t *testing.T) {
		b := graph.NewBuilder(2)
		b.AddEdge(0, 2)
		if _, err := b.Build(); err == nil {
			t.Error("want error for out-of-range endpoint")
		}
	})
	t.Run("duplicate edges coalesce", func(t *testing.T) {
		g := graph.NewBuilder(2).AddEdge(0, 1).AddEdge(1, 0).MustBuild()
		if g.M() != 1 {
			t.Errorf("M = %d, want 1", g.M())
		}
	})
}

func TestAdjacencyConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.GNP(40, 0.2, rng)
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if !g.HasEdge(u, int(v)) || !g.HasEdge(int(v), u) {
				t.Fatalf("edge (%d,%d) not symmetric", u, v)
			}
		}
		if g.HasEdge(u, u) {
			t.Fatalf("self loop at %d", u)
		}
	}
	degSum := 0
	for u := 0; u < g.N(); u++ {
		degSum += g.Degree(u)
	}
	if degSum != 2*g.M() {
		t.Errorf("degree sum %d != 2m = %d", degSum, 2*g.M())
	}
	for _, e := range g.Edges() {
		if e[0] >= e[1] {
			t.Errorf("edge %v not normalized", e)
		}
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("edge %v missing from adjacency", e)
		}
	}
}

func TestComponents(t *testing.T) {
	g := graph.DisjointPaths(4, 5)
	comps := g.Components()
	if len(comps) != 4 {
		t.Fatalf("components = %d, want 4", len(comps))
	}
	for _, c := range comps {
		if len(c) != 5 {
			t.Errorf("component size %d, want 5", len(c))
		}
	}
	if ring := graph.Ring(9); len(ring.Components()) != 1 {
		t.Error("ring should be one component")
	}
}

func TestBFSAndDiameter(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"line10", graph.Line(10), 9},
		{"ring10", graph.Ring(10), 5},
		{"ring11", graph.Ring(11), 5},
		{"clique5", graph.Clique(5), 1},
		{"star7", graph.Star(7), 2},
		{"grid3x4", graph.Grid2D(3, 4), 5},
		{"hcube4", graph.Hypercube(4), 4},
		{"wheel8", graph.WheelFk(8), 4},
		{"wheel64", graph.WheelFk(64), 4},
		{"single", graph.Line(1), 0},
	}
	for _, c := range cases {
		if got := c.g.Diameter(); got != c.want {
			t.Errorf("%s: diameter %d, want %d", c.name, got, c.want)
		}
	}
	if graph.DisjointPaths(2, 3).Diameter() != -1 {
		t.Error("disconnected graph should have diameter -1")
	}
	dist := graph.Line(6).BFS(0)
	for i, d := range dist {
		if d != i {
			t.Errorf("BFS dist[%d] = %d", i, d)
		}
	}
}

func TestWheelStructure(t *testing.T) {
	// Figure 1: hub + k spoke midpoints + k rim nodes; rim induces a cycle.
	for _, k := range []int{4, 8, 16} {
		g := graph.WheelFk(k)
		if g.N() != 2*k+1 {
			t.Fatalf("k=%d: n=%d", k, g.N())
		}
		if g.M() != 3*k {
			t.Fatalf("k=%d: m=%d, want 3k=%d", k, g.M(), 3*k)
		}
		if g.Degree(0) != k {
			t.Errorf("hub degree %d, want %d", g.Degree(0), k)
		}
		rim, _ := g.InducedSubgraph(graph.RimNodes(k))
		if rim.Diameter() != k/2 {
			t.Errorf("rim diameter %d, want %d", rim.Diameter(), k/2)
		}
		for i := 0; i < rim.N(); i++ {
			if rim.Degree(i) != 2 {
				t.Errorf("rim node degree %d, want 2", rim.Degree(i))
			}
		}
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 10, 50, 200} {
		g := graph.RandomTree(n, rng)
		if g.M() != n-1 && n > 0 {
			t.Fatalf("n=%d: m=%d, want %d", n, g.M(), n-1)
		}
		if len(g.Components()) != 1 {
			t.Fatalf("n=%d: not connected", n)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := graph.Grid2D(4, 4)
	nodes := []int{0, 1, 2, 5, 10, 15}
	sub, orig := g.InducedSubgraph(nodes)
	if sub.N() != len(nodes) {
		t.Fatalf("n = %d", sub.N())
	}
	for i := 0; i < sub.N(); i++ {
		if sub.ID(i) != g.ID(orig[i]) {
			t.Errorf("identifier not preserved at %d", i)
		}
		for j := 0; j < sub.N(); j++ {
			if i != j && sub.HasEdge(i, j) != g.HasEdge(orig[i], orig[j]) {
				t.Errorf("edge (%d,%d) mismatch", orig[i], orig[j])
			}
		}
	}
	if sub.D() != g.D() {
		t.Errorf("domain not preserved: %d vs %d", sub.D(), g.D())
	}
}

func TestShuffleIDsPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.Grid2D(5, 5)
	s := graph.ShuffleIDs(g, 100, rng)
	if s.N() != g.N() || s.M() != g.M() || s.D() != 100 {
		t.Fatalf("structure changed: n=%d m=%d d=%d", s.N(), s.M(), s.D())
	}
	seen := map[int]bool{}
	for i := 0; i < s.N(); i++ {
		id := s.ID(i)
		if id < 1 || id > 100 || seen[id] {
			t.Fatalf("bad identifier %d", id)
		}
		seen[id] = true
	}
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if g.HasEdge(u, v) != s.HasEdge(u, v) {
				t.Fatalf("edge (%d,%d) changed", u, v)
			}
		}
	}
}

func TestFlipEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Ring(20)
	// Zero flips is the identity.
	same := graph.FlipEdges(g, 0, rand.New(rand.NewSource(1)))
	if same.M() != g.M() {
		t.Errorf("0 flips changed m: %d vs %d", same.M(), g.M())
	}
	// Deterministic for a fixed seed.
	a := graph.FlipEdges(g, 10, rand.New(rand.NewSource(2)))
	b := graph.FlipEdges(g, 10, rand.New(rand.NewSource(2)))
	if a.M() != b.M() {
		t.Errorf("flip not deterministic: %d vs %d", a.M(), b.M())
	}
	// Flips change at most k edges.
	c := graph.FlipEdges(g, 5, rng)
	diff := 0
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if g.HasEdge(u, v) != c.HasEdge(u, v) {
				diff++
			}
		}
	}
	if diff > 5 {
		t.Errorf("%d edges changed, want <= 5", diff)
	}
}

func TestHypercubeAndBipartite(t *testing.T) {
	h := graph.Hypercube(5)
	if h.N() != 32 || h.M() != 32*5/2 {
		t.Errorf("Q5: n=%d m=%d", h.N(), h.M())
	}
	for i := 0; i < h.N(); i++ {
		if h.Degree(i) != 5 {
			t.Errorf("Q5 degree %d", h.Degree(i))
		}
	}
	kb := graph.CompleteBipartite(3, 4)
	if kb.N() != 7 || kb.M() != 12 {
		t.Errorf("K3,4: n=%d m=%d", kb.N(), kb.M())
	}
}

// TestQuickInducedSubgraphComponents property-checks that the component
// decomposition of random induced subgraphs partitions exactly the selected
// nodes and that every cross-component pair is non-adjacent.
func TestQuickInducedSubgraphComponents(t *testing.T) {
	f := func(seed int64, rawN uint8, pick uint16) bool {
		n := int(rawN%30) + 2
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(n, 0.15, rng)
		var nodes []int
		for i := 0; i < n; i++ {
			if pick&(1<<(uint(i)%16)) != 0 || rng.Intn(2) == 0 {
				nodes = append(nodes, i)
			}
		}
		sub, _ := g.InducedSubgraph(nodes)
		comps := sub.Components()
		seen := map[int]int{}
		total := 0
		for ci, comp := range comps {
			total += len(comp)
			for _, v := range comp {
				if _, dup := seen[v]; dup {
					return false
				}
				seen[v] = ci
			}
		}
		if total != sub.N() {
			return false
		}
		for u := 0; u < sub.N(); u++ {
			for _, v := range sub.Neighbors(u) {
				if seen[u] != seen[int(v)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBarabasiAlbert(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, m := range []int{1, 2, 3} {
		g := graph.BarabasiAlbert(100, m, rng)
		if g.N() != 100 {
			t.Fatalf("m=%d: n=%d", m, g.N())
		}
		if len(g.Components()) != 1 {
			t.Errorf("m=%d: not connected", m)
		}
		// Each arriving node contributes m edges (seed clique aside).
		wantMin := (100-m-1)*m + m*(m+1)/2 - 10 // attachment may dedup rarely
		if g.M() < wantMin/2 {
			t.Errorf("m=%d: m(edges)=%d suspiciously low", m, g.M())
		}
		// Heavy tail: some node far exceeds the mean degree.
		mean := 2 * g.M() / g.N()
		if g.MaxDegree() < 2*mean {
			t.Errorf("m=%d: max degree %d not heavy-tailed (mean %d)", m, g.MaxDegree(), mean)
		}
	}
}

func TestDisjointUnion(t *testing.T) {
	a := graph.Ring(5)
	b := graph.Star(4)
	u := graph.DisjointUnion(a, b)
	if u.N() != 9 || u.M() != a.M()+b.M() {
		t.Fatalf("n=%d m=%d", u.N(), u.M())
	}
	if len(u.Components()) != 2 {
		t.Errorf("components = %d", len(u.Components()))
	}
	seen := map[int]bool{}
	for i := 0; i < u.N(); i++ {
		if seen[u.ID(i)] {
			t.Fatalf("duplicate identifier %d", u.ID(i))
		}
		seen[u.ID(i)] = true
	}
}

func TestSmallHelpers(t *testing.T) {
	g := graph.LineWithIDs([]int{5, 2, 9})
	if g.ID(0) != 5 || g.ID(1) != 2 || g.ID(2) != 9 {
		t.Fatalf("ids: %v %v %v", g.ID(0), g.ID(1), g.ID(2))
	}
	if got := g.IDs(); len(got) != 3 || got[1] != 2 {
		t.Errorf("IDs() = %v", got)
	}
	// Node index 1 (id 2) neighbors ids 5 and 9; node index 0 (id 5) only
	// id 2, so id 9 is no neighbor of it.
	if g.NeighborByID(1, 9) != 2 || g.NeighborByID(1, 5) != 0 ||
		g.NeighborByID(0, 9) != -1 || g.NeighborByID(1, 100) != -1 {
		t.Error("NeighborByID wrong")
	}
	// Node index 1 (id 2) has neighbors with ids 5 (index 0) and 9 (index 2):
	// identifier-sorted order is [0, 2].
	nbrs := g.NeighborsByID(1)
	if len(nbrs) != 2 || nbrs[0] != 0 || nbrs[1] != 2 {
		t.Errorf("NeighborsByID = %v", nbrs)
	}
	idx := g.EdgeIndex()
	if len(idx) != 2 || idx[[2]int{0, 1}] == idx[[2]int{1, 2}] {
		t.Errorf("EdgeIndex = %v", idx)
	}
	cat := graph.Caterpillar(4, 2)
	if cat.N() != 4+8 || cat.M() != 3+8 {
		t.Errorf("caterpillar: n=%d m=%d", cat.N(), cat.M())
	}
}
