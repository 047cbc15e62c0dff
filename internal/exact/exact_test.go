package exact_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/verify"
)

func TestAlphaKnownValues(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"empty", graph.NewBuilder(0).MustBuild(), 0},
		{"single", graph.Line(1), 1},
		{"line2", graph.Line(2), 1},
		{"line5", graph.Line(5), 3},
		{"line10", graph.Line(10), 5},
		{"ring6", graph.Ring(6), 3},
		{"ring7", graph.Ring(7), 3},
		{"clique8", graph.Clique(8), 1},
		{"star9", graph.Star(9), 8},
		{"grid4x4", graph.Grid2D(4, 4), 8},
		{"grid5x5", graph.Grid2D(5, 5), 13},
		{"k34", graph.CompleteBipartite(3, 4), 4},
		{"hcube3", graph.Hypercube(3), 4},
		{"paths3x4", graph.DisjointPaths(3, 4), 6},
	}
	for _, c := range cases {
		got, err := exact.Alpha(c.g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: alpha = %d, want %d", c.name, got, c.want)
		}
		tau, err := exact.Tau(c.g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if tau != c.g.N()-c.want {
			t.Errorf("%s: tau = %d, want %d", c.name, tau, c.g.N()-c.want)
		}
	}
}

func TestMu2KnownValues(t *testing.T) {
	// Clique: alpha=1 -> mu2=2. Star K1,8: tau=1 -> mu2=2. Ring6: min(3,3)=3 -> 6.
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"clique9", graph.Clique(9), 2},
		{"star9", graph.Star(9), 2},
		{"ring6", graph.Ring(6), 6},
		{"line4", graph.Line(4), 4},
	}
	for _, c := range cases {
		got, err := exact.Mu2(c.g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: mu2 = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestQuickAlphaAgainstBruteForce cross-checks the branch-and-bound against
// exhaustive enumeration on small random graphs.
func TestQuickAlphaAgainstBruteForce(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%12) + 1
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(n, 0.3, rng)
		want := bruteForceAlpha(g)
		got, err := exact.Alpha(g)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func bruteForceAlpha(g *graph.Graph) int {
	n := g.N()
	best := 0
	for set := 0; set < 1<<uint(n); set++ {
		ok := true
		size := 0
		for u := 0; u < n && ok; u++ {
			if set&(1<<uint(u)) == 0 {
				continue
			}
			size++
			for _, v := range g.Neighbors(u) {
				if set&(1<<uint(v)) != 0 {
					ok = false
					break
				}
			}
		}
		if ok && size > best {
			best = size
		}
	}
	return best
}

func TestGreedyMISByIDValid(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	graphs := []*graph.Graph{
		graph.Line(17), graph.Ring(12), graph.Clique(7), graph.Star(9),
		graph.Grid2D(5, 6), graph.GNP(40, 0.15, rng),
		graph.ShuffleIDs(graph.Grid2D(4, 4), 64, rng),
	}
	for i, g := range graphs {
		out := exact.GreedyMISByID(g)
		if err := verify.MIS(g, out); err != nil {
			t.Errorf("graph %d: %v", i, err)
		}
	}
}

func TestGreedyMatchingByIDValid(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	graphs := []*graph.Graph{
		graph.Line(17), graph.Ring(12), graph.Clique(7), graph.Star(9),
		graph.GNP(30, 0.2, rng),
	}
	for i, g := range graphs {
		out := exact.GreedyMatchingByID(g)
		if err := verify.Matching(g, out); err != nil {
			t.Errorf("graph %d: %v", i, err)
		}
	}
}

func TestMinHammingToMIS(t *testing.T) {
	// A perfect MIS prediction has distance 0.
	g := graph.Ring(8)
	mis := exact.GreedyMISByID(g)
	if d, err := exact.MinHammingToMIS(g, mis); err != nil || d != 0 {
		t.Errorf("perfect prediction: d=%d err=%v", d, err)
	}
	// All-ones on a triangle: closest MIS has one node -> distance 2.
	tri := graph.Ring(3)
	if d, err := exact.MinHammingToMIS(tri, []int{1, 1, 1}); err != nil || d != 2 {
		t.Errorf("triangle all-ones: d=%d err=%v", d, err)
	}
	// All-zeros on a single node: must flip it -> distance 1.
	single := graph.Line(1)
	if d, err := exact.MinHammingToMIS(single, []int{0}); err != nil || d != 1 {
		t.Errorf("single all-zeros: d=%d err=%v", d, err)
	}
	// Size guard.
	if _, err := exact.MinHammingToMIS(graph.Line(40), make([]int, 40)); err == nil {
		t.Error("want ErrTooLarge for n=40")
	}
}

// TestQuickHammingUpperBound: flipping k bits of a valid MIS moves at most
// distance k from some MIS.
func TestQuickHammingUpperBound(t *testing.T) {
	f := func(seed int64, rawN, rawK uint8) bool {
		n := int(rawN%14) + 2
		k := int(rawK) % n
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(n, 0.25, rng)
		base := exact.GreedyMISByID(g)
		pred := make([]int, n)
		copy(pred, base)
		for _, i := range rng.Perm(n)[:k] {
			pred[i] ^= 1
		}
		d, err := exact.MinHammingToMIS(g, pred)
		return err == nil && d <= k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
