package core_test

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// collectExtra is the Extra of node id's row in TestCollectRows: id%3
// values, so rows carry zero, one or two extras.
func collectExtra(id int) []int {
	var out []int
	for k := range id % 3 {
		out = append(out, 100*id+k)
	}
	return out
}

// TestCollectRows runs a lone Collect stage on two components with
// unsorted identifiers. After n+1 rounds every node's Finish hook must see
// exactly its own component's rows, sorted by ID, extras intact, and every
// round must deliver the bits the 32·(1+len(Nbrs)+len(Extra)) rule gives
// for the rows at that hop distance (plus the 8-bit stage header).
func TestCollectRows(t *testing.T) {
	// Component A: the path 7-2-9-4. Component B: the triangle 5-1-8 with
	// 3 pendant on 8.
	ids := []int{7, 2, 9, 4, 5, 1, 8, 3}
	b := graph.NewBuilder(len(ids))
	b.SetDomain(10)
	for i, id := range ids {
		b.SetID(i, id)
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 4}, {6, 7}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.MustBuild()
	n := g.N()

	got := make([][]core.Row, n)
	stage := core.Collect("test/collect", core.CollectHooks{
		Nbrs:  func(c *core.StageCtx) []int { return c.Info().NeighborIDs },
		Extra: func(c *core.StageCtx) []int { return collectExtra(c.ID()) },
		Finish: func(c *core.StageCtx, rows []core.Row) {
			got[c.Info().Index] = append([]core.Row(nil), rows...)
			c.Output(0)
		},
	})
	var bits []int
	res, err := runtime.Run(runtime.Config{
		Graph:   g,
		Factory: core.Sequence(func(runtime.NodeInfo, any) any { return nil }, stage),
		Stats:   func(s runtime.RoundStats) { bits = append(bits, s.Bits) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != core.CollectBound(runtime.NodeInfo{N: n}) {
		t.Fatalf("rounds = %d, want n+1 = %d", res.Rounds, n+1)
	}

	// Each node's row as it floods it, and hop distances.
	rowOf := make([]core.Row, n)
	for v := range n {
		var nbrs []int
		for _, u := range g.NeighborsByID(v) {
			nbrs = append(nbrs, g.ID(u))
		}
		rowOf[v] = core.Row{ID: g.ID(v), Nbrs: nbrs, Extra: collectExtra(g.ID(v))}
	}
	dist := make([][]int, n)
	for v := range n {
		dist[v] = g.BFS(v)
	}

	for v := range n {
		var want []core.Row
		for u := range n {
			if dist[v][u] >= 0 {
				want = append(want, rowOf[u])
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
		if !reflect.DeepEqual(got[v], want) {
			t.Errorf("node %d learned %v, want %v", g.ID(v), got[v], want)
		}
	}

	// In round r a node forwards the rows at distance r-1 to each neighbor.
	wantBits := make([]int, n+1)
	for r := 1; r <= n; r++ {
		for v := range n {
			batch := 0
			for u := range n {
				if dist[v][u] == r-1 {
					batch += 32 * (1 + len(rowOf[u].Nbrs) + len(rowOf[u].Extra))
				}
			}
			if batch > 0 {
				wantBits[r-1] += g.Degree(v) * (8 + batch)
			}
		}
	}
	if !reflect.DeepEqual(bits, wantBits) {
		t.Errorf("per-round bits = %v, want %v", bits, wantBits)
	}
}
