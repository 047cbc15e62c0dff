package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mis"
	"repro/internal/predict"
	"repro/internal/runtime"
)

// takeRun calls Take for every node of an n-node run in index order, with
// node i asking for i%4 elements, and returns what it got.
func takeRun(s *core.NodeSlab[int, int], n int) ([]*int, [][]int) {
	nodes, bufs := make([]*int, n), make([][]int, n)
	for i := range n {
		nodes[i], bufs[i] = s.Take(runtime.NodeInfo{Index: i, N: n}, i%4)
	}
	return nodes, bufs
}

func TestNodeSlabCarvesDisjointZeroedStorage(t *testing.T) {
	var s core.NodeSlab[int, int]
	const n = 2000 // several pool chunks
	nodes, bufs := takeRun(&s, n)
	for i := range n {
		if *nodes[i] != 0 || len(bufs[i]) != i%4 || cap(bufs[i]) != i%4 {
			t.Fatalf("node %d: value %d, buf len %d cap %d; want zeroed, %d elements", i, *nodes[i], len(bufs[i]), cap(bufs[i]), i%4)
		}
		*nodes[i] = i + 1
		for k := range bufs[i] {
			if bufs[i][k] != 0 {
				t.Fatalf("node %d: buf not zeroed", i)
			}
			bufs[i][k] = i + 1
		}
	}
	for i := range n {
		if *nodes[i] != i+1 {
			t.Fatalf("node %d: value overwritten with %d", i, *nodes[i])
		}
		for _, v := range bufs[i] {
			if v != i+1 {
				t.Fatalf("node %d: buf overlaps node %d's", i, v-1)
			}
		}
	}
	// The next run gets fresh storage: the first run's machines still own
	// theirs.
	again, _ := takeRun(&s, n)
	for i := range n {
		if again[i] == nodes[i] || *nodes[i] != i+1 {
			t.Fatalf("node %d: second run reused the first run's slab", i)
		}
	}
}

func TestNodeSlabFallsBackOutsideTheRunPattern(t *testing.T) {
	var s core.NodeSlab[int, int]
	// A lone call for a middle node, and one repeating an index, get their
	// own allocations and leave nothing shared behind.
	a, abuf := s.Take(runtime.NodeInfo{Index: 3, N: 5}, 2)
	s.Take(runtime.NodeInfo{Index: 0, N: 5}, 2)
	b, _ := s.Take(runtime.NodeInfo{Index: 0, N: 5}, 2)
	c, _ := s.Take(runtime.NodeInfo{Index: 2, N: 5}, 2)
	if a == b || b == c || len(abuf) != 2 {
		t.Fatalf("fallback storage aliased: %p %p %p", a, b, c)
	}
}

func TestNodeSlabAllocsPerRun(t *testing.T) {
	var s core.NodeSlab[[4]int, int]
	const n = 4096
	allocs := testing.AllocsPerRun(5, func() {
		for i := range n {
			s.Take(runtime.NodeInfo{Index: i, N: n}, 3)
		}
	})
	// One node array plus 3n/(n/4) = 12 pool chunks.
	if allocs > 16 {
		t.Fatalf("%v allocations for a %d-node run, want at most 16", allocs, n)
	}
}

// TestConsecutiveFactoryReuse runs one Consecutive factory value on graphs
// whose measure-uniform budgets (λ·n) differ, and on the first graph again:
// each run must equal a run through a fresh factory, so the shared stage
// list is rebuilt when the budget changes. On the ring every prediction is
// 0, so Greedy does all the work and its budget decides the rounds.
func TestConsecutiveFactoryReuse(t *testing.T) {
	ba := graph.BarabasiAlbert(400, 2, rand.New(rand.NewSource(3)))
	ring := graph.Ring(40)
	runs := []struct {
		g     *graph.Graph
		preds []int
	}{
		{ba, predict.FlipBits(predict.PerfectMIS(ba), 40, rand.New(rand.NewSource(4)))},
		{ring, make([]int, ring.N())},
		{ba, predict.FlipBits(predict.PerfectMIS(ba), 40, rand.New(rand.NewSource(4)))},
	}
	build := func() runtime.Factory { return mis.ConsecutiveTradeoff(0.05, 11) }
	shared := build()
	for i, r := range runs {
		run := func(f runtime.Factory) *runtime.Result {
			res, err := runtime.Run(runtime.Config{Graph: r.g, Factory: f, Predictions: anyInts(r.preds), MaxRounds: 64 * r.g.N()})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		got, want := run(shared), run(build())
		if !reflect.DeepEqual(got.Outputs, want.Outputs) || got.Rounds != want.Rounds || got.Messages != want.Messages {
			t.Fatalf("run %d (n=%d): reused factory gave %d rounds %d msgs, fresh %d rounds %d msgs",
				i, r.g.N(), got.Rounds, got.Messages, want.Rounds, want.Messages)
		}
	}
}

func anyInts(xs []int) []any {
	out := make([]any, len(xs))
	for i, x := range xs {
		out[i] = x
	}
	return out
}
