package core_test

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mis"
	"repro/internal/predict"
	"repro/internal/runtime"
	"repro/internal/tree"
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

// TestTemplatesShareStageList: every node of a run gets the same stage
// list, so a Consecutive-based factory builds it once per run rather than
// once per node — including the rooted-tree coloring, whose reference
// stages are sized by D.
func TestTemplatesShareStageList(t *testing.T) {
	g := graph.Line(6)
	for _, tc := range []struct {
		name    string
		factory runtime.Factory
	}{
		{"tree/consecutive", tree.ConsecutiveColoring(tree.RootAt(g, 0))},
		{"tree/parallel", tree.ParallelColoring(tree.RootAt(g, 0))},
		{"mis/parallel", mis.ParallelColoring()},
		{"mis/interleaved", mis.InterleavedDecomp(1)},
	} {
		var first []core.Stage
		for i := range g.N() {
			info := runtime.NodeInfo{Index: i, ID: g.ID(i), NeighborIDs: g.NeighborsByID(i), N: g.N(), D: g.D(), Delta: g.MaxDegree()}
			stages := core.MachineStages(tc.factory(info, 0))
			if i == 0 {
				first = stages
			} else if len(stages) != len(first) || &stages[0] != &first[0] {
				t.Errorf("%s: node %d has its own stage list", tc.name, i)
				break
			}
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

// TestSeqMachineSize pins the per-node Sequence machine, the largest
// element of a template run's machine slab: it keeps each fact once (the
// memory and the stage index live in its StageCtx) and points to its
// factory's shared stage list.
func TestSeqMachineSize(t *testing.T) {
	if got := unsafe.Sizeof(core.SeqMachine{}); got > 128 {
		t.Errorf("seqMachine is %d bytes; want at most 128", got)
	}
}
