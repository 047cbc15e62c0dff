package repro_test

import (
	"runtime"
	"testing"

	"repro"
)

// TestTemplateAllocBudget is the whole-run allocation guard of the template
// layer: a Simple Template solve through RunProblem must not allocate per
// node. The template layer carves its per-node machines, memories,
// neighbor tables and broadcast masks from per-run slabs, so the
// allocations of a run stay flat from n = 2,000 to n = 16,000, up to a
// small absolute slack for the engine's own buffers.
//
// Matching still boxes one int per partner identifier of 256 or more: each
// encoded prediction (problem.EncodeInts) and each matched node's output.
// Those boxes are counted exactly and taken off before the comparison, so
// any other per-node allocation still shows.
//
// The bytes are pinned too. The one-shard mis solve on BarabasiAlbert(16000,
// 3) may allocate at most misBytesPerNode per node: its stages send through
// the engine's broadcast path, with no per-node outbox and so no
// destination slab, each Env keeps no NodeInfo copy and no run-wide field,
// and each template machine keeps one copy of each of its fields. The same
// solve on a 10^5-node ring is pinned at misRingBytesPerNode. A sharded run uses the same frontier lists, inbox arena
// and worker set, so the same solve on two shards may allocate at most 1.08
// times its bytes. That gap is the counting pass's within stream (one slot
// cursor per delivery, sized once per run) and the per-shard ledgers.
func TestTemplateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement; skipped with -short")
	}
	const slack = 64
	for _, c := range []struct {
		problem string
		graph   func(n int) *repro.Graph
	}{
		{"mis", func(n int) *repro.Graph { return repro.BarabasiAlbert(n, 3, repro.NewRand(1)) }},
		{"matching", repro.Ring},
	} {
		var base float64
		for _, n := range []int{2000, 16000} {
			g := c.graph(n)
			preds, err := repro.GeneratePreds(c.problem, g, n/10, 2)
			if err != nil {
				t.Fatal(err)
			}
			var res *repro.ProblemResult
			allocs := testing.AllocsPerRun(3, func() {
				if res, err = repro.RunProblem(g, c.problem, "simple", preds, repro.Options{}); err != nil {
					t.Fatal(err)
				}
			})
			boxed := boxedInts(preds.([]int)) + boxedInts(res.Output)
			perRun := allocs - float64(boxed)
			t.Logf("%s n=%d: %.0f allocs/run, %d of them boxed ints", c.problem, n, allocs, boxed)
			if n == 2000 {
				base = perRun
			} else if perRun > base+slack {
				t.Errorf("%s: %.0f allocs/run at n=%d against %.0f at n=2000 (boxed ints excluded): the template layer allocates per node",
					c.problem, perRun, n, base)
			}
		}
	}

	g := repro.BarabasiAlbert(16000, 3, repro.NewRand(1))
	preds, err := repro.GeneratePreds("mis", g, 1600, 2)
	if err != nil {
		t.Fatal(err)
	}
	solveBytes := func(opts repro.Options) float64 {
		return bytesPerRun(3, func() {
			if _, err := repro.RunProblem(g, "mis", "simple", preds, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, two := solveBytes(repro.Options{}), solveBytes(repro.Options{Shards: 2})
	t.Logf("mis BA n=16000: %.1f MB/run (%.0f B/node) on one shard, %.1f MB/run on two (%.2fx)",
		one/1e6, one/float64(g.N()), two/1e6, two/one)
	if perNode := one / float64(g.N()); perNode > misBytesPerNode {
		t.Errorf("mis BA n=16000: %.0f B/node on one shard, over the %d B/node bound", perNode, misBytesPerNode)
	}
	if two > 1.08*one {
		t.Errorf("mis BA n=16000: two shards allocate %.1f MB/run against %.1f MB/run on one (%.2fx > 1.08x)",
			two/1e6, one/1e6, two/one)
	}

	// The ring has no degree skew: its bytes are the per-node state alone
	// (Env, machine, memory, frontier and inbox columns) plus one arena
	// slot per directed edge.
	ring := repro.Ring(100000)
	rpreds, err := repro.GeneratePreds("mis", ring, 10000, 2)
	if err != nil {
		t.Fatal(err)
	}
	ringBytes := bytesPerRun(3, func() {
		if _, err := repro.RunProblem(ring, "mis", "simple", rpreds, repro.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("mis ring n=100000: %.1f MB/run (%.0f B/node)", ringBytes/1e6, ringBytes/float64(ring.N()))
	if perNode := ringBytes / float64(ring.N()); perNode > misRingBytesPerNode {
		t.Errorf("mis ring n=100000: %.0f B/node, over the %d B/node bound", perNode, misRingBytesPerNode)
	}

	// Allocations per node of variants whose machines keep reusable
	// per-node buffers instead of a fresh slice per round:
	//   - vcolor greedy decides which neighbors are still active from its
	//     neighbor table, so what remains per node is its memory, tables and
	//     the palette scan at its one output;
	//   - mis uniform reuses one buffer for the participating neighbors it
	//     sends to and the colors it hears, and counts the Linial schedule
	//     without building it;
	//   - vcolor standalone collects the colors it heard only in a reduction
	//     step or when its color is the round's target; boxing the colors it
	//     broadcasts is most of what remains.
	small := repro.BarabasiAlbert(2000, 3, repro.NewRand(1))
	for _, c := range []struct {
		problem, alg string
		g            *repro.Graph
		flips        int
		seed         int64
		bound        float64
	}{
		{"vcolor", "greedy", g, 1600, 2, vcolorGreedyAllocsPerNode},
		{"mis", "uniform", small, 200, 1, misUniformAllocsPerNode},
		{"vcolor", "standalone", small, 200, 1, vcolorStandaloneAllocsPerNode},
	} {
		preds, err := repro.GeneratePreds(c.problem, c.g, c.flips, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := repro.RunProblem(c.g, c.problem, c.alg, preds, repro.Options{}); err != nil {
				t.Fatal(err)
			}
		})
		perNode := allocs / float64(c.g.N())
		t.Logf("%s %s BA n=%d: %.0f allocs/run (%.2f/node)", c.problem, c.alg, c.g.N(), allocs, perNode)
		if perNode > c.bound {
			t.Errorf("%s %s BA n=%d: %.2f allocs/node, over the %g bound", c.problem, c.alg, c.g.N(), perNode, c.bound)
		}
	}
}

// vcolorGreedyAllocsPerNode bounds vcolor greedy's allocations per node:
// about 5.0 measured. A per-round slice of active neighbors puts it at about
// 8.2.
const vcolorGreedyAllocsPerNode = 5.5

// misUniformAllocsPerNode bounds mis uniform's allocations per node: about
// 1.7 measured. Fresh per-round slices and a Linial schedule built on every
// Send and Receive put it at about 35.
const misUniformAllocsPerNode = 3

// vcolorStandaloneAllocsPerNode bounds vcolor standalone's allocations per
// node: about 770 measured, nearly all of them boxed colors. A fresh slice
// of heard colors on every node in every round puts it at about 2580.
const vcolorStandaloneAllocsPerNode = 900

// misBytesPerNode bounds the one-shard mis solve's allocation per node: about
// 860 B/node measured, with 7% headroom. A destination slab made for a run
// that never returns a []Out, run-wide fields copied into every Env and
// duplicated fields in every template machine put it at about 1030 B/node.
const misBytesPerNode = 920

// misRingBytesPerNode bounds the one-shard mis solve's allocation per node
// on a 10^5-node ring: about 630 B/node measured, with 8% headroom. The
// state that misBytesPerNode's comment names puts it at about 750 B/node.
const misRingBytesPerNode = 680

// bytesPerRun reports the heap bytes f allocates per call, averaged over
// runs calls after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// boxedInts counts the values Go boxes on the heap when converting them to
// an interface: every int outside [0, 256).
func boxedInts(xs []int) int {
	k := 0
	for _, x := range xs {
		if x < 0 || x >= 256 {
			k++
		}
	}
	return k
}
