package decomp_test

import (
	"math/rand"
	"testing"

	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/mis"
	"repro/internal/runtime"
	"repro/internal/verify"
)

func runDecomp(t *testing.T, g *graph.Graph, seed int64) *runtime.Result {
	t.Helper()
	res, err := runtime.Run(runtime.Config{
		Graph:     g,
		Factory:   mis.Solo(decomp.Stage(seed)),
		MaxRounds: 200 * decomp.PhaseRounds(g.N()),
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := make([]int, g.N())
	for i, o := range res.Outputs {
		out[i] = o.(int)
	}
	if err := verify.MIS(g, out); err != nil {
		t.Fatalf("invalid MIS: %v", err)
	}
	return res
}

func TestDecompProducesMIS(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	cases := map[string]*graph.Graph{
		"single":   graph.Line(1),
		"line40":   graph.Line(40),
		"ring33":   graph.Ring(33),
		"clique12": graph.Clique(12),
		"star20":   graph.Star(20),
		"grid7x7":  graph.Grid2D(7, 7),
		"gnp80":    graph.GNP(80, 0.06, rng),
		"tree60":   graph.RandomTree(60, rng),
		"paths":    graph.DisjointPaths(5, 9),
		"shuffled": graph.ShuffleIDs(graph.Grid2D(6, 6), 360, rng),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			runDecomp(t, g, 3)
		})
	}
}

func TestDecompDeterministicPerSeed(t *testing.T) {
	g := graph.GNP(50, 0.1, rand.New(rand.NewSource(52)))
	a := runDecomp(t, g, 9)
	b := runDecomp(t, g, 9)
	if a.Rounds != b.Rounds || a.Messages != b.Messages {
		t.Fatalf("same seed differs: %d/%d vs %d/%d", a.Rounds, a.Messages, b.Rounds, b.Messages)
	}
	for i := range a.Outputs {
		if a.Outputs[i] != b.Outputs[i] {
			t.Fatalf("output %d differs", i)
		}
	}
}

func TestDecompPhaseStructure(t *testing.T) {
	// Rounds are always a multiple of the phase length... more precisely,
	// every node terminates inside an output segment, so the total round
	// count modulo PhaseRounds(n) lands in the two final output rounds.
	g := graph.GNP(60, 0.08, rand.New(rand.NewSource(53)))
	res := runDecomp(t, g, 4)
	p := decomp.PhaseRounds(g.N())
	within := (res.Rounds-1)%p + 1
	l := decomp.DelayLimit(g.N())
	if within != 3*l+7 && within != 3*l+8 {
		t.Errorf("finished at in-phase round %d, want one of the output rounds %d/%d",
			within, 3*l+7, 3*l+8)
	}
	// Empirical geometric decay: the run should finish well under the
	// declared bound.
	if res.Rounds > decomp.Bound(runtimeInfo(g)) {
		t.Errorf("rounds %d exceed the declared bound %d", res.Rounds, decomp.Bound(runtimeInfo(g)))
	}
}

func runtimeInfo(g *graph.Graph) runtime.NodeInfo {
	return runtime.NodeInfo{N: g.N(), D: g.D(), Delta: g.MaxDegree()}
}

func TestDecompExtendableAtPhaseBoundaries(t *testing.T) {
	// At the end of every phase the partial solution must be extendable
	// (winning clusters' outputs plus the built-in clean-up).
	g := graph.GNP(48, 0.1, rand.New(rand.NewSource(54)))
	p := decomp.PhaseRounds(g.N())
	res, err := runtime.Run(runtime.Config{
		Graph:     g,
		Factory:   mis.Solo(decomp.Stage(5)),
		MaxRounds: 200 * p,
	})
	if err != nil {
		t.Fatal(err)
	}
	snapshots := make(map[int][]int)
	for round := p; round <= res.Rounds; round += p {
		snapshots[round] = settledAt(res, round)
	}
	if len(snapshots) == 0 {
		t.Fatal("no phase boundaries observed")
	}
	for round, snap := range snapshots {
		if err := verify.MISPartialExtendable(g, snap); err != nil {
			t.Errorf("round %d: %v", round, err)
		}
	}
}

func TestScheduleAndBounds(t *testing.T) {
	for _, n := range []int{1, 2, 10, 100, 1000} {
		l := decomp.DelayLimit(n)
		if l%2 != 0 {
			t.Errorf("n=%d: DelayLimit %d must be even", n, l)
		}
		p := decomp.PhaseRounds(n)
		if p != 3*(l+2)+2 {
			t.Errorf("n=%d: PhaseRounds %d != 3(L+2)+2", n, p)
		}
		if p%2 != 0 {
			t.Errorf("n=%d: PhaseRounds %d must be even (Greedy lane boundaries)", n, p)
		}
		info := runtime.NodeInfo{N: n}
		sched := decomp.Schedule(info)
		if len(sched) != decomp.Phases(n) {
			t.Errorf("n=%d: schedule length %d", n, len(sched))
		}
		total := 0
		for _, r := range sched {
			if r != p {
				t.Errorf("n=%d: slice %d != PhaseRounds", n, r)
			}
			total += r
		}
		if total != decomp.Bound(info) {
			t.Errorf("n=%d: bound mismatch", n)
		}
	}
}

// settledAt is a completed run's partial output vector at the end of round
// r: node i holds its int output iff it terminated by then
// (0 < TerminatedAt[i] <= r), and is Undecided otherwise.
func settledAt(res *runtime.Result, r int) []int {
	partial := make([]int, len(res.Outputs))
	for i, at := range res.TerminatedAt {
		partial[i] = verify.Undecided
		if v, ok := res.Outputs[i].(int); ok && at > 0 && at <= r {
			partial[i] = v
		}
	}
	return partial
}
