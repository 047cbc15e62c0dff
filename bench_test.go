package repro_test

import (
	"io"
	"testing"

	"repro"
	"repro/internal/bench"
)

// One testing.B benchmark per experiment table: each regenerates the
// experiment (instances, sweeps, bound checks) end to end. The rendered
// tables go to EXPERIMENTS.md via cmd/dgp-bench; here they are discarded.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e := bench.Find(id)
	if e == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, t := range e.Run() {
			t.Render(io.Discard)
		}
	}
}

func BenchmarkE1GreedyMIS(b *testing.B)           { benchExperiment(b, "E1") }
func BenchmarkE2SimpleTemplate(b *testing.B)      { benchExperiment(b, "E2") }
func BenchmarkE3ConsecutiveTemplate(b *testing.B) { benchExperiment(b, "E3") }
func BenchmarkE4InterleavedTemplate(b *testing.B) { benchExperiment(b, "E4") }
func BenchmarkE5ParallelTemplate(b *testing.B)    { benchExperiment(b, "E5") }
func BenchmarkE6WheelDiameter(b *testing.B)       { benchExperiment(b, "E6") }
func BenchmarkE7GridBlackWhite(b *testing.B)      { benchExperiment(b, "E7") }
func BenchmarkE8RootedTree(b *testing.B)          { benchExperiment(b, "E8") }
func BenchmarkE9LubyComponents(b *testing.B)      { benchExperiment(b, "E9") }
func BenchmarkE10ErrorMeasures(b *testing.B)      { benchExperiment(b, "E10") }
func BenchmarkE11LineLowerBounds(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12Matching(b *testing.B)           { benchExperiment(b, "E12") }
func BenchmarkE13VertexColoring(b *testing.B)     { benchExperiment(b, "E13") }
func BenchmarkE14EdgeColoring(b *testing.B)       { benchExperiment(b, "E14") }
func BenchmarkE15NetworkChurn(b *testing.B)       { benchExperiment(b, "E15") }
func BenchmarkE16EngineParity(b *testing.B)       { benchExperiment(b, "E16") }
func BenchmarkE17UniformReference(b *testing.B)   { benchExperiment(b, "E17") }
func BenchmarkE18Tradeoff(b *testing.B)           { benchExperiment(b, "E18") }
func BenchmarkE19MessageComplexity(b *testing.B)  { benchExperiment(b, "E19") }
func BenchmarkE20GlobalVsLocal(b *testing.B)      { benchExperiment(b, "E20") }
func BenchmarkE21ActiveDecay(b *testing.B)        { benchExperiment(b, "E21") }
func BenchmarkE22CheckingCost(b *testing.B)       { benchExperiment(b, "E22") }

// Micro-benchmarks of the core algorithms themselves, for engine and
// algorithm performance tracking (rounds are fixed by determinism; this
// measures simulator throughput).

func benchMIS(b *testing.B, n int, alg string, flips int, parallel bool) {
	b.Helper()
	g := repro.GNP(n, 8.0/float64(n), repro.NewRand(1))
	preds := repro.FlipBits(repro.PerfectMIS(g), flips, repro.NewRand(2))
	opts := repro.Options{Seed: 3, Parallel: parallel}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.RunProblem(g, "mis", alg, preds, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineSimple1k(b *testing.B)    { benchMIS(b, 1000, "simple", 50, false) }
func BenchmarkEngineSimple1kPar(b *testing.B) { benchMIS(b, 1000, "simple", 50, true) }
func BenchmarkEngineParallelTemplate1k(b *testing.B) {
	benchMIS(b, 1000, "parallel", 50, false)
}
func BenchmarkEngineGreedy4k(b *testing.B) { benchMIS(b, 4000, "greedy", 0, false) }

// Engine throughput through the public API: greedy MIS on a shuffled-ID
// 4096-node ring (O(log n) expected rounds), both engine modes. The
// engine-only counterpart with a zero-alloc workload is
// BenchmarkEngineThroughput in internal/runtime.
func benchEngineRing(b *testing.B, parallel bool) {
	b.Helper()
	const n = 4096
	g := repro.ShuffleIDs(repro.Ring(n), n, repro.NewRand(7))
	opts := repro.Options{Parallel: parallel}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.RunProblem(g, "mis", "greedy", nil, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineThroughputRing4k(b *testing.B)    { benchEngineRing(b, false) }
func BenchmarkEngineThroughputRing4kPar(b *testing.B) { benchEngineRing(b, true) }
