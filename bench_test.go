package repro_test

import (
	"io"
	"testing"

	"repro"
	"repro/internal/bench"
)

// BenchmarkExperiments regenerates each paper experiment (instances,
// sweeps, bound checks) end to end, one sub-benchmark per id:
// BenchmarkExperiments/E1 ... /E22. The rendered tables go to
// EXPERIMENTS.md via cmd/dgp-bench; here they are discarded.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.Registry() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tables, _, err := e.Run(bench.Params{})
				if err != nil {
					b.Fatal(err)
				}
				for _, t := range tables {
					t.Render(io.Discard)
				}
			}
		})
	}
}

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
