package runtime_test

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
)

// FuzzAdversaryParity is the native-fuzz form of the randomized
// chaos/adversary parity tests: for any topology, fault policy, and machine
// flavor the fuzzer can derive from its inputs, the sequential and parallel
// engines must inject the identical fault sequence and produce
// byte-for-byte identical results — including identical error surfaces when
// fragile machines reject corrupted payloads.
//
// shape packs the topology and machine parameters byte by byte; rates packs
// the five fault probabilities. Deriving everything from integers keeps the
// corpus encoding trivial (testdata/fuzz/FuzzAdversaryParity).
func FuzzAdversaryParity(f *testing.F) {
	f.Add(int64(1), uint64(12|70<<8|3<<16), uint64(0x30_30_30_30_30), true)
	f.Add(int64(99), uint64(11|20<<8|4<<16), uint64(0x00_00_00_20_30), false)
	f.Add(int64(1234), uint64(45|90<<8|1<<16), uint64(0x15_15_15_15_15), true)
	f.Add(int64(-7), uint64(2|5<<8|2<<16), uint64(0x00_60_00_00_00), false)
	// Large-scale vector (bit 24 of shape): a 100k-node sparse ring, the
	// scale regime where the columnar engine's frontier compaction, crash
	// scheduling, and inbox slab reuse actually kick in.
	f.Add(int64(42), uint64(2<<16|1<<24), uint64(0x08_00_10_10_10), false)
	f.Fuzz(func(t *testing.T, seed int64, shape, rates uint64, fragile bool) {
		nodes := 2 + int(shape%50)
		p := 0.05 + float64((shape>>8)%100)/100*0.4
		limit := 1 + int((shape>>16)%5)
		largeScale := (shape>>24)&1 == 1
		if largeScale {
			nodes = 100_000
		}
		frac := func(b int) float64 { return float64((rates>>b)&0xff) / 255 }
		policy := fault.Policy{
			Seed:      seed,
			Drop:      frac(0) * 0.4,
			Duplicate: frac(8) * 0.4,
			Corrupt:   frac(16) * 0.4,
			LinkFail:  frac(24) * 0.25,
			Crash:     frac(32) * 0.25,
		}
		var g *graph.Graph
		if largeScale {
			// Dense GNP is quadratic; the large mode keeps the edge count
			// linear so a fuzz exec stays sub-second at 100k nodes.
			g = graph.Ring(nodes)
		} else {
			g = graph.GNP(nodes, p, rand.New(rand.NewSource(seed)))
		}
		factory := echoFactory(limit)
		if fragile {
			factory = func(info runtime.NodeInfo, pred any) runtime.Machine {
				return &fragileMachine{echoMachine{limit: limit}}
			}
		}
		run := func(parallel bool) (*runtime.Result, error, fault.Stats) {
			chaos := fault.New(policy)
			res, err := runtime.Run(runtime.Config{
				Graph:     g,
				Factory:   factory,
				Parallel:  parallel,
				Adversary: chaos,
			})
			return res, err, chaos.Stats()
		}
		seq, seqErr, seqStats := run(false)
		par, parErr, parStats := run(true)
		if seqStats != parStats {
			t.Fatalf("fault sequences differ across modes: %+v vs %+v", seqStats, parStats)
		}
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("error surfaces differ: %v vs %v", seqErr, parErr)
		}
		if seqErr != nil && seqErr.Error() != parErr.Error() {
			t.Fatalf("errors differ:\n  seq: %v\n  par: %v", seqErr, parErr)
		}
		assertSameResult(t, "pool vs seq", par, seq)
		if seqErr == nil && (seq.Messages != par.Messages || seq.MaxMsgBits != par.MaxMsgBits) {
			t.Fatalf("engines disagree: %+v vs %+v", seq, par)
		}
	})
}
