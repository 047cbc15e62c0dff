package runtime_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// ringBench is a minimal steady-state workload: every node broadcasts a
// fixed sized payload to its neighbors for a set number of rounds, then
// outputs how many messages it heard. The machine itself allocates nothing
// per round (the outbox slice and the boxed payload are built once), so
// benchmark and allocation numbers measure the engine, not the workload.
type ringBench struct {
	rounds  int
	batched bool
	payload any
	outs    []runtime.Out
	heard   int
}

type ringPayload struct{}

func (ringPayload) Bits() int { return 8 }

func ringBenchFactory(rounds int, batched bool) runtime.Factory {
	payload := any(ringPayload{})
	return func(info runtime.NodeInfo, pred any) runtime.Machine {
		m := &ringBench{rounds: rounds, batched: batched, payload: payload}
		if !batched {
			m.outs = make([]runtime.Out, len(info.NeighborIDs))
			for i, nb := range info.NeighborIDs {
				m.outs[i] = runtime.Out{To: nb, Payload: payload}
			}
		}
		return m
	}
}

func (m *ringBench) Send(env *runtime.Env) []runtime.Out {
	if env.Round() > m.rounds {
		// Keep the output below 256 so boxing it hits Go's static
		// small-value cache: longer runs must not allocate more than short
		// ones for workload reasons, or the alloc guard measures the
		// workload instead of the engine.
		env.Output(m.heard & 0xff)
		env.Terminate()
		return nil
	}
	if m.batched {
		env.Broadcast(m.payload)
		return nil
	}
	return m.outs
}

func (m *ringBench) Receive(env *runtime.Env, inbox []runtime.Msg) {
	m.heard += len(inbox)
}

// templBench is the ring workload as an MIS-style stage under
// core.Simple: each stage round it broadcasts the pre-boxed payload as one
// tagged batch on the engine's broadcast path (StageCtx.Broadcast) and
// counts its inbox; after rounds stage rounds the budget hands the node to
// a one-round stage that outputs. Allocation figures thus measure the
// template layer (tagged batches, inbox checks) on top of the engine.
type templBench struct {
	payload any
	heard   *int
}

func (m *templBench) Send(c *core.StageCtx) []runtime.Out { return c.Broadcast(m.payload) }

func (m *templBench) Receive(c *core.StageCtx, inbox []runtime.Msg) { *m.heard += len(inbox) }

type templOutput struct{ heard *int }

func (m *templOutput) Send(c *core.StageCtx) []runtime.Out {
	// Below 256, like ringBench's output, so boxing it never allocates.
	c.Output(*m.heard & 0xff)
	return nil
}

func (m *templOutput) Receive(c *core.StageCtx, inbox []runtime.Msg) {}

func templBenchFactory(rounds int) runtime.Factory {
	payload := any(ringPayload{})
	mem := func(runtime.NodeInfo, any) any { return new(int) }
	announce := core.Stage{Name: "bench/announce", Budget: rounds,
		New: func(_ runtime.NodeInfo, _ any, mem any) core.StageMachine {
			return &templBench{payload: payload, heard: mem.(*int)}
		}}
	decide := core.Stage{Name: "bench/decide",
		New: func(_ runtime.NodeInfo, _ any, mem any) core.StageMachine {
			return &templOutput{heard: mem.(*int)}
		}}
	return core.Simple(mem, announce, decide)
}

func runRing(tb testing.TB, g *graph.Graph, rounds int, parallel, batched bool, shards int) *runtime.Result {
	tb.Helper()
	return runBench(tb, g, ringBenchFactory(rounds, batched), rounds, parallel, shards)
}

// runBench runs a bench factory whose nodes all output after rounds
// message-bearing rounds.
func runBench(tb testing.TB, g *graph.Graph, f runtime.Factory, rounds int, parallel bool, shards int) *runtime.Result {
	tb.Helper()
	res, err := runtime.Run(runtime.Config{
		Graph:     g,
		Factory:   f,
		Parallel:  parallel,
		Shards:    shards,
		MaxRounds: rounds + 8,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if res.Rounds != rounds+1 {
		tb.Fatalf("rounds = %d, want %d", res.Rounds, rounds+1)
	}
	return res
}

// BenchmarkEngineThroughput measures raw engine round throughput on a
// 4096-node ring: 64 message-bearing rounds per Run, both engine modes.
// allocs/op divided by the round count is the per-round allocation figure
// the ISSUE acceptance criterion tracks.
func BenchmarkEngineThroughput(b *testing.B) {
	const n, rounds = 4096, 64
	g := graph.Ring(n)
	for _, mode := range []struct {
		name     string
		parallel bool
		batched  bool
		shards   int
	}{
		{"seq", false, false, 0}, {"par", true, false, 0},
		{"seq-bcast", false, true, 0}, {"par-bcast", true, true, 0},
		{"shard4", false, false, 4}, {"shard4-par", true, false, 4},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runRing(b, g, rounds, mode.parallel, mode.batched, mode.shards)
			}
		})
	}
}

// TestSteadyStateAllocBudget is the allocation-regression test: on a
// 4096-node ring with a zero-alloc workload, the marginal cost of an extra
// engine round must stay below a fixed allocation budget. Setup costs cancel
// in the long-run-minus-short-run difference, leaving steady-state
// allocs/round, which with buffer reuse is ~0 for the engine itself.
func TestSteadyStateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement; skipped with -short")
	}
	const n = 4096
	g := graph.Ring(n)
	measure := func(rounds int, parallel, batched, templated bool, shards int) float64 {
		f := ringBenchFactory(rounds, batched)
		if templated {
			f = templBenchFactory(rounds)
		}
		return testing.AllocsPerRun(3, func() {
			runBench(t, g, f, rounds, parallel, shards)
		})
	}
	for _, mode := range []struct {
		name      string
		parallel  bool
		batched   bool
		shards    int
		budget    float64
		templated bool
	}{
		// The columnar layout reuses the CSR arrays, inbox slab, and fate
		// buffers across rounds: steady state measures 0 allocs/round on
		// every mode. The budgets are GC-noise headroom, not permission to
		// regress toward per-message allocation.
		{"seq", false, false, 0, 8, false},
		{"par", true, false, 0, 16, false},
		// The Env.Broadcast fast path never materializes an outbox at all:
		// the engine walks the CSR neighbor range directly.
		{"seq-bcast", false, true, 0, 8, false},
		{"par-bcast", true, true, 0, 16, false},
		// Sharded modes: one shard is the same path as seq and must
		// hold the same ~0 figure; multi-shard rounds reuse the shared
		// arena, task list, and cursor streams, so steady state stays ~0
		// there too (the wider budget is barrier/GC noise).
		{"shard1", false, false, 1, 8, false},
		{"shard4", false, false, 4, 24, false},
		{"shard4-par", true, false, 4, 32, false},
		// The template layer on top: the stage's broadcast is one batch
		// under the stage tag on the engine's broadcast path, and
		// core.Simple checks the tag on the engine's inbox view in place,
		// so a templated round allocates nothing per message either.
		{"seq-templated", false, false, 0, 8, true},
	} {
		short := measure(10, mode.parallel, mode.batched, mode.templated, mode.shards)
		long := measure(210, mode.parallel, mode.batched, mode.templated, mode.shards)
		perRound := (long - short) / 200
		t.Logf("%s: %.1f allocs over 10 rounds, %.1f over 210 -> %.3f allocs/round",
			mode.name, short, long, perRound)
		if perRound > mode.budget {
			t.Errorf("%s: %.1f allocs/round exceeds budget %.0f", mode.name, perRound, mode.budget)
		}
	}
}

// TestRoundStatsHook exercises Config.Stats: one record per round, message
// and bit totals consistent with the Result, wall time populated.
func TestRoundStatsHook(t *testing.T) {
	const n, rounds = 64, 5
	g := graph.Ring(n)
	var stats []runtime.RoundStats
	res, err := runtime.Run(runtime.Config{
		Graph:   g,
		Factory: ringBenchFactory(rounds, false),
		Stats:   func(s runtime.RoundStats) { stats = append(stats, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != res.Rounds {
		t.Fatalf("%d stats records for %d rounds", len(stats), res.Rounds)
	}
	totalMsgs, totalBits := 0, 0
	for i, s := range stats {
		if s.Round != i+1 {
			t.Errorf("record %d has round %d", i, s.Round)
		}
		if s.Duration < 0 {
			t.Errorf("round %d: negative duration", s.Round)
		}
		if s.Active != n && s.Round <= rounds {
			t.Errorf("round %d: active = %d, want %d", s.Round, s.Active, n)
		}
		totalMsgs += s.Messages
		totalBits += s.Bits
	}
	if totalMsgs != res.Messages {
		t.Errorf("stats messages total %d, result %d", totalMsgs, res.Messages)
	}
	if want := res.Messages * 8; totalBits != want {
		t.Errorf("stats bits total %d, want %d", totalBits, want)
	}
	// Every delivered payload is sized at 8 bits.
	if res.MaxMsgBits != 8 {
		t.Errorf("MaxMsgBits = %d, want 8", res.MaxMsgBits)
	}
}
