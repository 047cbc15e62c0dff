package runtime_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
)

// The columnar engine routes an Env.Broadcast through a batched fast path
// (one accounting call per surviving neighbor range) and a returned []Out
// outbox through per-message accounting. These tests pin that the two paths
// book identical RoundStats and Result ledgers and identical trace fault
// totals — delivered, dropped, injected, corrupted, and their bit totals —
// including under duplication faults, where a batched implementation could
// plausibly count the extra copies once per batch instead of once per copy.

// sizedPayload is a 16-bit payload for exact bit-ledger arithmetic.
type sizedPayload struct{ v int }

func (sizedPayload) Bits() int { return 16 }

// bcastMachine floods every neighbor for `limit` rounds, either through the
// batched Env.Broadcast path or the per-message []Out path.
type bcastMachine struct {
	limit   int
	batched bool
	heard   int
}

func (m *bcastMachine) Send(env *runtime.Env) []runtime.Out {
	if env.Round() > m.limit {
		env.Output(m.heard)
		env.Terminate()
		return nil
	}
	if m.batched {
		env.Broadcast(sizedPayload{v: env.ID()})
		return nil
	}
	return broadcast(env, sizedPayload{v: env.ID()})
}

func (m *bcastMachine) Receive(env *runtime.Env, inbox []runtime.Msg) {
	m.heard += len(inbox)
}

func bcastFactory(limit int, batched bool) runtime.Factory {
	return func(info runtime.NodeInfo, pred any) runtime.Machine {
		return &bcastMachine{limit: limit, batched: batched}
	}
}

func TestBatchedVsPerMessageAccounting(t *testing.T) {
	cases := []struct {
		name   string
		policy *fault.Policy // nil = no adversary
	}{
		{name: "clean", policy: nil},
		{name: "duplication-heavy", policy: &fault.Policy{Seed: 3, Duplicate: 0.5}},
		{name: "drop+duplicate", policy: &fault.Policy{Seed: 5, Drop: 0.25, Duplicate: 0.25}},
		{name: "corrupt+duplicate", policy: &fault.Policy{Seed: 7, Corrupt: 0.3, Duplicate: 0.3}},
		{name: "full-chaos", policy: &fault.Policy{Seed: 11, Drop: 0.2, Duplicate: 0.2, Corrupt: 0.2, Crash: 0.1}},
	}
	g := graph.GNP(24, 0.25, rand.New(rand.NewSource(99)))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(batched bool) (ledger, *runtime.Result, []runtime.RoundStats) {
				var stats []runtime.RoundStats
				rec := obs.NewRecorder(1 << 14)
				cfg := runtime.Config{
					Graph:   g,
					Factory: bcastFactory(4, batched),
					Stats:   func(s runtime.RoundStats) { stats = append(stats, s) },
					Trace:   rec,
				}
				if tc.policy != nil {
					cfg.Adversary = fault.New(*tc.policy)
				}
				res, err := runtime.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return scalarLedger(res, rec.Events()), res, stats
			}
			perMsgLedger, perMsgRes, perMsgStats := run(false)
			batchLedger, batchRes, batchStats := run(true)

			if batchLedger != perMsgLedger {
				t.Fatalf("result ledgers differ:\nbatched:     %+v\nper-message: %+v", batchLedger, perMsgLedger)
			}
			if !reflect.DeepEqual(batchRes.Outputs, perMsgRes.Outputs) {
				t.Fatal("outputs differ between batched and per-message runs")
			}
			if len(batchStats) != len(perMsgStats) {
				t.Fatalf("round counts differ: %d vs %d", len(batchStats), len(perMsgStats))
			}
			for i := range batchStats {
				b, p := batchStats[i], perMsgStats[i]
				b.Duration, p.Duration = 0, 0 // wall clock is the only legitimate difference
				if !reflect.DeepEqual(b, p) {
					t.Errorf("round %d stats differ:\nbatched:     %+v\nper-message: %+v", b.Round, b, p)
				}
			}
			if tc.policy != nil && tc.policy.Duplicate > 0 && batchLedger.injected == 0 {
				t.Error("duplication policy injected nothing; the case exercises no batching hazard")
			}
		})
	}
}

// ledger is the comparable accounting of one run: the scalar Result fields
// and the fault totals of its trace.
type ledger struct {
	rounds, msgs, maxBits, slots int
	faults
}

func scalarLedger(r *runtime.Result, trace []obs.Event) ledger {
	return ledger{r.Rounds, r.Messages, r.MaxMsgBits, len(r.TerminatedAt), faultTotals(trace)}
}
