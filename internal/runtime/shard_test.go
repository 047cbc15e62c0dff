package runtime_test

import (
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
	"repro/internal/shard"
)

// shardRun executes one configuration and captures everything the parity
// contract covers: result, error surface, chaos fault sequence, and trace.
func shardRun(t *testing.T, g *graph.Graph, factory runtime.Factory, policy *fault.Policy, shards int, part *shard.Partition, parallel bool) (*runtime.Result, error, fault.Stats, []obs.Event) {
	t.Helper()
	rec := obs.NewRecorder(1 << 15)
	cfg := runtime.Config{
		Graph:     g,
		Factory:   factory,
		Parallel:  parallel,
		Shards:    shards,
		Partition: part,
		Trace:     rec,
	}
	var stats fault.Stats
	if policy != nil {
		cfg.Adversary = fault.New(*policy)
	}
	res, err := runtime.Run(cfg)
	if policy != nil {
		stats = cfg.Adversary.(*fault.Chaos).Stats()
	}
	return res, err, stats, rec.Events()
}

// dropShardEvents filters the shard-count-dependent ledger events out of a
// stream — the documented exemption in the cross-shard trace contract.
func dropShardEvents(events []obs.Event) []obs.Event {
	out := make([]obs.Event, 0, len(events))
	for _, e := range events {
		if e.Type != obs.EvShardExchange {
			out = append(out, e)
		}
	}
	return out
}

// assertShardParity compares a sharded run against the single-engine
// reference on every axis of the contract.
func assertShardParity(t *testing.T, label string, refRes *runtime.Result, refErr error, refStats fault.Stats, refTrace []obs.Event,
	res *runtime.Result, err error, stats fault.Stats, trace []obs.Event) {
	t.Helper()
	if stats != refStats {
		t.Fatalf("%s: fault sequences differ: %+v vs %+v", label, stats, refStats)
	}
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: error surfaces differ: %v vs %v", label, err, refErr)
	}
	if err != nil {
		if err.Error() != refErr.Error() {
			t.Fatalf("%s: errors differ:\n  sharded: %v\n  ref:     %v", label, err, refErr)
		}
		assertSameResult(t, label, res, refRes)
		return
	}
	if res.Rounds != refRes.Rounds || res.Messages != refRes.Messages ||
		res.MaxMsgBits != refRes.MaxMsgBits {
		t.Fatalf("%s: results differ:\n  sharded: %+v\n  ref:     %+v", label, res, refRes)
	}
	if f, ref := faultTotals(trace), faultTotals(refTrace); f != ref {
		t.Fatalf("%s: trace fault totals differ: %+v vs %+v", label, f, ref)
	}
	assertSameResult(t, label, res, refRes)
	if idx, desc, ok := obs.Diff(obs.Canonical(dropShardEvents(trace)), obs.Canonical(dropShardEvents(refTrace))); !ok {
		t.Fatalf("%s: traces diverge at event %d: %s", label, idx, desc)
	}
}

// faults is a one-run trace's fault ledger, read from its summary.
type faults struct {
	dropped, droppedBits, injected, corrupted int64
}

func faultTotals(trace []obs.Event) faults {
	r := obs.Summarize(trace).Runs[0]
	return faults{r.Dropped, r.DroppedBits, r.Duplicated, r.Corrupted}
}

// TestShardParityDeterministic pins the tentpole contract on fixed seeds:
// for rings, random graphs, and scale-free graphs, with and without a chaos
// adversary and with both phase-execution modes, every shard count in
// {1, 2, 4, 8} reproduces the single-engine run byte for byte — results,
// fault sequences, error surfaces, and trace streams (shard ledger events
// excepted).
func TestShardParityDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	graphs := map[string]*graph.Graph{
		"ring":  graph.Ring(64),
		"gnp":   graph.GNP(50, 0.15, rng),
		"ba":    graph.BarabasiAlbert(60, 3, rng),
		"star":  graph.Star(33),
		"small": graph.Line(3),
	}
	chaos := &fault.Policy{Seed: 5, Drop: 0.15, Duplicate: 0.15, Corrupt: 0.1, LinkFail: 0.1, Crash: 0.1}
	for name, g := range graphs {
		for _, policy := range []*fault.Policy{nil, chaos} {
			for _, parallel := range []bool{false, true} {
				label := fmt.Sprintf("%s/chaos=%v/parallel=%v", name, policy != nil, parallel)
				refRes, refErr, refStats, refTrace := shardRun(t, g, echoFactory(3), policy, 0, nil, false)
				for _, s := range []int{1, 2, 4, 8} {
					res, err, stats, trace := shardRun(t, g, echoFactory(3), policy, s, nil, parallel)
					assertShardParity(t, fmt.Sprintf("%s/shards=%d", label, s),
						refRes, refErr, refStats, refTrace, res, err, stats, trace)
				}
			}
		}
	}
}

// TestShardSingleExactTrace pins the stronger 1-shard half of the contract:
// a 1-shard run takes the single-engine routing path, so its trace is
// identical to the sequential engine's without any filtering — it contains
// no shard ledger events at all.
func TestShardSingleExactTrace(t *testing.T) {
	g := graph.GNP(40, 0.2, rand.New(rand.NewSource(3)))
	policy := &fault.Policy{Seed: 11, Drop: 0.2, Duplicate: 0.2, Corrupt: 0.1}
	_, refErr, _, refTrace := shardRun(t, g, echoFactory(4), policy, 0, nil, false)
	_, err, _, trace := shardRun(t, g, echoFactory(4), policy, 1, nil, false)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("error surfaces differ: %v vs %v", err, refErr)
	}
	for _, e := range trace {
		if e.Type == obs.EvShardExchange {
			t.Fatal("1-shard run emitted a shard ledger event")
		}
	}
	if idx, desc, ok := obs.Diff(obs.Canonical(trace), obs.Canonical(refTrace)); !ok {
		t.Fatalf("unfiltered traces diverge at event %d: %s", idx, desc)
	}
}

// TestShardGreedyPartitionParity runs the contract over the seeded greedy
// edge-cut partitioner, and over the worst possible cut, node i in shard
// i mod s, where nearly every delivery and duplicate copy crosses shards:
// an arbitrary node→shard assignment must not change any observable
// either. It runs under GOMAXPROCS 4, so the Parallel cases cut the
// frontier into more chunks than there are shards (W = 4 on two shards),
// and every chunk holds nodes of several shards.
func TestShardGreedyPartitionParity(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(9))
	g := graph.BarabasiAlbert(80, 2, rng)
	off, adj := g.CSR()
	policy := &fault.Policy{Seed: 21, Drop: 0.1, Duplicate: 0.2, Corrupt: 0.1, Crash: 0.1}
	refRes, refErr, refStats, refTrace := shardRun(t, g, echoFactory(3), policy, 0, nil, false)
	for _, s := range []int{2, 4, 8} {
		of := make([]int32, g.N())
		for i := range of {
			of[i] = int32(i % s)
		}
		strided, err := shard.New(s, of)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			part *shard.Partition
		}{
			{"greedy", shard.GreedyEdgeCut(g.N(), off, adj, s, 1234)},
			{"strided", strided},
		} {
			if err := c.part.Validate(g.N()); err != nil {
				t.Fatal(err)
			}
			for _, parallel := range []bool{false, true} {
				res, err, stats, trace := shardRun(t, g, echoFactory(3), policy, 0, c.part, parallel)
				assertShardParity(t, fmt.Sprintf("%s/shards=%d/parallel=%v", c.name, s, parallel),
					refRes, refErr, refStats, refTrace, res, err, stats, trace)
			}
		}
	}
}

// TestShardErrorSurfaceParity checks that per-node failures (a machine
// rejecting corrupted payloads) surface the identical first error from
// every shard count.
func TestShardErrorSurfaceParity(t *testing.T) {
	g := graph.GNP(45, 0.25, rand.New(rand.NewSource(8)))
	policy := &fault.Policy{Seed: 13, Corrupt: 0.5}
	fragile := func(info runtime.NodeInfo, pred any) runtime.Machine {
		return &fragileMachine{echoMachine{limit: 3}}
	}
	_, refErr, refStats, _ := shardRun(t, g, fragile, policy, 0, nil, false)
	if refErr == nil {
		t.Fatal("reference run surfaced no error; the case exercises nothing")
	}
	for _, s := range []int{1, 2, 4, 8} {
		_, err, stats, _ := shardRun(t, g, fragile, policy, s, nil, true)
		if err == nil || err.Error() != refErr.Error() {
			t.Fatalf("shards=%d: error %q, want %q", s, err, refErr)
		}
		if stats != refStats {
			t.Fatalf("shards=%d: fault sequences differ: %+v vs %+v", s, stats, refStats)
		}
	}
}

// TestShardRoundStatsLedgers checks the per-shard delivery ledgers: they
// appear exactly on multi-shard runs, their delivered columns sum to the
// round's global ledger, their injected columns sum to the round's
// duplicate copies in the trace, and boundary traffic is bounded by the
// partition's cut.
func TestShardRoundStatsLedgers(t *testing.T) {
	g := graph.Ring(48)
	const s = 4
	var rounds []runtime.RoundStats
	res, err := runtime.Run(runtime.Config{
		Graph:   g,
		Factory: echoFactory(3),
		Shards:  s,
		Stats: func(rs runtime.RoundStats) {
			cp := rs
			cp.Shards = append([]runtime.ShardRoundStats(nil), rs.Shards...)
			rounds = append(rounds, cp)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	part := shard.Contiguous(g.N(), s)
	off, adj := g.CSR()
	cut := part.CutEdges(off, adj)
	totalDelivered := 0
	for _, rs := range rounds {
		if len(rs.Shards) != s {
			t.Fatalf("round %d: %d shard ledgers, want %d", rs.Round, len(rs.Shards), s)
		}
		delivered, boundary := 0, 0
		deliveredBits := 0
		for _, ss := range rs.Shards {
			delivered += ss.Delivered
			deliveredBits += ss.DeliveredBits
			boundary += ss.BoundaryOut
		}
		if delivered != rs.Messages {
			t.Fatalf("round %d: shard ledgers deliver %d, round says %d", rs.Round, delivered, rs.Messages)
		}
		if deliveredBits != rs.Bits {
			t.Fatalf("round %d: shard ledgers carry %d bits, round says %d", rs.Round, deliveredBits, rs.Bits)
		}
		if boundary > cut {
			t.Fatalf("round %d: %d boundary messages exceed the %d-edge cut", rs.Round, boundary, cut)
		}
		totalDelivered += delivered
	}
	if totalDelivered != res.Messages {
		t.Fatalf("ledger total %d, result says %d", totalDelivered, res.Messages)
	}

	// Under duplication, each round's shard injected columns sum to the
	// copies its duplicate fault events report.
	injected := map[int]int64{}
	rec := obs.NewRecorder(1 << 14)
	if _, err := runtime.Run(runtime.Config{
		Graph:     g,
		Factory:   echoFactory(3),
		Shards:    s,
		Adversary: fault.New(fault.Policy{Seed: 3, Duplicate: 0.3}),
		Trace:     rec,
		Stats: func(rs runtime.RoundStats) {
			for _, ss := range rs.Shards {
				injected[rs.Round] += int64(ss.Injected)
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	traced := map[int]int64{}
	for _, e := range rec.Events() {
		if e.Type == obs.EvFault && e.Name == "duplicate" {
			traced[e.Round] += e.Value
		}
	}
	if len(traced) == 0 {
		t.Fatal("duplication policy injected nothing; the case checks no ledger")
	}
	for r := 1; r <= len(injected); r++ {
		if injected[r] != traced[r] {
			t.Fatalf("round %d: shard ledgers inject %d, trace says %d", r, injected[r], traced[r])
		}
	}

	// Single-shard runs keep the global ledgers only.
	runtimeStatsSeen := false
	_, err = runtime.Run(runtime.Config{
		Graph:   g,
		Factory: echoFactory(2),
		Shards:  1,
		Stats: func(rs runtime.RoundStats) {
			runtimeStatsSeen = true
			if rs.Shards != nil {
				t.Fatal("1-shard run reported per-shard ledgers")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !runtimeStatsSeen {
		t.Fatal("stats callback never ran")
	}
}

// TestShardLedgerTraceExport checks the observability half of the ledger
// satellite: EvShardExchange events aggregate into per-shard Prometheus
// counters.
func TestShardLedgerTraceExport(t *testing.T) {
	g := graph.Ring(32)
	rec := obs.NewRecorder(1 << 14)
	if _, err := runtime.Run(runtime.Config{
		Graph:   g,
		Factory: echoFactory(2),
		Shards:  4,
		Trace:   rec,
	}); err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	seen := 0
	for _, e := range events {
		if e.Type == obs.EvShardExchange {
			seen++
		}
	}
	if seen == 0 {
		t.Fatal("multi-shard traced run emitted no shard ledger events")
	}
	snap := obs.Aggregate(events).Snapshot()
	found := false
	for _, m := range snap.Counters {
		if m.Name == `dgp_shard_messages_total{shard="0",kind="delivered"}` && m.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("aggregated export lacks per-shard delivered counter; snapshot: %+v", snap)
	}
}

// TestShardConfigValidation pins the config error surfaces: negative shard
// counts, malformed partitions, and shard/partition disagreement are
// ErrConfig before the run starts.
func TestShardConfigValidation(t *testing.T) {
	g := graph.Ring(8)
	base := runtime.Config{Graph: g, Factory: echoFactory(1)}

	cfg := base
	cfg.Shards = -1
	if _, err := runtime.Run(cfg); !errors.Is(err, runtime.ErrConfig) {
		t.Fatalf("Shards=-1: %v, want ErrConfig", err)
	}

	cfg = base
	cfg.Shards = 2
	cfg.Partition = shard.Contiguous(8, 4)
	if _, err := runtime.Run(cfg); !errors.Is(err, runtime.ErrConfig) {
		t.Fatalf("Shards/Partition mismatch: %v, want ErrConfig", err)
	}

	cfg = base
	cfg.Partition = shard.Contiguous(6, 2) // wrong n
	if _, err := runtime.Run(cfg); !errors.Is(err, runtime.ErrConfig) {
		t.Fatalf("wrong-size partition: %v, want ErrConfig", err)
	}

	// Shards beyond n leaves some shards empty but is legal.
	cfg = base
	cfg.Shards = 16
	if _, err := runtime.Run(cfg); err != nil {
		t.Fatalf("Shards > n: %v", err)
	}
}

// TestShardCrashParity exercises explicit crash schedules across shard
// counts: crashed nodes leave the frontier exactly as on one shard.
func TestShardCrashParity(t *testing.T) {
	g := graph.Ring(40)
	crashes := map[int]int{3: 1, 11: 2, 12: 2, 39: 3}
	run := func(s int) (*runtime.Result, []obs.Event) {
		rec := obs.NewRecorder(1 << 14)
		res, err := runtime.Run(runtime.Config{
			Graph:     g,
			Factory:   echoFactory(4),
			Adversary: fault.Schedule(crashes),
			Shards:    s,
			Trace:     rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, rec.Events()
	}
	refRes, refTrace := run(0)
	for _, s := range []int{1, 2, 4, 8} {
		res, trace := run(s)
		for i := range refRes.Outputs {
			if res.Outputs[i] != refRes.Outputs[i] || res.TerminatedAt[i] != refRes.TerminatedAt[i] {
				t.Fatalf("shards=%d: node %d diverges", s, i)
			}
		}
		if idx, desc, ok := obs.Diff(obs.Canonical(dropShardEvents(trace)), obs.Canonical(dropShardEvents(refTrace))); !ok {
			t.Fatalf("shards=%d: traces diverge at event %d: %s", s, idx, desc)
		}
	}
}
