package bench

import (
	"fmt"
	"math/rand"
	gort "runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/mis"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/runtime"
	"repro/internal/shard"
)

// The engine sweeps time the round engine itself. enginestats prints the
// engine's per-round instrumentation (Config.Stats) for greedy MIS on
// shuffled-ID rings. scale and shards run a flood workload (every node
// broadcasts one 8-bit payload to all neighbors for a fixed number of
// rounds, then outputs how many messages it heard) on a ring and a
// Barabási–Albert graph: scale at each -nodes size, shards at each -shards
// count over contiguous and greedy partitions. The flood machines are
// slab-allocated and allocation-free per round, so allocs/round and
// wall/round measure the engine — the numbers EXPERIMENTS.md's columnar
// acceptance table and its CH8 shard table track.

const (
	floodRounds = 16
	shardSweepN = 100_000
)

// floodMachine broadcasts a fixed payload for floodRounds rounds and then
// terminates with the number of messages heard. Machines live in one slab
// and the outbox is engine-owned (Env.Broadcast), so a run's machine-side
// allocations are O(1), not O(n). The output is a pointer to the slab's
// count rather than the count itself: an int of 256 or more — a BA hub's —
// would be boxed on the heap.
type floodMachine struct {
	heard int
}

type floodPayload struct{}

func (floodPayload) Bits() int { return 8 }

func (m *floodMachine) Send(env *runtime.Env) []runtime.Out {
	if env.Round() > floodRounds {
		env.Output(&m.heard)
		env.Terminate()
		return nil
	}
	env.Broadcast(floodPayload{})
	return nil
}

func (m *floodMachine) Receive(env *runtime.Env, inbox []runtime.Msg) {
	m.heard += len(inbox)
}

// floodFamilies are the graphs the scale and shard sweeps flood.
var floodFamilies = []struct {
	name  string
	build func(n int) *graph.Graph
}{
	{"ring", graph.Ring},
	{"ba", func(n int) *graph.Graph { return graph.BarabasiAlbert(n, 3, rand.New(rand.NewSource(7))) }},
}

// timedFlood runs the flood workload on cfg.Graph under cfg's engine
// options and reports the result, its wall time and the heap allocations
// the run made.
func timedFlood(cfg runtime.Config) (*runtime.Result, time.Duration, uint64, error) {
	slab := make([]floodMachine, cfg.Graph.N())
	cfg.Factory = func(info runtime.NodeInfo, pred any) runtime.Machine { return &slab[info.Index] }
	cfg.MaxRounds = floodRounds + 8
	gort.GC()
	var before, after gort.MemStats
	gort.ReadMemStats(&before)
	start := obs.Now()
	res, err := runtime.Run(cfg)
	wall := obs.Since(start)
	gort.ReadMemStats(&after)
	if err != nil {
		return nil, 0, 0, err
	}
	return res, wall, after.Mallocs - before.Mallocs, nil
}

// engineStats renders one table of per-round engine stats per -nodes size:
// wall time, active nodes, deliveries and payload bits of greedy MIS on a
// shuffled-ID ring. Its ledger has one row per size with the round-time
// histogram.
func engineStats(p Params) ([]*Table, *perf.Ledger, error) {
	ledger := perf.New("enginestats", map[string]any{
		"sizes": p.Nodes, "parallel": p.Parallel, "problem": "mis", "family": "ring",
	})
	var tables []*Table
	for _, n := range p.Nodes {
		g := graph.ShuffleIDs(graph.Ring(n), n, rand.New(rand.NewSource(1)))
		var stats []runtime.RoundStats
		res, err := runtime.Run(runtime.Config{
			Graph:     g,
			Factory:   mis.Solo(mis.Greedy()),
			Parallel:  p.Parallel,
			Stats:     func(s runtime.RoundStats) { stats = append(stats, s) },
			Trace:     p.Trace,
			Telemetry: p.Telemetry,
		})
		if err != nil {
			return nil, nil, err
		}
		t := &Table{
			ID:      "ENGINE",
			Title:   fmt.Sprintf("per-round engine stats: greedy MIS, ring n=%d, parallel=%v", n, p.Parallel),
			Columns: []string{"round", "wall", "active", "messages", "bits"},
		}
		wall := 0.0
		sample := make([]float64, 0, len(stats))
		for _, s := range stats {
			t.AddRow(s.Round, s.Duration.String(), s.Active, s.Messages, s.Bits)
			sample = append(sample, s.Duration.Seconds())
			wall += s.Duration.Seconds()
		}
		t.Note("totals: %d rounds, %d messages, max msg bits %d", res.Rounds, res.Messages, res.MaxMsgBits)
		tables = append(tables, t)
		row := ledger.AddRow(fmt.Sprintf("ring_%d", n), map[string]string{"n": fmt.Sprint(n)}, map[string]float64{
			"rounds":       float64(res.Rounds),
			"messages":     float64(res.Messages),
			"max_msg_bits": float64(res.MaxMsgBits),
			"wall_seconds": wall,
		})
		row.AddHist("round_seconds", sample)
	}
	return tables, ledger, nil
}

// scaleSweep renders the scale table: one row per (graph family, n).
func scaleSweep(p Params) ([]*Table, *perf.Ledger, error) {
	ledger := perf.New("scale", map[string]any{
		"sizes": p.Nodes, "parallel": p.Parallel, "rounds": floodRounds,
	})
	t := &Table{
		ID:      "SCALE",
		Title:   fmt.Sprintf("engine scale sweep: flood workload, %d message rounds, parallel=%v", floodRounds, p.Parallel),
		Columns: []string{"graph", "n", "m", "build", "rounds", "wall/round", "msgs/round", "allocs/round", "run wall"},
	}
	for _, n := range p.Nodes {
		for _, fam := range floodFamilies {
			buildStart := obs.Now()
			g := fam.build(n)
			buildDur := obs.Since(buildStart)
			res, wall, allocs, err := timedFlood(runtime.Config{Graph: g, Parallel: p.Parallel})
			if err != nil {
				return nil, nil, err
			}
			rounds := max(res.Rounds, 1)
			t.AddRow(
				fam.name, n, g.M(),
				roundDur(buildDur),
				res.Rounds,
				roundDur(wall/time.Duration(rounds)),
				res.Messages/rounds,
				fmt.Sprintf("%.1f", float64(allocs)/float64(rounds)),
				roundDur(wall),
			)
			ledger.AddRow(
				fmt.Sprintf("%s_%d", fam.name, n),
				map[string]string{"family": fam.name, "n": fmt.Sprint(n)},
				map[string]float64{
					"edges":            float64(g.M()),
					"rounds":           float64(res.Rounds),
					"msgs_per_round":   float64(res.Messages / rounds),
					"allocs_per_round": float64(allocs) / float64(rounds),
					"build_seconds":    buildDur.Seconds(),
					"wall_seconds":     wall.Seconds(),
				})
		}
	}
	t.Note("allocs/round = total Run mallocs (setup included) / rounds; flood machines are slab-allocated so the numbers isolate the engine")
	return []*Table{t}, ledger, nil
}

// shardSweep renders the CH8 shard-count table: one row per (graph family,
// strategy, S), reporting the partition's edge cut, round throughput, and
// the boundary traffic the exchange phase actually carried. Outputs are
// byte-identical across every row of a graph; the sweep varies only where
// the work runs and what crosses shard boundaries.
func shardSweep(p Params) ([]*Table, *perf.Ledger, error) {
	ledger := perf.New("shards", map[string]any{
		"n": shardSweepN, "shards": p.Shards, "parallel": p.Parallel, "rounds": floodRounds,
	})
	t := &Table{
		ID:      "CH8",
		Title:   fmt.Sprintf("shard sweep: flood workload, n=%d, %d message rounds, parallel=%v", shardSweepN, floodRounds, p.Parallel),
		Columns: []string{"graph", "strategy", "S", "cut edges", "rounds/sec", "boundary msgs/round", "boundary bits/round", "run wall"},
	}
	for _, fam := range floodFamilies {
		g := fam.build(shardSweepN)
		off, adj := g.CSR()
		for _, strategy := range []string{"contig", "greedy"} {
			for _, s := range p.Shards {
				if s == 1 && strategy == "greedy" {
					continue // S=1 has no cut either way; one row suffices
				}
				part := shard.Contiguous(g.N(), s)
				if strategy == "greedy" {
					part = shard.GreedyEdgeCut(g.N(), off, adj, s, 7)
				}
				boundaryMsgs, boundaryBits := 0, 0
				res, wall, _, err := timedFlood(runtime.Config{
					Graph:     g,
					Parallel:  p.Parallel,
					Shards:    part.S,
					Partition: part,
					Stats: func(rs runtime.RoundStats) {
						for _, ss := range rs.Shards {
							boundaryMsgs += ss.BoundaryOut
							boundaryBits += ss.BoundaryOutBits
						}
					},
				})
				if err != nil {
					return nil, nil, err
				}
				rounds := max(res.Rounds, 1)
				roundsPerSec := float64(res.Rounds) / wall.Seconds()
				cut := part.CutEdges(off, adj)
				t.AddRow(fam.name, strategy, s, cut, fmt.Sprintf("%.1f", roundsPerSec),
					boundaryMsgs/rounds, boundaryBits/rounds, roundDur(wall))
				ledger.AddRow(
					fmt.Sprintf("%s_%s_s%d", fam.name, strategy, s),
					map[string]string{"family": fam.name, "strategy": strategy, "shards": fmt.Sprint(s)},
					map[string]float64{
						"cut_edges":               float64(cut),
						"boundary_msgs_per_round": float64(boundaryMsgs / rounds),
						"boundary_bits_per_round": float64(boundaryBits / rounds),
						"rounds_per_sec":          roundsPerSec,
						"wall_seconds":            wall.Seconds(),
					})
			}
		}
	}
	t.Note("boundary msgs/bits = per-round average traffic crossing shards in the exchange phase; S=1 and the unsharded engine carry none")
	t.Note("outputs and traces are byte-identical across all rows of a graph family (the sharding determinism contract)")
	return []*Table{t}, ledger, nil
}

// roundDur trims a duration to three significant units for table display.
func roundDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(100 * time.Nanosecond).String()
	}
}
