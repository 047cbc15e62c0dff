package runtime_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
)

// A tagged, masked broadcast batch (Env.BroadcastMasked) is routed by the
// engine's broadcast path, a returned []Out by its per-message path. The
// tests here pin that the two deliver the same thing: a batch must give the
// same Result, the same fault sequence and the same trace as the []Out of
// the same messages, on every engine layout and under chaos.

// maskMachine sends, each round until it stops, one payload under a
// round-dependent tag to a round-dependent subset of its neighbors —
// through Env.BroadcastMasked when batched, else as the equivalent []Out.
// Its output digests every delivery it heard: sender, tag and payload.
type maskMachine struct {
	batched bool
	stop    int
	mask    []uint64
	digest  int
}

// maskBit reports whether node id selects neighbor position k in round r:
// a pattern that varies by node, position and round. Every fourth round
// selects every neighbor, which the batch sends with a nil mask.
func maskBit(id, k, r int) bool {
	return r%4 == 0 || (id+k+r)%3 != 0
}

func (m *maskMachine) Send(env *runtime.Env) []runtime.Out {
	r := env.Round()
	if r > m.stop {
		env.Output(m.digest)
		env.Terminate()
		return nil
	}
	info := env.Info()
	tag := uint32(r % 3) // every third round is untagged
	payload := sizedPayload{v: info.ID*8 + r}
	if !m.batched {
		var outs []runtime.Out
		for k, nb := range info.NeighborIDs {
			if maskBit(info.ID, k, r) {
				outs = append(outs, runtime.Out{To: nb, Tag: tag, Payload: payload})
			}
		}
		return outs
	}
	if r%4 == 0 {
		env.BroadcastMasked(tag, nil, payload)
		return nil
	}
	clear(m.mask)
	for k := range info.NeighborIDs {
		if maskBit(info.ID, k, r) {
			m.mask[k/64] |= 1 << (k % 64)
		}
	}
	if len(m.mask) > 0 {
		// Bits past the degree select nothing.
		m.mask[len(m.mask)-1] |= 1 << 63
	}
	env.BroadcastMasked(tag, m.mask, payload)
	return nil
}

func (m *maskMachine) Receive(env *runtime.Env, inbox []runtime.Msg) {
	for _, msg := range inbox {
		v := 1 << 20 // a corrupted payload
		if p, ok := msg.Payload.(sizedPayload); ok {
			v = p.v
		}
		m.digest = (m.digest*31 + msg.From*7 + int(msg.Tag)*3 + v) % 1000003
	}
}

func maskFactory(batched bool) runtime.Factory {
	return func(info runtime.NodeInfo, pred any) runtime.Machine {
		deg := len(info.NeighborIDs)
		// Nodes stop at different rounds, so later batches meet neighbors
		// that terminated or are terminating in the same send phase.
		return &maskMachine{batched: batched, stop: 3 + info.ID%4, mask: make([]uint64, (deg+63)/64)}
	}
}

// TestMaskedBroadcastParity runs the batched and the []Out machines on a
// graph with shuffled identifiers and on a star whose center spans three
// mask words, on one shard, on the worker pool and on two shards, clean and
// under drop, duplication and corruption, and requires identical runs.
func TestMaskedBroadcastParity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.ShuffleIDs(graph.GNP(40, 0.2, rng), 200, rng)},
		{"star", graph.ShuffleIDs(graph.Star(140), 400, rng)},
	}
	chaos := &fault.Policy{Seed: 17, Drop: 0.15, Duplicate: 0.2, Corrupt: 0.15}
	for _, gc := range graphs {
		for _, policy := range []*fault.Policy{nil, chaos} {
			for _, mode := range []struct {
				name     string
				parallel bool
				shards   int
			}{{"seq", false, 0}, {"pool", true, 0}, {"shards=2", false, 2}} {
				label := fmt.Sprintf("%s/chaos=%v/%s", gc.name, policy != nil, mode.name)
				wantRes, wantErr, wantStats, wantTrace := shardRun(t, gc.g, maskFactory(false), policy, mode.shards, nil, mode.parallel)
				res, err, stats, trace := shardRun(t, gc.g, maskFactory(true), policy, mode.shards, nil, mode.parallel)
				if wantErr != nil {
					t.Fatalf("%s: %v", label, wantErr)
				}
				if wantRes.Messages == 0 {
					t.Fatalf("%s: no message delivered; the case exercises nothing", label)
				}
				if policy != nil && (wantStats.Dropped == 0 || wantStats.Duplicated == 0 || wantStats.Corrupted == 0) {
					t.Fatalf("%s: chaos injected %+v; every fault kind must occur", label, wantStats)
				}
				assertShardParity(t, label, wantRes, wantErr, wantStats, wantTrace, res, err, stats, trace)
				// The shard ledgers agree too.
				if idx, desc, ok := obs.Diff(obs.Canonical(trace), obs.Canonical(wantTrace)); !ok {
					t.Fatalf("%s: unfiltered traces diverge at event %d: %s", label, idx, desc)
				}
			}
		}
	}
}

// badBatchMachine misuses the broadcast path in round 1: a mask one word
// too long, or a batch staged from Receive.
type badBatchMachine struct{ misuse string }

func (m *badBatchMachine) Send(env *runtime.Env) []runtime.Out {
	if env.Round() > 1 {
		env.Output(0)
		env.Terminate()
		return nil
	}
	if m.misuse == "mask-length" {
		deg := len(env.Info().NeighborIDs)
		env.BroadcastMasked(1, make([]uint64, (deg+63)/64+1), sizedPayload{})
	}
	return nil
}

func (m *badBatchMachine) Receive(env *runtime.Env, inbox []runtime.Msg) {
	if m.misuse == "receive" {
		env.BroadcastMasked(1, nil, sizedPayload{})
	}
}

// strayStage sends from a template stage to a destination that is not a
// neighbor, through core.StageCtx.BroadcastTo.
type strayStage struct{ to int }

func (s *strayStage) Send(c *core.StageCtx) []runtime.Out {
	return c.BroadcastTo([]int{s.to}, sizedPayload{})
}

func (s *strayStage) Receive(c *core.StageCtx, inbox []runtime.Msg) {}

// TestMaskedBroadcastErrors checks that misuse of the broadcast path
// aborts the run with a protocol error on every engine layout: a
// BroadcastTo destination that is not a neighbor (reported in the words of
// the []Out path), a mask of the wrong length, and a batch staged in
// Receive.
func TestMaskedBroadcastErrors(t *testing.T) {
	g := graph.Line(4) // node IDs 1-2-3-4; 1 and 3 are not adjacent
	stray := core.Simple(nil, core.Stage{Name: "stray", New: func(info runtime.NodeInfo, _, _ any) core.StageMachine {
		return &strayStage{to: info.ID + 2}
	}})
	strayOuts := func(info runtime.NodeInfo, pred any) runtime.Machine {
		return &fixedOutMachine{out: runtime.Out{To: info.ID + 2, Payload: sizedPayload{}}}
	}
	misuse := func(kind string) runtime.Factory {
		return func(runtime.NodeInfo, any) runtime.Machine { return &badBatchMachine{misuse: kind} }
	}
	for _, c := range []struct {
		name    string
		factory runtime.Factory
		want    string
	}{
		{"non-neighbor", stray, "node 1 sent to non-neighbor 3"},
		{"non-neighbor-outs", strayOuts, "node 1 sent to non-neighbor 3"},
		{"mask-length", misuse("mask-length"), "broadcast mask of 2 words for 1 neighbors"},
		{"receive", misuse("receive"), "Broadcast called during Receive"},
	} {
		for _, mode := range []struct {
			parallel bool
			shards   int
		}{{false, 0}, {true, 0}, {false, 2}} {
			_, err := runtime.Run(runtime.Config{Graph: g, Factory: c.factory, Parallel: mode.parallel, Shards: mode.shards})
			if !errors.Is(err, runtime.ErrProtocol) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s (parallel=%v shards=%d): error %v, want ErrProtocol containing %q",
					c.name, mode.parallel, mode.shards, err, c.want)
			}
		}
	}
}

// fixedOutMachine sends one fixed message in round 1 and then outputs.
type fixedOutMachine struct{ out runtime.Out }

func (m *fixedOutMachine) Send(env *runtime.Env) []runtime.Out {
	if env.Round() > 1 {
		env.Output(0)
		env.Terminate()
		return nil
	}
	return []runtime.Out{m.out}
}

func (m *fixedOutMachine) Receive(env *runtime.Env, inbox []runtime.Msg) {}
