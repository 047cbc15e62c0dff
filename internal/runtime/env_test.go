package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	gort "runtime"
	"testing"
	"unsafe"

	"repro/internal/graph"
)

// TestEnvSize pins the per-node Env: it keeps only what differs between
// nodes, and the run-wide round, error column and trace notes live in the
// shared runInfo. One Env per node is the engine's largest per-node
// allocation, so a field that grows it shows in every run's bytes.
func TestEnvSize(t *testing.T) {
	if got := unsafe.Sizeof(Env{}); got > 136 {
		t.Errorf("Env is %d bytes; want at most 136", got)
	}
}

// dstProbe sends to every neighbor for rounds rounds, broadcasting in round
// 1 and, when outs is set, returning one Out per neighbor from round 2 on.
// Each Receive records where the node's Env.dst window would start its
// slab (0 while the window is nil), so a test can tell whether the run made
// a destination slab and whether every node and round shared one.
type dstProbe struct {
	outs   bool
	rounds int
	bases  []uintptr
}

func (m *dstProbe) Send(env *Env) []Out {
	if env.Round() > m.rounds {
		env.Output(true)
		env.Terminate()
		return nil
	}
	if !m.outs || env.Round() == 1 {
		env.Broadcast(env.Round())
		return nil
	}
	ids := env.Info().NeighborIDs
	outs := make([]Out, len(ids))
	for k, nb := range ids {
		outs[k] = Out{To: nb, Payload: env.Round()}
	}
	return outs
}

func (m *dstProbe) Receive(env *Env, inbox []Msg) {
	base := uintptr(0)
	if env.dst != nil {
		off := uintptr(env.run.off[env.index]) * unsafe.Sizeof(int32(0))
		base = uintptr(unsafe.Pointer(unsafe.SliceData(env.dst))) - off
	}
	m.bases = append(m.bases, base)
}

// TestDstSlabOnDemand checks that the destination slab is made only by a
// run that returns a non-empty []Out, at the first such round, once for
// every node and worker: a broadcast-only run never has a window, and a
// []Out run's windows all sit in one slab from round 2 on.
func TestDstSlabOnDemand(t *testing.T) {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(4))
	const n, rounds = 96, 4
	g := graph.BarabasiAlbert(n, 3, rand.New(rand.NewSource(5)))
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"seq", Config{}},
		{"pool", Config{Parallel: true}},
		{"2shards", Config{Shards: 2, Parallel: true}},
	} {
		for _, outs := range []bool{false, true} {
			probes := make([]dstProbe, n)
			cfg := mode.cfg
			cfg.Graph = g
			cfg.Factory = func(info NodeInfo, pred any) Machine {
				probes[info.Index] = dstProbe{outs: outs, rounds: rounds}
				return &probes[info.Index]
			}
			if _, err := Run(cfg); err != nil {
				t.Fatalf("%s outs=%v: %v", mode.name, outs, err)
			}
			var slab uintptr
			for i := range probes {
				bases := probes[i].bases
				if len(bases) != rounds {
					t.Fatalf("%s outs=%v: node %d received in %d rounds, want %d", mode.name, outs, i, len(bases), rounds)
				}
				for r, base := range bases {
					switch {
					case !outs || r == 0:
						if base != 0 {
							t.Fatalf("%s outs=%v: node %d has a destination window in round %d before any []Out", mode.name, outs, i, r+1)
						}
					case base == 0:
						t.Fatalf("%s: node %d has no destination window in round %d", mode.name, i, r+1)
					case slab == 0:
						slab = base
					case base != slab:
						t.Fatalf("%s: node %d's round-%d window lies in a second slab", mode.name, i, r+1)
					}
				}
			}
		}
	}
}

// failProbe fails in Receive of round 2 on the nodes whose index is in
// fail, twice each: the node's first error is the one kept.
type failProbe struct {
	fail bool
}

func (m *failProbe) Send(env *Env) []Out {
	env.Broadcast(0)
	return nil
}

func (m *failProbe) Receive(env *Env, inbox []Msg) {
	if env.Round() == 2 && m.fail {
		env.Fail(fmt.Errorf("%w: first at %d", ErrProtocol, env.Info().Index))
		env.Fail(fmt.Errorf("%w: second at %d", ErrProtocol, env.Info().Index))
	}
}

// TestFailInReceiveReportsFirstInIndexOrder checks that Env.Fail, which
// writes the run's error column straight from the worker that owns the
// node, still surfaces the first failing node in index order with its
// round in the text, under every worker count.
func TestFailInReceiveReportsFirstInIndexOrder(t *testing.T) {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(4))
	const n = 200
	g := graph.Ring(n)
	failing := map[int]bool{170: true, 57: true, 58: true, 120: true}
	for _, mode := range []Config{{}, {Parallel: true}, {Shards: 2, Parallel: true}} {
		cfg := mode
		cfg.Graph = g
		cfg.MaxRounds = 10
		cfg.Factory = func(info NodeInfo, pred any) Machine {
			return &failProbe{fail: failing[info.Index]}
		}
		res, err := Run(cfg)
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("parallel=%v shards=%d: err = %v; want ErrProtocol", mode.Parallel, mode.Shards, err)
		}
		want := fmt.Sprintf("node %d round 2: %v: first at 57", g.ID(57), ErrProtocol)
		if err.Error() != want {
			t.Errorf("parallel=%v shards=%d: err = %q; want %q", mode.Parallel, mode.Shards, err, want)
		}
		if res == nil || res.Rounds != 1 {
			t.Errorf("parallel=%v shards=%d: partial result %+v; want Rounds 1", mode.Parallel, mode.Shards, res)
		}
	}
}
