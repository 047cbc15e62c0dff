package runtime_test

import (
	"bytes"
	"math/rand"
	gort "runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/runtime"
)

// goid returns the calling goroutine's identifier, parsed from the first
// line of its stack trace ("goroutine 17 [running]:").
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:gort.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

// contractMachine marks the first round so the factory can check it still
// runs before round 1.
type contractMachine struct{ started *atomic.Bool }

func (m contractMachine) Send(env *runtime.Env) []runtime.Out {
	m.started.Store(true)
	env.Output(0)
	env.Terminate()
	return nil
}

func (contractMachine) Receive(*runtime.Env, []runtime.Msg) {}

// TestFactoryContract pins the calling pattern runtime.Factory documents
// and the template layer's per-run slabs rely on: one call per node, in
// index order, on the goroutine that called Run, before round 1 — for the
// sequential, pool and 2-shard engines, and again for a second run through
// the same factory value.
func TestFactoryContract(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, rand.New(rand.NewSource(5)))
	for _, c := range []struct {
		name     string
		parallel bool
		shards   int
	}{{"seq", false, 0}, {"pool", true, 0}, {"shards2", true, 2}} {
		t.Run(c.name, func(t *testing.T) {
			var (
				next    int
				started atomic.Bool
				caller  = goid()
			)
			factory := func(info runtime.NodeInfo, pred any) runtime.Machine {
				if info.Index != next {
					t.Errorf("factory called for node %d, want %d", info.Index, next)
				}
				next++
				if id := goid(); id != caller {
					t.Errorf("node %d: factory on goroutine %d, Run on %d", info.Index, id, caller)
				}
				if started.Load() {
					t.Errorf("node %d: factory called after round 1 began", info.Index)
				}
				return contractMachine{started: &started}
			}
			for run := 0; run < 2; run++ {
				next = 0
				started.Store(false)
				if _, err := runtime.Run(runtime.Config{Graph: g, Factory: factory, Parallel: c.parallel, Shards: c.shards}); err != nil {
					t.Fatal(err)
				}
				if next != g.N() {
					t.Fatalf("run %d: factory called %d times for %d nodes", run, next, g.N())
				}
			}
		})
	}
}
