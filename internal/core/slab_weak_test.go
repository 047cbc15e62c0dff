//go:build go1.24

package core_test

import (
	"math/rand"
	gort "runtime"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/heal"
	"repro/internal/mis"
	"repro/internal/predict"
	"repro/internal/problem"
	"repro/internal/runtime"
)

// TestSlabLifetime checks that a run's slabs die with the run: after the
// run and a GC, weak pointers into the machine and memory slabs of a
// session's healing factory are nil while the factory itself is still
// reachable. A factory that kept its last slab would pin a whole run's
// node state between session steps.
func TestSlabLifetime(t *testing.T) {
	d, err := problem.Get("mis")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := heal.SpecFor(d)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.BarabasiAlbert(500, 3, rand.New(rand.NewSource(1)))
	preds := predict.FlipBits(predict.PerfectMIS(g), 50, rand.New(rand.NewSource(2)))

	var (
		machine weak.Pointer[core.SeqMachine]
		memory  weak.Pointer[mis.Memory]
	)
	run := func() {
		factory := func(info runtime.NodeInfo, pred any) runtime.Machine {
			m := spec.HealFactory(info, pred)
			if info.Index == info.N/2 {
				machine = weak.Make(m.(*core.SeqMachine))
				memory = weak.Make(core.MachineMemory(m).(*mis.Memory))
			}
			return m
		}
		if _, err := runtime.Run(runtime.Config{Graph: g, Factory: factory, Predictions: anyInts(preds)}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if machine.Value() == nil || memory.Value() == nil {
		t.Fatal("weak pointers were not taken")
	}
	gort.GC()
	if machine.Value() != nil {
		t.Error("the run's machine slab survived the run")
	}
	if memory.Value() != nil {
		t.Error("the run's memory slab survived the run")
	}
	gort.KeepAlive(spec.HealFactory)
}
