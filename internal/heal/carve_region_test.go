package heal_test

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/heal"
	"repro/internal/mis"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/verify"
)

// fixedOutputMachine terminates in round one with a preassigned output,
// letting a test feed RunRecovered an exactly-chosen damaged vector.
type fixedOutputMachine struct{ value int }

func (m *fixedOutputMachine) Send(env *runtime.Env) []runtime.Out {
	env.Output(m.value)
	env.Terminate()
	return nil
}

func (m *fixedOutputMachine) Receive(env *runtime.Env, inbox []runtime.Msg) {}

// TestHealReactivatesExactlyCarvedRegion pins the carve/heal frontier
// contract: the healing run re-solves exactly the carved residual and
// nothing else. Every node the carve kept decided must reach the healed
// output with its carved value intact (the Simple Template's initialization
// keeps decided predictions), every residual node must end decided, and the
// trace's EvCarve event must agree with the independently computed residual
// and demotion counts.
func TestHealReactivatesExactlyCarvedRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := graph.GNP(40, 0.15, rng)
	n := g.N()

	// Start from a valid MIS, then damage a deterministic block of nodes
	// with an out-of-range value so the carve demotes (at least) them.
	res, err := runtime.Run(runtime.Config{Graph: g, Factory: mis.SimpleGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	damaged := make([]int, n)
	for i, o := range res.Outputs {
		damaged[i] = o.(int)
	}
	if err := verify.MIS(g, damaged); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		damaged[i] = -7
	}

	// Independent ground truth for what the carve should decide.
	partial, residual := heal.CarveMIS(g, damaged)
	if len(residual) == 0 {
		t.Fatal("damage carved away nothing; the test exercises no residual")
	}
	demoted := 0
	for i := 0; i < n; i++ {
		if damaged[i] != verify.Undecided && partial[i] == verify.Undecided {
			demoted++
		}
	}

	rec := obs.NewRecorder(0)
	report, err := heal.RunRecovered(runtime.Config{
		Graph: g,
		Factory: func(info runtime.NodeInfo, pred any) runtime.Machine {
			return &fixedOutputMachine{value: damaged[info.Index]}
		},
		Trace: rec,
	}, misSpec())
	if err != nil {
		t.Fatal(err)
	}
	if report.Valid {
		t.Fatal("damaged vector verified as valid")
	}
	if !report.Healed {
		t.Fatalf("damage not healed: %+v", report)
	}
	if report.Residual != len(residual) {
		t.Fatalf("report residual %d, want %d", report.Residual, len(residual))
	}

	// Carve-decided nodes keep their carved values: the healing run
	// re-activated only the residual region.
	inResidual := make(map[int]bool, len(residual))
	for _, v := range residual {
		inResidual[v] = true
	}
	for i := 0; i < n; i++ {
		if inResidual[i] {
			if report.Output[i] == verify.Undecided {
				t.Fatalf("residual node %d left undecided by the heal", i)
			}
			continue
		}
		if report.Output[i] != partial[i] {
			t.Fatalf("carve-decided node %d changed: carved %d, healed %d", i, partial[i], report.Output[i])
		}
	}
	if err := verify.MIS(g, report.Output); err != nil {
		t.Fatalf("healed output invalid: %v", err)
	}

	// The trace agrees: one EvCarve with the residual and demotion counts,
	// and within the recovery phase every carve-decided node commits its
	// carved value (EvOutput), never a fresh one.
	byID := make(map[int]int, n)
	for i, id := range g.IDs() {
		byID[id] = i
	}
	carves := 0
	recovery := false
	for _, e := range rec.Events() {
		switch e.Type {
		case obs.EvCarve:
			carves++
			if e.Value != int64(len(residual)) || e.Aux != int64(demoted) {
				t.Fatalf("carve event Value=%d Aux=%d, want %d/%d", e.Value, e.Aux, len(residual), demoted)
			}
		case obs.EvPhase:
			recovery = e.Name == "recovery"
		case obs.EvOutput:
			if !recovery {
				continue
			}
			idx, ok := byID[e.Node]
			if !ok {
				t.Fatalf("output event for unknown id %d", e.Node)
			}
			if !inResidual[idx] && e.Value != int64(partial[idx]) {
				t.Fatalf("recovery re-decided carve-decided node %d: carved %d, committed %d",
					idx, partial[idx], e.Value)
			}
		}
	}
	if carves != 1 {
		t.Fatalf("saw %d carve events, want 1", carves)
	}
}
