package heal_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/heal"
	"repro/internal/problem"
	"repro/internal/runtime"
	_ "repro/internal/tree"
	"repro/internal/verify"
)

func TestSpecForResolvesRegisteredHeal(t *testing.T) {
	for _, name := range []string{"mis", "matching", "vcolor", "tree"} {
		d, err := problem.Get(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		spec, err := heal.SpecFor(d)
		if err != nil {
			t.Fatalf("%s: SpecFor: %v", name, err)
		}
		if spec.Verify == nil || spec.Carve == nil || spec.HealFactory == nil {
			t.Fatalf("%s: SpecFor left machinery unset: %+v", name, spec)
		}
	}
}

func TestSpecForRejectsUnhealable(t *testing.T) {
	d := &problem.Descriptor{Name: "bare"}
	if _, err := heal.SpecFor(d); !errors.Is(err, runtime.ErrConfig) {
		t.Fatalf("SpecFor(descriptor without Heal) = %v, want ErrConfig", err)
	}
}

func TestWidenCarveGrowsResidualByHops(t *testing.T) {
	g := graph.Line(9)
	// Valid MIS on the line: alternate 1,0,1,0,... then knock out the center.
	partial := make([]int, 9)
	for v := range partial {
		if v%2 == 0 {
			partial[v] = 1
		}
	}
	partial[4] = verify.Undecided
	base, res0 := heal.WidenCarve(g, partial, 0, heal.CarveMIS)
	if err := verify.MISPartialExtendable(g, base); err != nil {
		t.Fatalf("hops=0 re-carve not extendable: %v", err)
	}
	prev := len(res0)
	for hops := 1; hops <= 4; hops++ {
		widened, res := heal.WidenCarve(g, partial, hops, heal.CarveMIS)
		if err := verify.MISPartialExtendable(g, widened); err != nil {
			t.Fatalf("hops=%d: widened carve not extendable: %v", hops, err)
		}
		if len(res) < prev {
			t.Fatalf("hops=%d: residual shrank %d -> %d", hops, prev, len(res))
		}
		prev = len(res)
	}
	// One hop only reaches forced clean-up closures, which re-close; two hops
	// reach the in-set justifications and genuinely grow the residual.
	if _, res := heal.WidenCarve(g, partial, 2, heal.CarveMIS); len(res) <= len(res0) {
		t.Fatalf("hops=2 residual %d did not grow beyond %d", len(res), len(res0))
	}
	// An empty residual stays empty: nothing to widen from.
	full := make([]int, 9)
	for v := range full {
		if v%2 == 0 {
			full[v] = 1
		}
	}
	if _, res := heal.WidenCarve(g, full, 5, heal.CarveMIS); len(res) != 0 {
		t.Fatalf("widening a complete solution produced residual %v", res)
	}
}

// TestWidenCarveDegenerateInputs pins WidenCarve's contract at the edges of
// its domain: zero (and negative) hops must be a pure re-carve, a ball that
// swallows the whole graph must leave everything undecided, and a
// single-node graph must round-trip both the decided and undecided cases.
func TestWidenCarveDegenerateInputs(t *testing.T) {
	t.Run("zero hops is a pure re-carve", func(t *testing.T) {
		g := graph.Line(9)
		partial := make([]int, 9)
		for v := range partial {
			if v%2 == 0 {
				partial[v] = 1
			}
		}
		partial[4] = verify.Undecided
		before := append([]int(nil), partial...)
		direct, directRes := heal.CarveMIS(g, partial)
		for _, hops := range []int{0, -3} {
			widened, res := heal.WidenCarve(g, partial, hops, heal.CarveMIS)
			if !reflect.DeepEqual(widened, direct) || !reflect.DeepEqual(res, directRes) {
				t.Fatalf("hops=%d: WidenCarve diverged from a direct carve:\n got %v %v\nwant %v %v",
					hops, widened, res, direct, directRes)
			}
		}
		if !reflect.DeepEqual(partial, before) {
			t.Fatalf("WidenCarve mutated its input: %v -> %v", before, partial)
		}
	})

	t.Run("ball covering the whole graph demotes every node", func(t *testing.T) {
		g := graph.Line(5)
		partial := []int{1, 0, verify.Undecided, 0, 1}
		widened, res := heal.WidenCarve(g, partial, 10, heal.CarveMIS)
		if len(res) != g.N() {
			t.Fatalf("residual covers %d of %d nodes; a 10-hop ball on Line(5) must swallow the graph", len(res), g.N())
		}
		for v, p := range widened {
			if p != verify.Undecided {
				t.Fatalf("node %d survived a whole-graph widening with value %d", v, p)
			}
		}
	})

	t.Run("single-node graph", func(t *testing.T) {
		g := graph.Line(1)
		widened, res := heal.WidenCarve(g, []int{verify.Undecided}, 3, heal.CarveMIS)
		if len(res) != 1 || res[0] != 0 || widened[0] != verify.Undecided {
			t.Fatalf("undecided singleton: got widened=%v residual=%v, want the node back in the residual", widened, res)
		}
		widened, res = heal.WidenCarve(g, []int{1}, 3, heal.CarveMIS)
		if len(res) != 0 || widened[0] != 1 {
			t.Fatalf("decided singleton: got widened=%v residual=%v, want the decision kept and no residual", widened, res)
		}
		if err := verify.MIS(g, widened); err != nil {
			t.Fatalf("decided singleton is not a valid MIS after widening: %v", err)
		}
	})
}

// TestSpecForFactoryServesRunAfterRun runs one healing factory value — as a
// session does across its steps — on two different graphs back to back, and
// on the first again: every run must equal a run through a fresh factory.
// The template layer carves each run's node state from slabs made at node
// 0, so a slab left over from the previous run must never leak into the
// next.
func TestSpecForFactoryServesRunAfterRun(t *testing.T) {
	for _, name := range []string{"mis", "matching"} {
		d, err := problem.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := heal.SpecFor(d)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		graphs := []*graph.Graph{graph.BarabasiAlbert(300, 3, rng), graph.Ring(121)}
		graphs = append(graphs, graphs[0])
		for i, g := range graphs {
			preds, err := d.EncodePreds(d.Preds(g, nil, g.N()/10, int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := heal.SpecFor(d)
			if err != nil {
				t.Fatal(err)
			}
			run := func(f runtime.Factory) *runtime.Result {
				res, err := runtime.Run(runtime.Config{Graph: g, Factory: f, Predictions: preds})
				if err != nil {
					t.Fatalf("%s run %d: %v", name, i, err)
				}
				return res
			}
			got, want := run(shared.HealFactory), run(fresh.HealFactory)
			if !reflect.DeepEqual(got.Outputs, want.Outputs) || got.Rounds != want.Rounds || got.Messages != want.Messages {
				t.Fatalf("%s run %d (n=%d): reused factory gave %d rounds %d msgs, fresh %d rounds %d msgs",
					name, i, g.N(), got.Rounds, got.Messages, want.Rounds, want.Messages)
			}
		}
	}
}
