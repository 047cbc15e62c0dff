package dynamic_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dynamic"
	_ "repro/internal/ecolor"
	"repro/internal/graph"
	"repro/internal/heal"
	_ "repro/internal/matching"
	_ "repro/internal/mis"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
	_ "repro/internal/tree"
	_ "repro/internal/vcolor"
	"repro/internal/verify"
)

// sessionProblems are the CanHeal problems a session supports; tree heals
// through the MIS machinery, so its sessions use tree-shaped graphs but the
// same output contract.
var sessionProblems = []string{"matching", "mis", "tree", "vcolor"}

func sessionGraph(t *testing.T, name string, n int, rng *rand.Rand) *graph.Graph {
	t.Helper()
	if name == "tree" {
		return graph.RandomTree(n, rng)
	}
	return graph.GNP(n, 0.08, rng)
}

func verifyOut(t *testing.T, name string, g *graph.Graph, out []int) {
	t.Helper()
	d, err := problem.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := heal.SpecFor(d)
	if err != nil {
		t.Fatal(err)
	}
	if verr := spec.Verify(g, out); verr != nil {
		t.Fatalf("%s: session output invalid: %v", name, verr)
	}
}

// randomBatches derives k batches of edge updates against an n-node graph.
// Tree sessions get delete-only batches so a from-scratch comparison graph
// stays a forest; the others mix inserts and deletes.
func randomBatches(name string, g *graph.Graph, k int, rng *rand.Rand) []dynamic.Batch {
	batches := make([]dynamic.Batch, 0, k)
	edges := g.Edges()
	for b := 0; b < k; b++ {
		var ups []dynamic.Update
		for i := 0; i < 1+rng.Intn(4); i++ {
			if name != "tree" && rng.Intn(2) == 0 {
				u, v := rng.Intn(g.N()), rng.Intn(g.N())
				if u != v {
					ups = append(ups, dynamic.Update{Op: dynamic.Insert, U: u, V: v})
				}
			} else if len(edges) > 0 {
				e := edges[rng.Intn(len(edges))]
				ups = append(ups, dynamic.Update{Op: dynamic.Delete, U: e[0], V: e[1]})
			}
		}
		batches = append(batches, dynamic.Batch{Seq: b, Updates: ups})
	}
	return batches
}

func TestSessionIncrementalStaysValid(t *testing.T) {
	for _, name := range sessionProblems {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			g := sessionGraph(t, name, 60, rng)
			s, err := dynamic.Open(g, name, dynamic.Options{})
			if err != nil {
				t.Fatal(err)
			}
			verifyOut(t, name, s.Graph(), s.Output())
			for _, b := range randomBatches(name, g, 8, rng) {
				rep, err := s.Apply(b)
				if err != nil {
					t.Fatalf("batch %d: %v", b.Seq, err)
				}
				if rep.Outcome != "applied" {
					t.Fatalf("batch %d: outcome %q", b.Seq, rep.Outcome)
				}
				verifyOut(t, name, s.Graph(), s.Output())
			}
			st := s.Close()
			if st.Applied != 8 {
				t.Fatalf("stats.Applied = %d, want 8", st.Applied)
			}
			if _, err := s.Apply(dynamic.Batch{Seq: 99}); err != dynamic.ErrClosed {
				t.Fatalf("Apply after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// The session output must be a fixed point of the from-scratch Simple
// Template on the final graph: feeding it back as the prediction vector
// reproduces it byte-for-byte (the paper's Observation 7, η = 0). This is
// the convergence contract — an incrementally healed output is
// indistinguishable from a prediction the template has nothing to fix.
func TestSessionOutputIsTemplateFixedPoint(t *testing.T) {
	for _, name := range sessionProblems {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			g := sessionGraph(t, name, 50, rng)
			s, err := dynamic.Open(g, name, dynamic.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range randomBatches(name, g, 6, rng) {
				if _, err := s.Apply(b); err != nil {
					t.Fatal(err)
				}
			}
			assertFixedPoint(t, name, s.Graph(), s.Output())
		})
	}
}

func assertFixedPoint(t *testing.T, name string, g *graph.Graph, out []int) {
	t.Helper()
	d, err := problem.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := heal.SpecFor(d)
	if err != nil {
		t.Fatal(err)
	}
	preds := make([]any, len(out))
	for i, v := range out {
		preds[i] = v
	}
	res, err := runtime.Run(runtime.Config{Graph: g, Factory: spec.HealFactory, Predictions: preds})
	if err != nil {
		t.Fatalf("fixed-point run: %v", err)
	}
	for i, o := range res.Outputs {
		if v, ok := o.(int); !ok || v != out[i] {
			t.Fatalf("node %d: template moved the output %v -> %v (not a fixed point)", i, out[i], o)
		}
	}
}

func TestSessionDuplicateAndRejectedBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.GNP(30, 0.1, rng)
	rec := obs.NewRecorder(0)
	s, err := dynamic.Open(g, "mis", dynamic.Options{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	b := dynamic.Batch{Seq: 1, Updates: []dynamic.Update{{Op: dynamic.Delete, U: 0, V: 1}}}
	if rep, err := s.Apply(b); err != nil || rep.Outcome != "applied" {
		t.Fatalf("first delivery: %+v, %v", rep, err)
	}
	if rep, err := s.Apply(b); err != nil || rep.Outcome != "duplicate" {
		t.Fatalf("second delivery: %+v, %v", rep, err)
	}
	bad := dynamic.Batch{Seq: 2, Updates: []dynamic.Update{{Op: dynamic.Insert, U: 4, V: 4}}}
	rep, err := s.Apply(bad)
	if err != nil || rep.Outcome != "rejected" || rep.Err == nil {
		t.Fatalf("self-loop batch: %+v, %v", rep, err)
	}
	// The session stays live and the rejection did not touch the graph.
	good := dynamic.Batch{Seq: 3, Updates: []dynamic.Update{{Op: dynamic.Insert, U: 0, V: 1}}}
	if rep, err := s.Apply(good); err != nil || rep.Outcome != "applied" {
		t.Fatalf("post-rejection delivery: %+v, %v", rep, err)
	}
	verifyOut(t, "mis", s.Graph(), s.Output())
	st := s.Close()
	want := dynamic.Stats{Applied: 2, Duplicates: 1, Rejected: 1}
	if st.Applied != want.Applied || st.Duplicates != want.Duplicates || st.Rejected != want.Rejected {
		t.Fatalf("stats = %+v, want counts %+v", st, want)
	}
	sum := obs.Summarize(rec.Events())
	if sum.Stream == nil || sum.Stream.Applied != 2 || sum.Stream.Duplicates != 1 || sum.Stream.Rejected != 1 {
		t.Fatalf("trace summary = %+v", sum.Stream)
	}
}

// A session is deterministic and engine-independent: the same stream and
// chaos policy yield byte-identical outputs, reports, and canonical traces
// in sequential and pool mode.
func TestSessionEngineParity(t *testing.T) {
	for _, name := range sessionProblems {
		t.Run(name, func(t *testing.T) {
			type outcome struct {
				out     []int
				reports []dynamic.StepReport
				stats   dynamic.Stats
				edges   [][2]int
			}
			run := func(parallel bool) outcome {
				rng := rand.New(rand.NewSource(7))
				g := sessionGraph(t, name, 40, rng)
				s, err := dynamic.Open(g, name, dynamic.Options{Parallel: parallel})
				if err != nil {
					t.Fatal(err)
				}
				batches := randomBatches(name, g, 6, rng)
				sp := &fault.StreamPolicy{
					Seed: 99, Drop: 0.2, Duplicate: 0.25, Reorder: 0.25,
					StepFault: 0.5, Step: fault.Policy{Drop: 0.3},
				}
				reports, _, err := s.ApplyStream(batches, sp)
				if err != nil {
					t.Fatal(err)
				}
				verifyOut(t, name, s.Graph(), s.Output())
				return outcome{s.Output(), reports, s.Close(), s.Graph().Edges()}
			}
			seq, pool := run(false), run(true)
			if !reflect.DeepEqual(seq, pool) {
				t.Fatalf("engine modes disagree:\nseq  %+v\npool %+v", seq, pool)
			}
		})
	}
}

// TestSessionReorderHeavyEngineParity stresses the parity contract where
// delivery order diverges hardest from batch order: at Reorder 0.9 nearly
// every adjacent slot pair is swapped, so the session's accept/reject/dedupe
// decisions run against a maximally shuffled stream. Sequential and pool
// engines must still agree byte for byte.
func TestSessionReorderHeavyEngineParity(t *testing.T) {
	type outcome struct {
		out     []int
		reports []dynamic.StepReport
		stats   dynamic.Stats
		stream  fault.StreamStats
	}
	run := func(parallel bool) outcome {
		rng := rand.New(rand.NewSource(17))
		g := graph.GNP(40, 0.12, rng)
		s, err := dynamic.Open(g, "mis", dynamic.Options{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		batches := randomBatches("mis", g, 10, rng)
		sp := &fault.StreamPolicy{
			Seed: 23, Duplicate: 0.3, Reorder: 0.9,
			StepFault: 0.4, Step: fault.Policy{Drop: 0.3},
		}
		reports, stats, err := s.ApplyStream(batches, sp)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Reordered == 0 {
			t.Fatal("reorder-heavy stream had no swaps; the test exercises nothing")
		}
		verifyOut(t, "mis", s.Graph(), s.Output())
		return outcome{s.Output(), reports, s.Close(), stats}
	}
	seq, pool := run(false), run(true)
	if !reflect.DeepEqual(seq, pool) {
		t.Fatalf("engine modes disagree under a reorder-heavy stream:\nseq  %+v\npool %+v", seq, pool)
	}
}

func TestSessionStreamChaosConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := graph.GNP(50, 0.1, rng)
	s, err := dynamic.Open(g, "mis", dynamic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batches := randomBatches("mis", g, 12, rng)
	sp := &fault.StreamPolicy{
		Seed: 5, Drop: 0.25, Duplicate: 0.25, Reorder: 0.3,
		StepFault: 0.6, Step: fault.Policy{Drop: 0.4, Corrupt: 0.2},
	}
	reports, stats, err := s.ApplyStream(batches, sp)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Batches != 12 {
		t.Fatalf("stream stats %+v", stats)
	}
	if len(reports) == 0 {
		t.Fatal("no deliveries at drop rate 0.25")
	}
	verifyOut(t, "mis", s.Graph(), s.Output())
	assertFixedPoint(t, "mis", s.Graph(), s.Output())
	if err := verify.MIS(s.Graph(), s.Output()); err != nil {
		t.Fatalf("final output not a valid MIS: %v", err)
	}
}

func TestOpenRejectsMisconfiguration(t *testing.T) {
	if _, err := dynamic.Open(nil, "mis", dynamic.Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := graph.Ring(4)
	if _, err := dynamic.Open(g, "nope", dynamic.Options{}); err == nil {
		t.Fatal("unknown problem accepted")
	}
	if _, err := dynamic.Open(g, "ecolor", dynamic.Options{}); err == nil {
		t.Fatal("unhealable problem accepted")
	}
}
