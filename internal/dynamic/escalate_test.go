package dynamic_test

import (
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/runtime"
)

// blackhole drops every message: an incremental attempt under it cannot make
// progress and fails its round cap, forcing the degradation ladder.
type blackhole struct{}

func (blackhole) Crashes(n int) map[int]int { return nil }
func (blackhole) Intercept(round, from, to int, payload runtime.Payload, bits int) runtime.Fate {
	return runtime.Fate{Drop: true}
}

// damagingBatch returns a batch that invalidates the MIS: an inserted edge
// between two in-set nodes.
func damagingBatch(t *testing.T, g *graph.Graph, out []int) dynamic.Batch {
	t.Helper()
	for u := 0; u < g.N(); u++ {
		if out[u] != 1 {
			continue
		}
		for v := u + 1; v < g.N(); v++ {
			if out[v] == 1 && !g.HasEdge(u, v) {
				return dynamic.Batch{Seq: 1, Updates: []dynamic.Update{{Op: dynamic.Insert, U: u, V: v}}}
			}
		}
	}
	t.Fatal("no non-adjacent in-set pair to damage")
	return dynamic.Batch{}
}

// checkerAccepts runs the problem's constant-round distributed checker on
// the output and requires a unanimous accept.
func checkerAccepts(t *testing.T, name string, g *graph.Graph, out []int) {
	t.Helper()
	d, err := problem.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := d.EncodePreds(out)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.Run(runtime.Config{Graph: g, Factory: d.Checker(), Predictions: preds})
	if err != nil {
		t.Fatalf("checker run: %v", err)
	}
	for i, o := range res.Outputs {
		if v, ok := o.(int); !ok || v != check.Accept {
			t.Fatalf("checker node %d rejected (%v)", i, o)
		}
	}
}

func retryEvents(rec *obs.Recorder) []obs.Event {
	var out []obs.Event
	for _, e := range rec.Events() {
		if e.Type == obs.EvRetry {
			out = append(out, e)
		}
	}
	return out
}

// Every incremental attempt fails under the blackhole, so the ladder must
// walk its full length — carve, widen, from-scratch — in order, and the
// final fault-free rung must still produce a checker-accepted solution.
func TestEscalationLadderWalksToFullRerun(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.GNP(40, 0.1, rng)
	rec := obs.NewRecorder(0)
	s, err := dynamic.Open(g, "mis", dynamic.Options{
		StepMaxRounds: 20,
		Trace:         rec,
		Adversary: func(step, attempt int) runtime.Adversary {
			return blackhole{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Apply(damagingBatch(t, g, s.Output()))
	if err != nil {
		t.Fatalf("session wedged instead of degrading: %v", err)
	}
	if rep.Attempts != 3 || rep.Widened != 1 || !rep.FullRerun {
		t.Fatalf("ladder shape: %+v, want 3 attempts, 1 widening, full re-run", rep)
	}
	if rep.Residual != s.Graph().N() {
		t.Fatalf("full re-run residual = %d, want whole graph %d", rep.Residual, s.Graph().N())
	}
	evs := retryEvents(rec)
	if len(evs) != 2 || evs[0].Name != "widen" || evs[1].Name != "full" {
		t.Fatalf("retry events = %+v, want widen then full", evs)
	}
	if evs[0].Value != 0 || evs[1].Value != 1 || evs[0].Err == "" || evs[1].Err == "" {
		t.Fatalf("retry events missing attempt index or cause: %+v", evs)
	}
	verifyOut(t, "mis", s.Graph(), s.Output())
	checkerAccepts(t, "mis", s.Graph(), s.Output())
	st := s.Close()
	if st.Widened != 1 || st.FullReruns != 1 {
		t.Fatalf("stats escalations = %+v", st)
	}
	sum := obs.Summarize(rec.Events())
	if sum.Stream == nil || sum.Stream.Widened != 1 || sum.Stream.FullReruns != 1 {
		t.Fatalf("trace summary escalations = %+v", sum.Stream)
	}
}

// Failing only attempt 0 must stop the ladder at the widening rung: one
// escalation event, no from-scratch run.
func TestEscalationStopsAtWidenRung(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.GNP(40, 0.1, rng)
	rec := obs.NewRecorder(0)
	s, err := dynamic.Open(g, "mis", dynamic.Options{
		StepMaxRounds: 20,
		Trace:         rec,
		Adversary: func(step, attempt int) runtime.Adversary {
			if attempt == 0 {
				return blackhole{}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Apply(damagingBatch(t, g, s.Output()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 2 || rep.Widened != 1 || rep.FullRerun {
		t.Fatalf("ladder shape: %+v, want 2 attempts, 1 widening, no full re-run", rep)
	}
	if rep.Residual <= 0 || rep.Residual >= s.Graph().N() {
		t.Fatalf("widened rung residual = %d, want strictly between 0 and n", rep.Residual)
	}
	evs := retryEvents(rec)
	if len(evs) != 1 || evs[0].Name != "widen" {
		t.Fatalf("retry events = %+v, want exactly one widen", evs)
	}
	verifyOut(t, "mis", s.Graph(), s.Output())
	checkerAccepts(t, "mis", s.Graph(), s.Output())
	if st := s.Close(); st.FullReruns != 0 {
		t.Fatalf("stats report a from-scratch run: %+v", st)
	}
}

// A deeper ladder (MaxRetries = 3) takes two widening rungs before the
// from-scratch run, and the widen → widen → full event order is preserved.
func TestEscalationDeeperLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.GNP(40, 0.1, rng)
	rec := obs.NewRecorder(0)
	s, err := dynamic.Open(g, "mis", dynamic.Options{
		MaxRetries:    3,
		StepMaxRounds: 20,
		Trace:         rec,
		Adversary: func(step, attempt int) runtime.Adversary {
			return blackhole{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Apply(damagingBatch(t, g, s.Output()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 4 || rep.Widened != 2 || !rep.FullRerun {
		t.Fatalf("ladder shape: %+v, want 4 attempts, 2 widenings, full re-run", rep)
	}
	evs := retryEvents(rec)
	if len(evs) != 3 || evs[0].Name != "widen" || evs[1].Name != "widen" || evs[2].Name != "full" {
		t.Fatalf("retry events = %+v, want widen, widen, full", evs)
	}
	verifyOut(t, "mis", s.Graph(), s.Output())
}

// The pre-verify shortcut: a batch that leaves the output valid (deleting an
// edge between an in-set and an out-set node keeps both justified when the
// out-set node has another in-set neighbor) heals for free.
func TestStepSkipsHealWhenOutputSurvives(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := graph.GNP(40, 0.15, rng)
	s, err := dynamic.Open(g, "mis", dynamic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := s.Output()
	var b *dynamic.Batch
	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		if out[u]+out[v] != 1 {
			continue
		}
		zero := u
		if out[v] == 0 {
			zero = v
		}
		inset := 0
		for _, w := range g.Neighbors(zero) {
			if out[w] == 1 {
				inset++
			}
		}
		if inset >= 2 {
			b = &dynamic.Batch{Seq: 1, Updates: []dynamic.Update{{Op: dynamic.Delete, U: u, V: v}}}
			break
		}
	}
	if b == nil {
		t.Skip("no survivable deletion in this instance")
	}
	rep, err := s.Apply(*b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 0 || rep.Rounds != 0 || rep.Residual != 0 {
		t.Fatalf("survivable batch still healed: %+v", rep)
	}
	verifyOut(t, "mis", s.Graph(), s.Output())
}
