package repro_test

import (
	"testing"

	"repro"
)

func TestSessionPublicAPI(t *testing.T) {
	rng := repro.NewRand(1)
	g := repro.GNP(50, 0.1, rng)
	s, err := repro.NewSession(g, "mis", repro.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	step, err := s.Apply(repro.UpdateBatch{Seq: 1, Updates: []repro.EdgeUpdate{
		{Op: repro.EdgeInsert, U: 0, V: 1},
		{Op: repro.EdgeDelete, U: 2, V: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if step.Outcome != "applied" {
		t.Fatalf("step outcome %q", step.Outcome)
	}
	out := s.Output()
	if len(out) != 50 {
		t.Fatalf("output length %d", len(out))
	}
	if res, err := repro.CheckPredictions(s.Graph(), "mis", out, repro.Options{}); err != nil || !res.AllAccept {
		t.Fatalf("distributed checker rejects the session output: %v %+v", err, res)
	}
	st := s.Close()
	if st.Applied != 1 {
		t.Fatalf("stats %+v", st)
	}
	if _, err := s.Apply(repro.UpdateBatch{Seq: 2}); err != repro.ErrSessionClosed {
		t.Fatalf("Apply after Close = %v", err)
	}
}

func TestRunSessionOneShot(t *testing.T) {
	rng := repro.NewRand(2)
	g := repro.GNP(40, 0.1, rng)
	batches := []repro.UpdateBatch{
		{Seq: 0, Updates: []repro.EdgeUpdate{{Op: repro.EdgeInsert, U: 0, V: 5}}},
		{Seq: 1, Updates: []repro.EdgeUpdate{{Op: repro.EdgeDelete, U: 0, V: 5}}},
		{Seq: 2, Updates: []repro.EdgeUpdate{{Op: repro.EdgeInsert, U: 3, V: 7}}},
	}
	rep, err := repro.RunSession(g, "vcolor", batches, &repro.StreamPolicy{
		Seed: 4, Drop: 0.2, Duplicate: 0.3, Reorder: 0.3,
		StepFault: 0.5, Step: repro.ChaosPolicy{Drop: 0.3},
	}, repro.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stream.Batches != 3 {
		t.Fatalf("stream stats %+v", rep.Stream)
	}
	if len(rep.Output) != 40 || rep.FinalGraph == nil {
		t.Fatalf("report incomplete: %+v", rep)
	}
	if res, err := repro.CheckPredictions(rep.FinalGraph, "vcolor", rep.Output, repro.Options{}); err != nil || !res.AllAccept {
		t.Fatalf("checker rejects one-shot session output: %v", err)
	}
}
