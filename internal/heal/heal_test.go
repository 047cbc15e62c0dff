package heal_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/heal"
	"repro/internal/matching"
	"repro/internal/mis"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
	"repro/internal/vcolor"
	"repro/internal/verify"
)

// TestCarveFuzz: carving arbitrarily damaged output vectors always yields
// an extendable partial solution, and carving a valid solution is the
// identity with an empty residual.
func TestCarveFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(40)
		g := graph.GNP(n, 0.05+rng.Float64()*0.4, rng)
		damaged := make([]int, n)
		t.Run("mis", func(t *testing.T) {
			for i := range damaged {
				damaged[i] = rng.Intn(5) - 2 // {-2..2}: invalid, undecided, valid
			}
			partial, residual := heal.CarveMIS(g, damaged)
			if err := verify.MISPartialExtendable(g, partial); err != nil {
				t.Fatalf("carved MIS not extendable: %v\ndamaged: %v\npartial: %v", err, damaged, partial)
			}
			checkResidual(t, partial, residual)
		})
		t.Run("matching", func(t *testing.T) {
			for i := range damaged {
				switch rng.Intn(4) {
				case 0:
					damaged[i] = 0
				case 1:
					damaged[i] = verify.Undecided
				case 2:
					damaged[i] = 1 + rng.Intn(g.D()) // arbitrary id, often invalid
				default:
					if nbrs := g.Neighbors(i); len(nbrs) > 0 {
						damaged[i] = g.ID(int(nbrs[rng.Intn(len(nbrs))]))
					} else {
						damaged[i] = 0
					}
				}
			}
			partial, residual := heal.CarveMatching(g, damaged)
			if err := verify.MatchingPartialExtendable(g, partial); err != nil {
				t.Fatalf("carved matching not extendable: %v\ndamaged: %v\npartial: %v", err, damaged, partial)
			}
			checkResidual(t, partial, residual)
		})
		t.Run("vcolor", func(t *testing.T) {
			palette := g.MaxDegree() + 1
			for i := range damaged {
				damaged[i] = rng.Intn(palette+3) - 1 // under, in, and over palette
			}
			partial, residual := heal.CarveVColor(g, damaged)
			if err := verify.VColorPartial(g, partial, palette); err != nil {
				t.Fatalf("carved coloring not proper: %v\ndamaged: %v\npartial: %v", err, damaged, partial)
			}
			checkResidual(t, partial, residual)
		})
	}
}

func checkResidual(t *testing.T, partial, residual []int) {
	t.Helper()
	count := 0
	for _, p := range partial {
		if p == verify.Undecided {
			count++
		}
	}
	if count != len(residual) {
		t.Fatalf("residual size %d, want %d", len(residual), count)
	}
}

// TestCarveValidIsIdentity: a valid full solution survives carving intact.
func TestCarveValidIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.GNP(30, 0.2, rng)
	res, err := runtime.Run(runtime.Config{Graph: g, Factory: mis.SimpleGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, g.N())
	for i, o := range res.Outputs {
		out[i] = o.(int)
	}
	if err := verify.MIS(g, out); err != nil {
		t.Fatal(err)
	}
	partial, residual := heal.CarveMIS(g, out)
	if len(residual) != 0 {
		t.Fatalf("valid MIS left residual %v", residual)
	}
	for i := range out {
		if partial[i] != out[i] {
			t.Fatalf("node %d changed: %d -> %d", i, out[i], partial[i])
		}
	}
}

func misSpec() heal.Spec {
	return heal.Spec{
		Verify:        verify.MIS,
		Carve:         heal.CarveMIS,
		HealFactory:   mis.SimpleGreedy(),
		UndecidedPred: 0,
	}
}

// TestRunRecoveredMIS: drop-heavy chaos produces invalid or aborted MIS
// runs; RunRecovered must still return a verified-valid MIS every time.
func TestRunRecoveredMIS(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sawDamage := false
	for trial := 0; trial < 15; trial++ {
		g := graph.GNP(25+rng.Intn(20), 0.15, rng)
		report, err := heal.RunRecovered(runtime.Config{
			Graph:     g,
			Factory:   mis.SimpleGreedy(),
			MaxRounds: 80,
			Adversary: fault.New(fault.Policy{Seed: rng.Int63(), Drop: 0.4, Crash: 0.1}),
		}, misSpec())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := verify.MIS(g, report.Output); err != nil {
			t.Fatalf("trial %d: recovered output invalid: %v", trial, err)
		}
		if !report.Valid {
			sawDamage = true
			if !report.Healed {
				t.Fatalf("trial %d: invalid primary not healed: %+v", trial, report)
			}
			if report.RecoveryRounds <= 0 {
				t.Fatalf("trial %d: healed without recovery rounds", trial)
			}
		}
	}
	if !sawDamage {
		t.Fatal("no trial was damaged; the fuzz is vacuous — raise the fault rate")
	}
}

// TestRunRecoveredFromAbort: corruption makes the template machinery abort
// (unrecognizable payloads are protocol errors); recovery proceeds from the
// aborted run's partial result.
func TestRunRecoveredFromAbort(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	sawAbort := false
	for trial := 0; trial < 10; trial++ {
		g := graph.GNP(30, 0.2, rng)
		report, err := heal.RunRecovered(runtime.Config{
			Graph:     g,
			Factory:   mis.SimpleGreedy(),
			MaxRounds: 80,
			Adversary: fault.New(fault.Policy{Seed: rng.Int63(), Corrupt: 0.2}),
		}, misSpec())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if report.PrimaryErr != nil {
			sawAbort = true
		}
		if err := verify.MIS(g, report.Output); err != nil {
			t.Fatalf("trial %d: recovered output invalid: %v", trial, err)
		}
	}
	if !sawAbort {
		t.Fatal("no trial aborted; corruption should break the template protocol")
	}
}

// TestRunRecoveredMatchingAndVColor: the other two problems heal too.
func TestRunRecoveredMatchingAndVColor(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	specs := []struct {
		name string
		spec heal.Spec
		fac  runtime.Factory
		chk  func(g *graph.Graph, out []int) error
	}{
		{"matching", heal.Spec{
			Verify:        verify.Matching,
			Carve:         heal.CarveMatching,
			HealFactory:   matching.SimpleGreedy(),
			UndecidedPred: 0,
		}, matching.SimpleGreedy(), verify.Matching},
		{"vcolor", heal.Spec{
			Verify:        verify.VColor,
			Carve:         heal.CarveVColor,
			HealFactory:   vcolor.SimpleGreedy(),
			UndecidedPred: 0,
		}, vcolor.SimpleGreedy(), verify.VColor},
	}
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			for trial := 0; trial < 10; trial++ {
				g := graph.GNP(25, 0.2, rng)
				report, err := heal.RunRecovered(runtime.Config{
					Graph:     g,
					Factory:   s.fac,
					MaxRounds: 120,
					Adversary: fault.New(fault.Policy{Seed: rng.Int63(), Drop: 0.3, Crash: 0.1}),
				}, s.spec)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if err := s.chk(g, report.Output); err != nil {
					t.Fatalf("trial %d: recovered output invalid: %v", trial, err)
				}
			}
		})
	}
}

// TestRunRecoveredConfigError: a run that never starts is a plain error,
// not something to heal.
func TestRunRecoveredConfigError(t *testing.T) {
	g := graph.Line(3)
	_, err := heal.RunRecovered(runtime.Config{
		Graph:     g,
		Factory:   mis.SimpleGreedy(),
		Adversary: fault.Schedule{9: 1},
	}, misSpec())
	if err == nil {
		t.Fatal("config error swallowed by recovery")
	}
}

// TestExtendResultContract: Extend keeps every decided node of an
// extendable partial MIS and verifies the extension. It returns the run's
// result whether the run completed or aborted (here, a round cap too small
// to finish: the partial result of the last completed round), and an error
// matches ErrInvalid exactly when the run completed but its output did not
// verify.
func TestExtendResultContract(t *testing.T) {
	g := graph.GNP(40, 0.1, rand.New(rand.NewSource(3)))
	good := make([]int, g.N())
	for i := range good {
		good[i] = verify.Undecided
	}
	good[0] = 1
	for _, u := range g.Neighbors(0) {
		good[u] = 0
	}
	out, res, err := heal.Extend(runtime.Config{Graph: g}, misSpec(), good)
	if err != nil || res == nil {
		t.Fatalf("Extend: res=%v err=%v", res, err)
	}
	if verify.MIS(g, out) != nil || out[0] != 1 {
		t.Fatalf("extension %v is not a valid MIS keeping node 0", out)
	}

	out, res, err = heal.Extend(runtime.Config{Graph: g, MaxRounds: 1}, misSpec(), good)
	if !errors.Is(err, runtime.ErrNoTermination) || errors.Is(err, heal.ErrInvalid) || out != nil {
		t.Fatalf("capped run: out=%v err=%v, want an aborted run", out, err)
	}
	if res == nil || res.Rounds != 1 {
		t.Fatalf("capped run: res=%+v, want the partial result of round 1", res)
	}

	reject := misSpec()
	reject.Verify = func(*graph.Graph, []int) error { return errors.New("rejected") }
	_, res, err = heal.Extend(runtime.Config{Graph: g}, reject, good)
	if !errors.Is(err, heal.ErrInvalid) || err.Error() != "rejected" || res == nil {
		t.Fatalf("rejected output: res=%v err=%v, want a completed run with the verifier's error", res, err)
	}
}
