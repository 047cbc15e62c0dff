package repro_test

import (
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/runtime/fault"
)

// checkMIS asserts out is a maximal independent set of g.
func checkMIS(t *testing.T, g *repro.Graph, out []int) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		if out[v] != 0 && out[v] != 1 {
			t.Fatalf("node %d output %d", v, out[v])
		}
	}
	for v := 0; v < g.N(); v++ {
		sawOne := out[v] == 1
		for u := 0; u < g.N(); u++ {
			if !g.HasEdge(v, u) {
				continue
			}
			if out[v] == 1 && out[u] == 1 {
				t.Fatalf("adjacent in-set nodes %d, %d", v, u)
			}
			if out[u] == 1 {
				sawOne = true
			}
		}
		if !sawOne {
			t.Fatalf("node %d has no in-set closed neighbor (not maximal)", v)
		}
	}
}

// TestRunWithRecoveryFuzz: under a sweep of chaos policies,
// RunProblemWithRecovery always returns a verified-valid solution for all
// three problems, and at least some runs were actually damaged and healed
// (the acceptance criterion for the recovery path).
func TestRunWithRecoveryFuzz(t *testing.T) {
	problems := []struct {
		name string
		seed int64
	}{
		{"mis", 1001},
		{"matching", 1002},
		{"vcolor", 1003},
	}
	for _, prob := range problems {
		t.Run(prob.name, func(t *testing.T) {
			rng := repro.NewRand(prob.seed)
			healed := 0
			for trial := 0; trial < 12; trial++ {
				g := repro.GNP(20+rng.Intn(25), 0.12+rng.Float64()*0.15, rng)
				res, err := repro.RunProblemWithRecovery(g, prob.name, nil, repro.Options{
					MaxRounds: 150,
					Adversary: repro.NewChaos(repro.ChaosPolicy{
						Seed:      rng.Int63(),
						Drop:      rng.Float64() * 0.4,
						Duplicate: rng.Float64() * 0.2,
						Corrupt:   rng.Float64() * 0.15,
						Crash:     rng.Float64() * 0.15,
					}),
				})
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if !res.Valid && !res.Healed {
					t.Fatalf("trial %d: neither valid nor healed: %+v", trial, res)
				}
				if res.Healed {
					healed++
					if res.Residual == 0 && res.PrimaryErr == nil {
						t.Fatalf("trial %d: healed with no residual and no abort: %+v", trial, res)
					}
					if res.TotalRounds() <= res.PrimaryRounds {
						t.Fatalf("trial %d: recovery reported no rounds: %+v", trial, res)
					}
				}
				if prob.name == "mis" {
					checkMIS(t, g, res.Output)
				}
			}
			if healed == 0 {
				t.Fatal("no trial needed healing; the fuzz is vacuous")
			}
		})
	}
}

// TestRecoverOption: RunProblem becomes self-healing under Options.Recover,
// including when the primary run would abort outright.
func TestRecoverOption(t *testing.T) {
	g := repro.GNP(40, 0.15, repro.NewRand(7))
	opts := repro.Options{
		MaxRounds: 150,
		Recover:   true,
		Adversary: repro.NewChaos(repro.ChaosPolicy{Seed: 11, Drop: 0.4, Crash: 0.1}),
	}
	mis, err := repro.RunProblem(g, "mis", "simple", nil, opts)
	if err != nil {
		t.Fatalf("mis with Recover: %v", err)
	}
	checkMIS(t, g, mis.Output)
	if mis.Run.Rounds <= 0 {
		t.Fatalf("no rounds reported: %+v", mis.Run)
	}

	opts.Adversary = repro.NewChaos(repro.ChaosPolicy{Seed: 12, Drop: 0.4, Crash: 0.1})
	match, err := repro.RunProblem(g, "matching", "simple", nil, opts)
	if err != nil {
		t.Fatalf("matching with Recover: %v", err)
	}
	if len(match.Output) != g.N() {
		t.Fatalf("partner vector length %d", len(match.Output))
	}

	opts.Adversary = repro.NewChaos(repro.ChaosPolicy{Seed: 13, Drop: 0.4, Crash: 0.1})
	vc, err := repro.RunProblem(g, "vcolor", "simple", nil, opts)
	if err != nil {
		t.Fatalf("vcolor with Recover: %v", err)
	}
	palette := g.MaxDegree() + 1
	for v, c := range vc.Output {
		if c < 1 || c > palette {
			t.Fatalf("node %d color %d outside palette", v, c)
		}
	}

	// Edge coloring has no recovery path: explicit error, not a silent run.
	if _, err := repro.RunProblem(g, "ecolor", "simple", nil, repro.Options{Recover: true}); err == nil {
		t.Fatal("ecolor accepted Options.Recover")
	}
}

// TestRecoverPreservesConfigErrors: misconfiguration fails even in
// recovery mode.
func TestRecoverPreservesConfigErrors(t *testing.T) {
	g := repro.Line(3)
	_, err := repro.RunProblem(g, "mis", "simple", nil, repro.Options{
		Recover:   true,
		Adversary: fault.Schedule{5: 1}, // out of range
	})
	if err == nil {
		t.Fatal("out-of-range crash index accepted in recovery mode")
	}
}

// TestOnRoundStats: the engine's per-round instrumentation reaches library
// users through Options.OnRoundStats, and its per-round message counts sum
// to the run total.
func TestOnRoundStats(t *testing.T) {
	g := repro.GNP(30, 0.2, repro.NewRand(3))
	var records []repro.RoundStats
	res, err := repro.RunProblem(g, "mis", "simple", repro.PerfectMIS(g), repro.Options{
		OnRoundStats: func(s repro.RoundStats) { records = append(records, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != res.Run.Rounds {
		t.Fatalf("%d stats records for %d rounds", len(records), res.Run.Rounds)
	}
	total := 0
	for i, s := range records {
		if s.Round != i+1 {
			t.Fatalf("record %d has round %d", i, s.Round)
		}
		total += s.Messages
	}
	if total != res.Run.Messages {
		t.Fatalf("per-round messages sum to %d, run total %d", total, res.Run.Messages)
	}
	if records[0].Active != g.N() {
		t.Fatalf("round 1 active = %d, want %d", records[0].Active, g.N())
	}
	if records[0].Bits <= 0 {
		t.Fatalf("round 1 bits = %d, want > 0 (init notifications are sized)", records[0].Bits)
	}
}

// TestRoundDeadlinePublic: a generous deadline does not disturb a healthy
// public-API run.
func TestRoundDeadlinePublic(t *testing.T) {
	g := repro.Line(20)
	res, err := repro.RunProblem(g, "mis", "simple", repro.PerfectMIS(g), repro.Options{
		RoundDeadline: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Rounds <= 0 {
		t.Fatal("no rounds")
	}
}

// TestRecoveryTelemetryCoversHealingRun: Options.Telemetry observes the
// healing run as well as the primary one, so on a run whose primary
// completes with an invalid output the round histogram counts exactly
// PrimaryRounds + RecoveryRounds rounds.
func TestRecoveryTelemetryCoversHealingRun(t *testing.T) {
	g := repro.GNP(90, 0.07, repro.NewRand(31))
	preds, err := repro.GeneratePreds("mis", g, 12, 32)
	if err != nil {
		t.Fatal(err)
	}
	tel := repro.NewTelemetry(nil)
	res, err := repro.RunProblemWithRecovery(g, "mis", preds, repro.Options{
		MaxRounds: 80,
		Telemetry: tel,
		Adversary: repro.NewChaos(repro.ChaosPolicy{Seed: 33, LinkFail: 0.1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PrimaryErr != nil || res.Valid || !res.Healed {
		t.Fatalf("want a completed primary with an invalid output, got %+v", res)
	}
	rounds := uint64(0)
	for _, h := range tel.Registry().Snapshot().Histograms {
		if strings.HasPrefix(h.Name, `dgp_round_seconds{phase="round"`) {
			rounds += h.Count
		}
	}
	if want := uint64(res.PrimaryRounds + res.RecoveryRounds); rounds != want {
		t.Fatalf("round histogram counts %d rounds, want primary %d + recovery %d",
			rounds, res.PrimaryRounds, res.RecoveryRounds)
	}
}
