package repro_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"repro"
	"repro/internal/obs"
)

// healGoldenPath holds one "case digest" line per golden healing run. The
// digests pin the outputs, the recovery or session counters and the
// canonical trace of self-healing runs, so a refactor of the healing path
// must reproduce them byte for byte on both engines.
const healGoldenPath = "testdata/heal_golden.txt"

// readGolden parses a golden file of "case digest" lines; blank lines and
// "#" comments are skipped.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digest, ok := strings.Cut(line, " ")
		if ok {
			want[name] = digest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// hashTrace appends the canonical trace to h and returns the hex digest.
func hashTrace(t *testing.T, h hash.Hash, rec *repro.TraceRecorder) string {
	t.Helper()
	if rec.Dropped() > 0 {
		t.Fatal("trace recorder overflowed")
	}
	return hashEvents(t, h, rec.Events())
}

// hashEvents appends the canonical form of events to h and returns the hex
// digest.
func hashEvents(t *testing.T, h hash.Hash, events []repro.TraceEvent) string {
	t.Helper()
	if err := obs.WriteJSONL(h, obs.Canonical(events)); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// recoveryDigest runs RunProblemWithRecovery under a seeded chaos policy and
// hashes the output, every RecoveryResult counter and the canonical trace.
func recoveryDigest(t *testing.T, problem string, parallel bool) (string, *repro.RecoveryResult) {
	t.Helper()
	rng := repro.NewRand(4242)
	g := repro.GNP(90, 0.07, rng)
	if problem == "tree" {
		g = repro.RandomTree(90, rng)
	}
	preds, err := repro.GeneratePreds(problem, g, 12, 4243)
	if err != nil {
		t.Fatal(err)
	}
	rec := repro.NewTraceRecorder(1 << 17)
	res, err := repro.RunProblemWithRecovery(g, problem, preds, repro.Options{
		Parallel:  parallel,
		MaxRounds: 80,
		Trace:     rec,
		Adversary: repro.NewChaos(repro.ChaosPolicy{Seed: 4244, Drop: 0.3, Duplicate: 0.15, Crash: 0.1}),
	})
	if err != nil {
		t.Fatalf("%s parallel=%v: %v", problem, parallel, err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "primaryErr %v valid %v healed %v residual %d primary %d/%d recovery %d/%d\n",
		res.PrimaryErr, res.Valid, res.Healed, res.Residual,
		res.PrimaryRounds, res.PrimaryMessages, res.RecoveryRounds, res.RecoveryMessages)
	fmt.Fprintf(h, "output %v\n", res.Output)
	return hashTrace(t, h, rec), res
}

// sessionDigest streams damaging batches through RunSession under a
// StreamPolicy with heavy per-step chaos and a tight per-step round cap, so
// the degradation ladder runs through widening and from-scratch rungs. It
// hashes the per-step reports, the stream and session counters, the final
// output and graph, and the canonical trace.
func sessionDigest(t *testing.T, problem string, parallel bool) (string, *repro.SessionReport) {
	t.Helper()
	rng := repro.NewRand(5151)
	const n = 70
	g := repro.GNP(n, 0.06, rng)
	batches := make([]repro.UpdateBatch, 16)
	for b := range batches {
		var ups []repro.EdgeUpdate
		for i := 0; i < 6; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				ups = append(ups, repro.EdgeUpdate{Op: repro.EdgeInsert, U: u, V: v})
			}
		}
		edges := g.Edges()
		e := edges[rng.Intn(len(edges))]
		ups = append(ups, repro.EdgeUpdate{Op: repro.EdgeDelete, U: e[0], V: e[1]})
		batches[b] = repro.UpdateBatch{Seq: b, Updates: ups}
	}
	sp := &repro.StreamPolicy{
		Seed: 5152, Drop: 0.1, Duplicate: 0.15, Reorder: 0.2, StepFault: 0.5,
		Step: repro.ChaosPolicy{Drop: 0.3},
	}
	rec := repro.NewTraceRecorder(1 << 17)
	rep, err := repro.RunSession(g, problem, batches, sp, repro.SessionOptions{
		Parallel:      parallel,
		MaxRetries:    3,
		StepMaxRounds: 10,
		Trace:         rec,
	})
	if err != nil {
		t.Fatalf("%s parallel=%v: %v", problem, parallel, err)
	}
	h := sha256.New()
	for _, st := range rep.Steps {
		fmt.Fprintf(h, "step %d %s err=%v updates %d damaged %d residual %d attempts %d widened %d full %v rounds %d msgs %d\n",
			st.Seq, st.Outcome, st.Err, st.Updates, st.Damaged, st.Residual,
			st.Attempts, st.Widened, st.FullRerun, st.Rounds, st.Messages)
	}
	fmt.Fprintf(h, "stream %+v\nstats %+v\noutput %v\nedges %v\n", rep.Stream, rep.Stats, rep.Output, rep.FinalGraph.Edges())
	return hashTrace(t, h, rec), rep
}

// TestHealGoldenTraces checks the self-healing paths against digests frozen
// in testdata: RunProblemWithRecovery under chaos for every problem with
// healing machinery, and chaotic RunSession streams for MIS and vertex
// coloring. Each case must reproduce its digest on the sequential and the
// worker-pool engine.
func TestHealGoldenTraces(t *testing.T) {
	want := readGolden(t, healGoldenPath)
	cases := 0
	check := func(name, got string, parallel bool) {
		t.Helper()
		digest, ok := want[name]
		if !ok {
			t.Errorf("no golden digest for %s", name)
		}
		if got != digest {
			t.Errorf("%s parallel=%v: digest mismatch\ngot:  %s %s", name, parallel, name, got)
		}
	}
	healed := 0
	for _, problem := range []string{"mis", "matching", "vcolor", "tree"} {
		name := "recover/" + problem
		cases++
		for _, parallel := range []bool{false, true} {
			got, res := recoveryDigest(t, problem, parallel)
			check(name, got, parallel)
			if res.Healed {
				healed++
			}
		}
	}
	if healed == 0 {
		t.Error("no recovery case healed: the healing run is not pinned")
	}
	ladder := false
	for _, problem := range []string{"mis", "vcolor"} {
		name := "session/" + problem
		cases++
		for _, parallel := range []bool{false, true} {
			got, rep := sessionDigest(t, problem, parallel)
			check(name, got, parallel)
			if rep.Stats.Widened > 0 && rep.Stats.FullReruns > 0 {
				ladder = true
			}
		}
	}
	if !ladder {
		t.Error("no session case widened and reran from scratch: the ladder is not pinned")
	}
	if len(want) != cases {
		t.Errorf("golden file has %d digests, the matrix has %d cases", len(want), cases)
	}
}
