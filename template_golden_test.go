package repro_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro"
)

// templateGoldenPath holds one "case digest" line per (problem, algorithm,
// fault mode). The digests pin the error surface, outputs, round and
// message counts and canonical trace of every registered algorithm, so a
// refactor of the template combinators must reproduce them byte for byte on
// every engine.
const templateGoldenPath = "testdata/template_golden.txt"

// templateChaos drops, duplicates and crashes but never corrupts: a
// corrupted delivery fails the run with a template error whose text names
// the combinator's internals, which the digests deliberately leave free.
var templateChaos = repro.ChaosPolicy{Seed: 6161, Drop: 0.2, Duplicate: 0.1, Crash: 0.05}

// templateDigest runs one registered pair and hashes its error, outputs,
// rounds, messages and canonical trace without the shard-exchange events.
func templateDigest(t *testing.T, g *repro.Graph, problem, alg string, preds any, chaos bool, opts repro.Options) string {
	t.Helper()
	rec := repro.NewTraceRecorder(1 << 18)
	opts.Seed, opts.Trace = 7, rec
	if chaos {
		opts.Adversary = repro.NewChaos(templateChaos)
	}
	res, err := repro.RunProblem(g, problem, alg, preds, opts)
	if rec.Dropped() > 0 {
		t.Fatal("trace recorder overflowed")
	}
	h := sha256.New()
	if err != nil {
		fmt.Fprintf(h, "err %s\n", err)
	} else {
		fmt.Fprintf(h, "rounds %d msgs %d\noutput %v\nedges %v\n", res.Run.Rounds, res.Run.Messages, res.Output, res.EdgeOutput)
	}
	return hashEvents(t, h, dropShardEvents(rec.Events()))
}

// TestTemplateGoldenTraces checks every registered (problem, algorithm)
// pair, clean and under chaos, against digests frozen in testdata. Each
// case must reproduce its digest on the sequential, worker-pool and
// 2-shard engines.
func TestTemplateGoldenTraces(t *testing.T) {
	want := readGolden(t, templateGoldenPath)
	engines := []struct {
		name string
		opts repro.Options
	}{
		{"seq", repro.Options{}},
		{"pool", repro.Options{Parallel: true}},
		{"shards2", repro.Options{Shards: 2}},
	}
	cases := 0
	for _, p := range repro.Problems() {
		rng := repro.NewRand(9090)
		g := repro.GNP(90, 0.07, rng)
		if p.Name == "tree" {
			g = repro.RandomTree(90, rng)
		}
		preds, err := repro.GeneratePreds(p.Name, g, 12, 9091)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range p.Algorithms {
			for _, chaos := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/chaos=%v", p.Name, a.Name, chaos)
				cases++
				digest, ok := want[name]
				if !ok {
					t.Errorf("no golden digest for %s", name)
				}
				for _, e := range engines {
					if got := templateDigest(t, g, p.Name, a.Name, preds, chaos, e.opts); got != digest {
						t.Errorf("%s %s: digest mismatch\ngot:  %s %s", name, e.name, name, got)
					}
				}
			}
		}
	}
	if len(want) != cases {
		t.Errorf("golden file has %d digests, the matrix has %d cases", len(want), cases)
	}
}
