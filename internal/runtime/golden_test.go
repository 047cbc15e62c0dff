package runtime_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
)

// engineGoldenPath holds one "case digest" line per golden run. The digests
// were captured from the engine before its routers were merged, so they pin
// the historical sequential behaviour independently of any engine mode that
// still exists.
const engineGoldenPath = "testdata/engine_golden.txt"

// goldenDigest hashes everything the determinism contract covers for one
// run: the error surface, every Result field, the fault totals of the trace
// summary, and the canonical trace with the shard-count-dependent ledger
// events dropped.
func goldenDigest(t *testing.T, res *runtime.Result, err error, trace []obs.Event) string {
	t.Helper()
	h := sha256.New()
	if err != nil {
		fmt.Fprintf(h, "err %s\n", err)
	} else {
		f := obs.Summarize(trace).Runs[0]
		fmt.Fprintf(h, "rounds %d msgs %d maxbits %d dropped %d/%d injected %d corrupted %d\n",
			res.Rounds, res.Messages, res.MaxMsgBits, f.Dropped, f.DroppedBits, f.Duplicated, f.Corrupted)
		for i, out := range res.Outputs {
			fmt.Fprintf(h, "%d %T %v %d\n", i, out, out, res.TerminatedAt[i])
		}
	}
	if err := obs.WriteJSONL(h, obs.Canonical(dropShardEvents(trace))); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func readEngineGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(engineGoldenPath)
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

// TestEngineGoldenTraces checks a fixed matrix of runs — five topologies,
// with and without a chaos adversary, echo and flood machines (batched and
// per-message) — against digests frozen in testdata. Every case must
// reproduce its digest on every engine configuration: shard counts
// {0, 1, 2, 4}, each sequential and Parallel.
func TestEngineGoldenTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"ring64", graph.Ring(64)},
		{"gnp50", graph.GNP(50, 0.15, rng)},
		{"ba60", graph.BarabasiAlbert(60, 3, rng)},
		{"star33", graph.Star(33)},
		{"line3", graph.Line(3)},
	}
	chaos := fault.Policy{Seed: 5, Drop: 0.15, Duplicate: 0.15, Corrupt: 0.1, LinkFail: 0.1, Crash: 0.1}
	factories := []struct {
		name    string
		factory runtime.Factory
	}{
		{"echo", echoFactory(3)},
		{"bcast-batched", bcastFactory(3, true)},
		{"bcast-permsg", bcastFactory(3, false)},
	}
	want := readEngineGolden(t)
	cases := 0
	for _, gc := range graphs {
		for _, adversary := range []bool{false, true} {
			for _, fc := range factories {
				name := fmt.Sprintf("%s/chaos=%v/%s", gc.name, adversary, fc.name)
				cases++
				digest, ok := want[name]
				if !ok {
					t.Errorf("no golden digest for %s", name)
				}
				for _, shards := range []int{0, 1, 2, 4} {
					for _, parallel := range []bool{false, true} {
						rec := obs.NewRecorder(1 << 16)
						cfg := runtime.Config{
							Graph:    gc.g,
							Factory:  fc.factory,
							Shards:   shards,
							Parallel: parallel,
							Trace:    rec,
						}
						if adversary {
							cfg.Adversary = fault.New(chaos)
						}
						res, err := runtime.Run(cfg)
						if rec.Dropped() > 0 {
							t.Fatalf("%s: trace recorder overflowed", name)
						}
						if got := goldenDigest(t, res, err, rec.Events()); got != digest {
							t.Errorf("%s shards=%d parallel=%v: digest mismatch\ngot:  %s %s", name, shards, parallel, name, got)
						}
					}
				}
			}
		}
	}
	if len(want) != cases {
		t.Errorf("golden file has %d digests, the matrix has %d cases", len(want), cases)
	}
}
