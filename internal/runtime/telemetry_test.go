package runtime_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/shard"
)

// TestEngineTelemetryPhases checks that an attached Telemetry records one
// observation per round in each phase histogram, for one shard (sequential
// and Parallel) and four shards (from Shards or from a Partition), that the
// shards label carries the shard count, and that attaching it changes no
// result.
func TestEngineTelemetryPhases(t *testing.T) {
	const n, rounds = 64, 5
	g := graph.Ring(n)
	for _, mode := range []struct {
		name     string
		parallel bool
		shards   int
		part     *shard.Partition
		label    int
	}{
		{"seq", false, 0, nil, 1},
		{"par", true, 0, nil, 1},
		{"shard4", false, 4, nil, 4},
		{"partition4", false, 0, shard.Contiguous(n, 4), 4},
	} {
		t.Run(mode.name, func(t *testing.T) {
			bare, err := runtime.Run(runtime.Config{
				Graph:     g,
				Factory:   ringBenchFactory(rounds, false),
				Parallel:  mode.parallel,
				Shards:    mode.shards,
				Partition: mode.part,
			})
			if err != nil {
				t.Fatal(err)
			}
			tel := obs.NewTelemetry(nil)
			res, err := runtime.Run(runtime.Config{
				Graph:     g,
				Factory:   ringBenchFactory(rounds, false),
				Parallel:  mode.parallel,
				Shards:    mode.shards,
				Partition: mode.part,
				Telemetry: tel,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds != bare.Rounds || res.Messages != bare.Messages {
				t.Fatalf("telemetry changed the run: %d rounds/%d msgs vs %d/%d",
					res.Rounds, res.Messages, bare.Rounds, bare.Messages)
			}
			snap := tel.Registry().Snapshot()
			if len(snap.Histograms) != 4 {
				t.Fatalf("want 4 phase histograms, got %d", len(snap.Histograms))
			}
			seen := map[string]bool{}
			for _, h := range snap.Histograms {
				if h.Count != uint64(res.Rounds) {
					t.Errorf("%s: %d observations for %d rounds", h.Name, h.Count, res.Rounds)
				}
				seen[h.Name] = true
			}
			for _, phase := range []string{"send", "route", "receive", "round"} {
				want := `dgp_round_seconds{phase="` + phase + `",shards="` + itoa(mode.label) + `"}`
				if !seen[want] {
					t.Errorf("missing series %s (have %v)", want, seen)
				}
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestEngineTelemetryDeterminism: with telemetry attached, traces stay
// byte-identical to a bare run — the histograms decorate the registry only.
func TestEngineTelemetryDeterminism(t *testing.T) {
	const n, rounds = 64, 5
	g := graph.Ring(n)
	trace := func(tel *obs.Telemetry) []obs.Event {
		rec := obs.NewRecorder(0)
		if _, err := runtime.Run(runtime.Config{
			Graph:     g,
			Factory:   ringBenchFactory(rounds, false),
			Trace:     rec,
			Telemetry: tel,
		}); err != nil {
			t.Fatal(err)
		}
		return rec.Events()
	}
	bare := obs.Canonical(trace(nil))
	with := obs.Canonical(trace(obs.NewTelemetry(nil)))
	if i, desc, ok := obs.Diff(bare, with); !ok {
		t.Fatalf("telemetry perturbed the trace at event %d: %s", i, desc)
	}
}
