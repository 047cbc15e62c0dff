package runtime_test

import (
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
)

// panicMachine panics in Send or Receive at a given round.
type panicMachine struct {
	phase string
	round int
}

func (m *panicMachine) Send(env *runtime.Env) []runtime.Out {
	if m.phase == "send" && env.Round() == m.round {
		panic("injected send panic")
	}
	if env.Round() > 3 {
		env.Output(0)
		env.Terminate()
		return nil
	}
	return broadcast(env, echoPayload{Round: env.Round(), From: env.ID()})
}

func (m *panicMachine) Receive(env *runtime.Env, inbox []runtime.Msg) {
	if m.phase == "receive" && env.Round() == m.round {
		panic("injected receive panic")
	}
}

// TestPanicContainment: a machine panicking in Send or Receive surfaces as a
// per-node ErrMachinePanic from Run — no process crash, no leaked pool
// goroutines — in both engine modes.
func TestPanicContainment(t *testing.T) {
	for _, phase := range []string{"send", "receive"} {
		for _, parallel := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/parallel=%v", phase, parallel), func(t *testing.T) {
				before := goruntime.NumGoroutine()
				g := graph.Clique(16)
				_, err := runtime.Run(runtime.Config{
					Graph:    g,
					Parallel: parallel,
					Factory: func(info runtime.NodeInfo, pred any) runtime.Machine {
						if info.Index == 7 {
							return &panicMachine{phase: phase, round: 2}
						}
						return &panicMachine{phase: phase, round: -1}
					},
				})
				if !errors.Is(err, runtime.ErrMachinePanic) {
					t.Fatalf("want ErrMachinePanic, got %v", err)
				}
				// The error names the node, the round, and the phase.
				for _, want := range []string{fmt.Sprint("node ", g.ID(7)), "round 2"} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not mention %q", err, want)
					}
				}
				// The pool must have shut down: goroutine count returns to the
				// baseline (allow the runtime a moment to retire workers).
				deadline := time.Now().Add(2 * time.Second)
				for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if after := goruntime.NumGoroutine(); after > before {
					t.Errorf("leaked goroutines: %d before, %d after", before, after)
				}
			})
		}
	}
}

// wedgedMachine blocks forever in Send at round 2.
type wedgedMachine struct{ block chan struct{} }

func (m *wedgedMachine) Send(env *runtime.Env) []runtime.Out {
	if env.Round() == 2 && m.block != nil {
		<-m.block
	}
	if env.Round() > 3 {
		env.Output(0)
		env.Terminate()
		return nil
	}
	return nil
}

func (m *wedgedMachine) Receive(env *runtime.Env, inbox []runtime.Msg) {}

// TestRoundDeadline covers deadline abandonment on every worker layout: one
// shard run inline or cut into chunks for the worker set, and two shards on
// the worker set, each sequential and Parallel.
func TestRoundDeadline(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			for _, shards := range []int{0, 1, 2} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					// Release the wedged machine at test end so its goroutine
					// (leaked by design on a deadline abort) does not outlive
					// the test.
					block := make(chan struct{})
					defer close(block)
					_, err := runtime.Run(runtime.Config{
						Graph:         graph.Line(4),
						Parallel:      parallel,
						Shards:        shards,
						RoundDeadline: 50 * time.Millisecond,
						Factory: func(info runtime.NodeInfo, pred any) runtime.Machine {
							if info.Index == 2 {
								return &wedgedMachine{block: block}
							}
							return &wedgedMachine{block: nil}
						},
					})
					if !errors.Is(err, runtime.ErrRoundDeadline) {
						t.Fatalf("want ErrRoundDeadline, got %v", err)
					}
					for _, want := range []string{"send phase", "round 2"} {
						if !strings.Contains(err.Error(), want) {
							t.Errorf("error %q does not mention %q", err, want)
						}
					}
				})
			}
		})
	}
	// A healthy run under a generous deadline completes normally.
	res, err := runtime.Run(runtime.Config{
		Graph:         graph.Line(4),
		RoundDeadline: 5 * time.Second,
		Factory:       echoFactory(2),
	})
	if err != nil {
		t.Fatalf("healthy run under deadline: %v", err)
	}
	if res.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", res.Rounds)
	}
}

func TestCrashIndexValidation(t *testing.T) {
	g := graph.Line(3)
	for _, bad := range []int{-1, 3, 100} {
		_, err := runtime.Run(runtime.Config{
			Graph:     g,
			Factory:   echoFactory(2),
			Adversary: fault.Schedule{bad: 1},
		})
		if err == nil {
			t.Errorf("crash index %d accepted; want config error", bad)
		}
	}
	// In-range indices still work.
	if _, err := runtime.Run(runtime.Config{
		Graph:     g,
		Factory:   echoFactory(2),
		Adversary: fault.Schedule{0: 1, 2: 2},
	}); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

// TestAdversaryCrashSchedule: an adversary's crash schedule silences each
// scheduled node from its crash round on, and invalid entries are config
// errors.
func TestAdversaryCrashSchedule(t *testing.T) {
	g := graph.Line(5) // ids 1..5
	probe := func(adv runtime.Adversary) (*runtime.Result, error) {
		return runtime.Run(runtime.Config{
			Graph: g,
			Factory: func(runtime.NodeInfo, any) runtime.Machine {
				return &crashProbe{stopAt: 6, heard: map[int]int{}}
			},
			Adversary: adv,
		})
	}
	// Index 0 crashes at 2, index 1 at 3, index 3 at 2. Indices 2 and 4
	// survive and report what they heard.
	res, err := probe(fault.Schedule{0: 2, 1: 3, 3: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != nil || res.TerminatedAt[0] != 0 {
		t.Errorf("adversary-crashed node produced output %v", res.Outputs[0])
	}
	mid := res.Outputs[2].(map[int]int) // index 2 neighbors indices 1 and 3
	if mid[g.ID(1)] != 2 {
		t.Errorf("heard index-1 node %d times, want 2 (crash at 3)", mid[g.ID(1)])
	}
	if mid[g.ID(3)] != 1 {
		t.Errorf("heard index-3 node %d times, want 1 (crash at 2)", mid[g.ID(3)])
	}
	// Invalid adversary schedules are config errors.
	if _, err := probe(fault.Schedule{9: 1}); !errors.Is(err, runtime.ErrConfig) {
		t.Errorf("out-of-range adversary crash index: err = %v, want ErrConfig", err)
	}
	if _, err := probe(fault.Schedule{0: 0}); !errors.Is(err, runtime.ErrConfig) {
		t.Errorf("zero adversary crash round: err = %v, want ErrConfig", err)
	}
}

// passThrough is a crash schedule that lets every message through and
// counts how often it is asked.
type passThrough struct {
	crashes    map[int]int
	intercepts int
}

func (a *passThrough) Crashes(int) map[int]int { return a.crashes }

func (a *passThrough) Intercept(round, from, to int, payload runtime.Payload, bits int) runtime.Fate {
	a.intercepts++
	return runtime.Fate{}
}

// crashOnlyPassThrough is a passThrough marked crash-only.
type crashOnlyPassThrough struct{ passThrough }

func (*crashOnlyPassThrough) CrashOnly() {}

// TestCrashOnlyAdversary checks that a crash-only adversary is never asked
// about a message, on every engine layout, and that its runs equal those
// of an adversary that is asked and lets everything through — results and
// traces alike.
func TestCrashOnlyAdversary(t *testing.T) {
	g := graph.BarabasiAlbert(60, 2, rand.New(rand.NewSource(5)))
	crashes := map[int]int{3: 2, 10: 1, 41: 3}
	for _, shards := range []int{0, 2} {
		for _, parallel := range []bool{false, true} {
			label := fmt.Sprintf("shards=%d/parallel=%v", shards, parallel)
			run := func(adv runtime.Adversary) (*runtime.Result, error, []obs.Event) {
				rec := obs.NewRecorder(1 << 15)
				res, err := runtime.Run(runtime.Config{Graph: g, Factory: echoFactory(4), Adversary: adv,
					Shards: shards, Parallel: parallel, Trace: rec})
				return res, err, rec.Events()
			}
			asked := &passThrough{crashes: crashes}
			wantRes, wantErr, wantTrace := run(asked)
			skipped := &crashOnlyPassThrough{passThrough{crashes: crashes}}
			res, err, trace := run(skipped)
			if wantErr != nil || err != nil {
				t.Fatalf("%s: errors %v, %v", label, wantErr, err)
			}
			if asked.intercepts == 0 || skipped.intercepts != 0 {
				t.Fatalf("%s: %d intercepts when asked, %d when crash-only; want some and none",
					label, asked.intercepts, skipped.intercepts)
			}
			assertSameResult(t, label, res, wantRes)
			if res.Messages != wantRes.Messages || res.MaxMsgBits != wantRes.MaxMsgBits {
				t.Fatalf("%s: results differ: %+v vs %+v", label, res, wantRes)
			}
			if idx, desc, ok := obs.Diff(obs.Canonical(trace), obs.Canonical(wantTrace)); !ok {
				t.Fatalf("%s: traces diverge at event %d: %s", label, idx, desc)
			}
		}
	}
}

// fragileMachine is an echo machine that treats unrecognizable payloads as a
// protocol violation — a deterministic error surface for corruption faults.
type fragileMachine struct{ echoMachine }

func (m *fragileMachine) Receive(env *runtime.Env, inbox []runtime.Msg) {
	for _, msg := range inbox {
		if _, ok := msg.Payload.(echoPayload); !ok {
			env.Fail(fmt.Errorf("node %d round %d: unrecognized payload %T from %d",
				env.ID(), env.Round(), msg.Payload, msg.From))
			return
		}
	}
	m.echoMachine.Receive(env, inbox)
}

// TestChaosEndToEnd: a high-rate policy visibly perturbs a run and the run
// remains deterministic for a fixed seed.
func TestChaosEndToEnd(t *testing.T) {
	g := graph.Clique(12)
	policy := fault.Policy{Seed: 99, Drop: 0.3, Duplicate: 0.2}
	run := func() (*runtime.Result, fault.Stats) {
		chaos := fault.New(policy)
		res, err := runtime.Run(runtime.Config{
			Graph:     g,
			Factory:   echoFactory(4),
			Adversary: chaos,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, chaos.Stats()
	}
	res1, stats1 := run()
	res2, stats2 := run()
	if stats1.Dropped == 0 || stats1.Duplicated == 0 {
		t.Fatalf("policy did not fire: %+v", stats1)
	}
	if stats1 != stats2 {
		t.Fatalf("same seed, different stats: %+v vs %+v", stats1, stats2)
	}
	if res1.Messages != res2.Messages || res1.Rounds != res2.Rounds {
		t.Fatalf("same seed, different results: %+v vs %+v", res1, res2)
	}
	// A faulted clique delivers fewer messages than a clean one... unless
	// duplication outweighs drops; either way it must differ from clean.
	clean, err := runtime.Run(runtime.Config{Graph: g, Factory: echoFactory(4)})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Messages == res1.Messages {
		t.Errorf("chaos run delivered exactly the clean message count %d; faults had no effect?", clean.Messages)
	}
}

// TestChaosStatsMatchTrace: the adversary's own fault counts and the
// trace's fault ledger — the two that remain — agree on every engine
// configuration, links failing permanently included.
func TestChaosStatsMatchTrace(t *testing.T) {
	g := graph.GNP(60, 0.12, rand.New(rand.NewSource(31)))
	policy := fault.Policy{Seed: 17, Drop: 0.1, Duplicate: 0.15, Corrupt: 0.1, LinkFail: 0.1}
	for _, mode := range []struct {
		name     string
		parallel bool
		shards   int
	}{{"seq", false, 0}, {"pool", true, 0}, {"shards=2", false, 2}} {
		chaos := fault.New(policy)
		rec := obs.NewRecorder(1 << 15)
		if _, err := runtime.Run(runtime.Config{
			Graph:     g,
			Factory:   echoFactory(5),
			Parallel:  mode.parallel,
			Shards:    mode.shards,
			Adversary: chaos,
			Trace:     rec,
		}); err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		s := chaos.Stats()
		if s.Dropped == 0 || s.Duplicated == 0 || s.Corrupted == 0 || s.FailedLinks == 0 {
			t.Fatalf("%s: policy did not fire on every kind: %+v", mode.name, s)
		}
		f := faultTotals(rec.Events())
		if int64(s.Dropped) != f.dropped || int64(s.Duplicated) != f.injected || int64(s.Corrupted) != f.corrupted {
			t.Errorf("%s: chaos stats %+v, trace %+v", mode.name, s, f)
		}
	}
}
