package runtime_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
)

// countingMachine records which rounds its Send and Receive ran in, so the
// frontier tests can assert the engine really stops scheduling a node after
// it leaves the frontier (zero cost per round for settled nodes, not just a
// skipped effect).
type countingMachine struct {
	echoMachine
	sendRounds    []int
	receiveRounds []int
}

func (m *countingMachine) Send(env *runtime.Env) []runtime.Out {
	m.sendRounds = append(m.sendRounds, env.Round())
	return m.echoMachine.Send(env)
}

func (m *countingMachine) Receive(env *runtime.Env, inbox []runtime.Msg) {
	m.receiveRounds = append(m.receiveRounds, env.Round())
	m.echoMachine.Receive(env, inbox)
}

// frontierLog is one node's frontier history: the rounds its machine ran
// Send and Receive in, and the trace's EvCrash/EvOutput events for it — the
// events that take a node out of the frontier.
type frontierLog struct {
	Send, Receive []int
	Exits         []obs.Event
}

// runFrontier runs cfg on countingMachines with echo limit `limit` under a
// fresh trace, and returns the run's events and each node's frontierLog by
// node index.
func runFrontier(t *testing.T, cfg runtime.Config, limit int) (*runtime.Result, error, []obs.Event, []frontierLog) {
	t.Helper()
	n := cfg.Graph.N()
	machines := make([]*countingMachine, n)
	cfg.Factory = func(info runtime.NodeInfo, pred any) runtime.Machine {
		m := &countingMachine{echoMachine: echoMachine{limit: limit}}
		machines[info.Index] = m
		return m
	}
	rec := obs.NewRecorder(0)
	cfg.Trace = rec
	res, err := runtime.Run(cfg)
	logs := make([]frontierLog, n)
	index := make(map[int]int, n)
	for i, m := range machines {
		logs[i].Send, logs[i].Receive = m.sendRounds, m.receiveRounds
		index[cfg.Graph.ID(i)] = i
	}
	events := rec.Events()
	for _, e := range events {
		if e.Type == obs.EvCrash || e.Type == obs.EvOutput {
			logs[index[e.Node]].Exits = append(logs[index[e.Node]].Exits, e)
		}
	}
	return res, err, events, logs
}

// checkOneWay asserts the frontier is one-way: every node left it exactly
// once, and its machine ran in every round before that and in none after
// (Send also runs in the output round, where an echo node terminates).
func checkOneWay(t *testing.T, label string, logs []frontierLog) {
	t.Helper()
	for i, l := range logs {
		if len(l.Exits) != 1 {
			t.Fatalf("%s: node %d left the frontier %d times: %+v", label, i, len(l.Exits), l.Exits)
		}
		exit := l.Exits[0]
		lastSend := exit.Round - 1
		if exit.Type == obs.EvOutput {
			lastSend = exit.Round
		}
		if !firstRounds(l.Send, lastSend) || !firstRounds(l.Receive, exit.Round-1) {
			t.Fatalf("%s: node %d left the frontier in round %d (%s) but ran Send in %v and Receive in %v",
				label, i, exit.Round, exit.Type, l.Send, l.Receive)
		}
	}
}

// firstRounds reports whether rounds is exactly 1, 2, …, k.
func firstRounds(rounds []int, k int) bool {
	if len(rounds) != k {
		return false
	}
	for j, r := range rounds {
		if r != j+1 {
			return false
		}
	}
	return true
}

// TestCrashedNodeNeverReentersFrontier: a node crashed by the schedule (or
// by a chaos adversary) must leave the frontier at its crash round and stay
// out — no further phase calls, no further deliveries, no output, and no
// sender batches in the trace.
func TestCrashedNodeNeverReentersFrontier(t *testing.T) {
	const n, crashIdx, crashRound = 32, 5, 3
	for _, parallel := range []bool{false, true} {
		label := fmt.Sprintf("parallel=%v", parallel)
		g := graph.GNP(n, 0.3, rand.New(rand.NewSource(4)))
		res, err, events, logs := runFrontier(t, runtime.Config{
			Graph:     g,
			Parallel:  parallel,
			Adversary: fault.Schedule{crashIdx: crashRound},
		}, 6)
		if err != nil {
			t.Fatal(err)
		}
		checkOneWay(t, label, logs)
		if exit := logs[crashIdx].Exits[0]; exit.Type != obs.EvCrash || exit.Round != crashRound {
			t.Fatalf("%s: node left the frontier by %s in round %d, want a crash in round %d",
				label, exit.Type, exit.Round, crashRound)
		}
		if res.Outputs[crashIdx] != nil || res.TerminatedAt[crashIdx] != 0 {
			t.Fatalf("%s: crashed node settled: output %v at round %d", label, res.Outputs[crashIdx], res.TerminatedAt[crashIdx])
		}
		// The trace agrees: no sender batch from the crashed node's ID at or
		// after the crash round.
		crashedID := g.ID(crashIdx)
		for _, e := range events {
			if e.Type == obs.EvBatch && e.Node == crashedID && e.Round >= crashRound {
				t.Fatalf("%s: batch event from crashed node in round %d", label, e.Round)
			}
		}
	}
}

// TestChaosCrashFrontierParity: adversary-scheduled crashes (fault.Policy
// Crash) go through the same one-way frontier, in both engine modes, with
// every node's phase calls and frontier exit identical across them.
func TestChaosCrashFrontierParity(t *testing.T) {
	g := graph.GNP(48, 0.2, rand.New(rand.NewSource(9)))
	capture := func(parallel bool) ([]frontierLog, *runtime.Result) {
		res, err, _, logs := runFrontier(t, runtime.Config{
			Graph:     g,
			Parallel:  parallel,
			Adversary: fault.New(fault.Policy{Seed: 17, Crash: 0.3, Drop: 0.1}),
		}, 5)
		if err != nil {
			t.Fatal(err)
		}
		checkOneWay(t, fmt.Sprintf("parallel=%v", parallel), logs)
		return logs, res
	}
	seq, seqRes := capture(false)
	par, _ := capture(true)
	for i := range seq {
		if fmt.Sprintf("%+v", seq[i]) != fmt.Sprintf("%+v", par[i]) {
			t.Fatalf("node %d: frontier history differs:\n  seq: %+v\n  par: %+v", i, seq[i], par[i])
		}
	}
	// Crashed nodes are the ones that never terminated; the policy must have
	// produced some for the test to have exercised a crash-driven exit.
	crashesSeen := 0
	for i, l := range seq {
		if l.Exits[0].Type == obs.EvCrash {
			crashesSeen++
			if seqRes.Outputs[i] != nil || seqRes.TerminatedAt[i] != 0 {
				t.Fatalf("crashed node %d has an output", i)
			}
		}
	}
	if crashesSeen == 0 {
		t.Fatal("chaos policy crashed nothing; the test exercised no frontier exit")
	}
}
