package runtime_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
)

// broadcast builds one Out per neighbor of env carrying payload: the
// []Out form of Env.Broadcast, which routes through the engine's
// per-message path.
func broadcast(env *runtime.Env, payload runtime.Payload) []runtime.Out {
	ids := env.Info().NeighborIDs
	outs := make([]runtime.Out, len(ids))
	for i, nb := range ids {
		outs[i] = runtime.Out{To: nb, Payload: payload}
	}
	return outs
}

// echoMachine broadcasts its round number until a limit, then outputs the
// multiset of (sender, payload) pairs it heard, as a canonical string.
type echoMachine struct {
	limit int
	heard []string
}

type echoPayload struct{ Round, From int }

func (p echoPayload) Bits() int { return 16 }

func (m *echoMachine) Send(env *runtime.Env) []runtime.Out {
	if env.Round() > m.limit {
		env.Output(fmt.Sprint(m.heard))
		env.Terminate()
		return nil
	}
	return broadcast(env, echoPayload{Round: env.Round(), From: env.ID()})
}

func (m *echoMachine) Receive(env *runtime.Env, inbox []runtime.Msg) {
	for _, msg := range inbox {
		m.heard = append(m.heard, fmt.Sprint(msg.From, msg.Payload))
	}
}

func echoFactory(limit int) runtime.Factory {
	return func(info runtime.NodeInfo, pred any) runtime.Machine {
		return &echoMachine{limit: limit}
	}
}

func TestSameRoundDelivery(t *testing.T) {
	// Messages sent in round r are received in round r (paper Section 2).
	g := graph.Line(2)
	res, err, events, logs := runFrontier(t, runtime.Config{Graph: g}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
	// Both nodes sent in rounds 1-3, received in rounds 1-2 and output in
	// round 3, the round their Send terminated them.
	checkOneWay(t, "line-2", logs)
	for i, l := range logs {
		if exit := l.Exits[0]; exit.Type != obs.EvOutput || exit.Round != 3 {
			t.Errorf("node %d left the frontier by %s in round %d, want an output in round 3", i, exit.Type, exit.Round)
		}
	}
	// Each node heard exactly rounds 1 and 2 from its single neighbor, in
	// its Receive calls of those same rounds.
	for i, o := range res.Outputs {
		want := fmt.Sprint([]string{
			fmt.Sprint(g.ID(1-i), echoPayload{Round: 1, From: g.ID(1 - i)}),
			fmt.Sprint(g.ID(1-i), echoPayload{Round: 2, From: g.ID(1 - i)}),
		})
		if o != want {
			t.Errorf("node %d heard %v, want %v", i, o, want)
		}
	}
	for _, e := range events {
		if e.Type == obs.EvBatch && e.Value != 1 {
			t.Errorf("round %d: node %d's batch delivered %d messages, want 1", e.Round, e.Node, e.Value)
		}
	}
}

func TestEngineModesAgreeOnRandomizedTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g := graph.GNP(30, 0.2, rng)
		run := func(parallel bool) *runtime.Result {
			res, err := runtime.Run(runtime.Config{Graph: g, Factory: echoFactory(3), Parallel: parallel})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		seq, par := run(false), run(true)
		if seq.Rounds != par.Rounds || seq.Messages != par.Messages {
			t.Fatalf("engines disagree: %+v vs %+v", seq, par)
		}
		for i := range seq.Outputs {
			if seq.Outputs[i] != par.Outputs[i] {
				t.Fatalf("node %d outputs differ", i)
			}
		}
	}
}

// terminateInSend outputs and terminates in its first Send, and fails the
// run if Receive is ever called afterwards.
type terminateInSend struct{ done bool }

func (m *terminateInSend) Send(env *runtime.Env) []runtime.Out {
	m.done = true
	env.Output(1)
	env.Terminate()
	return broadcast(env, "bye")
}

func (m *terminateInSend) Receive(env *runtime.Env, inbox []runtime.Msg) {
	if m.done {
		env.Fail(errors.New("Receive called after terminate-in-Send"))
	}
}

func TestTerminateInSendSkipsReceive(t *testing.T) {
	g := graph.Clique(4)
	res, err := runtime.Run(runtime.Config{
		Graph:   g,
		Factory: func(runtime.NodeInfo, any) runtime.Machine { return &terminateInSend{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.Rounds)
	}
	// All final-round messages were dropped (receivers also terminated).
	if res.Messages != 0 {
		t.Errorf("messages = %d, want 0", res.Messages)
	}
}

// protocolCases exercise engine protocol-error detection.
type badMachine struct{ mode string }

func (m *badMachine) Send(env *runtime.Env) []runtime.Out {
	switch m.mode {
	case "non-neighbor":
		return []runtime.Out{{To: env.ID(), Payload: "self"}}
	case "terminate-without-output":
		env.Terminate()
	case "output-after-terminate":
		env.Output(1)
		env.Terminate()
		env.Output(2)
	case "never-terminate":
	}
	return nil
}

func (m *badMachine) Receive(env *runtime.Env, inbox []runtime.Msg) {}

func TestProtocolErrors(t *testing.T) {
	for _, mode := range []string{
		"non-neighbor", "terminate-without-output", "output-after-terminate", "never-terminate",
	} {
		t.Run(mode, func(t *testing.T) {
			_, err := runtime.Run(runtime.Config{
				Graph:     graph.Line(3),
				MaxRounds: 10,
				Factory: func(runtime.NodeInfo, any) runtime.Machine {
					return &badMachine{mode: mode}
				},
			})
			if err == nil {
				t.Fatalf("%s: want error", mode)
			}
			if mode == "never-terminate" && !errors.Is(err, runtime.ErrNoTermination) {
				t.Errorf("want ErrNoTermination, got %v", err)
			}
		})
	}
}

// crashProbe terminates at a fixed round and records who it heard from.
type crashProbe struct {
	stopAt int
	heard  map[int]int
}

func (m *crashProbe) Send(env *runtime.Env) []runtime.Out {
	if env.Round() >= m.stopAt {
		env.Output(m.heard)
		env.Terminate()
		return nil
	}
	return broadcast(env, "ping")
}

func (m *crashProbe) Receive(env *runtime.Env, inbox []runtime.Msg) {
	for _, msg := range inbox {
		m.heard[msg.From]++
	}
}

func TestCrashStopsSending(t *testing.T) {
	g := graph.Line(3) // ids 1-2-3
	res, err := runtime.Run(runtime.Config{
		Graph: g,
		Factory: func(runtime.NodeInfo, any) runtime.Machine {
			return &crashProbe{stopAt: 5, heard: map[int]int{}}
		},
		Adversary: fault.Schedule{0: 3}, // node index 0 crashes at round 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TerminatedAt[0] != 0 || res.Outputs[0] != nil {
		t.Errorf("crashed node should have no output: %v at %d", res.Outputs[0], res.TerminatedAt[0])
	}
	// Node index 1 heard node 1 (id of index 0) only in rounds 1-2.
	heard := res.Outputs[1].(map[int]int)
	if heard[g.ID(0)] != 2 {
		t.Errorf("heard crashed node %d times, want 2", heard[g.ID(0)])
	}
	if heard[g.ID(2)] != 4 {
		t.Errorf("heard healthy node %d times, want 4", heard[g.ID(2)])
	}
}

// abortMachine is an echo machine that, in round failRound, fails the way
// its fail names: a send to itself (no node is its own neighbour), a panic,
// an oversized payload, or a wedge until block closes.
type abortMachine struct {
	echoMachine
	fail      string
	failRound int
	block     chan struct{}
}

type bigPayload struct{}

func (bigPayload) Bits() int { return 64 }

func (m *abortMachine) Send(env *runtime.Env) []runtime.Out {
	if env.Round() == m.failRound {
		switch m.fail {
		case "protocol":
			return []runtime.Out{{To: env.ID(), Payload: echoPayload{}}}
		case "panic":
			panic("abort test")
		case "congest":
			return broadcast(env, bigPayload{})
		case "deadline":
			<-m.block
		}
	}
	return m.echoMachine.Send(env)
}

// TestAbortReturnsPartialResult pins the partial-result contract: a run that
// aborts in round k — round cap, protocol violation, machine panic, CONGEST
// violation or round deadline — returns a non-nil Result with Rounds = k-1
// whose Outputs and TerminatedAt are the uncapped run's settled prefix at
// the end of round k-1, on every engine layout.
func TestAbortReturnsPartialResult(t *testing.T) {
	const k, failIdx = 4, 3
	g := graph.Ring(24)
	// Node i terminates in round 2 + 2·(i%4): the prefix at k-1 settles
	// some nodes and not others, none terminates in round k-1 itself (so
	// Rounds is the completed round, not the last termination), and node
	// failIdx is still active in round k.
	cfg := func(fail string, block chan struct{}) runtime.Config {
		return runtime.Config{
			Graph:          g,
			MaxMessageBits: 16,
			Factory: func(info runtime.NodeInfo, pred any) runtime.Machine {
				m := &abortMachine{echoMachine: echoMachine{limit: 1 + 2*(info.Index%4)}, block: block}
				if info.Index == failIdx {
					m.fail, m.failRound = fail, k
				}
				return m
			},
		}
	}
	ref, err := runtime.Run(cfg("", nil))
	if err != nil {
		t.Fatal(err)
	}
	settled := 0
	for _, at := range ref.TerminatedAt {
		if at == k-1 {
			t.Fatalf("a node terminates in round %d; Rounds would be ambiguous", k-1)
		}
		if at < k-1 {
			settled++
		}
	}
	if settled == 0 || settled == g.N() || ref.TerminatedAt[failIdx] <= k {
		t.Fatalf("reference settles %d of %d nodes by round %d (fail node at %d); the prefix is trivial",
			settled, g.N(), k-1, ref.TerminatedAt[failIdx])
	}
	cases := []struct {
		fail string
		want error
	}{
		{"", runtime.ErrNoTermination},
		{"protocol", runtime.ErrProtocol},
		{"panic", runtime.ErrMachinePanic},
		{"congest", runtime.ErrCongestViolation},
		{"deadline", runtime.ErrRoundDeadline},
	}
	engines := []struct {
		name     string
		parallel bool
		shards   int
	}{{"seq", false, 0}, {"pool", true, 0}, {"shards=2", false, 2}}
	for _, c := range cases {
		for _, e := range engines {
			label := fmt.Sprintf("%v/%s", c.want, e.name)
			// Release a wedged machine at test end so its goroutine (leaked by
			// design on a deadline abort) does not outlive the test.
			block := make(chan struct{})
			defer close(block)
			run := cfg(c.fail, block)
			run.Parallel, run.Shards = e.parallel, e.shards
			switch c.fail {
			case "":
				run.MaxRounds = k - 1
			case "deadline":
				run.RoundDeadline = 50 * time.Millisecond
			}
			res, err := runtime.Run(run)
			if !errors.Is(err, c.want) {
				t.Fatalf("%s: err = %v", label, err)
			}
			if res == nil {
				t.Fatalf("%s: aborted run returned a nil result", label)
			}
			if res.Rounds != k-1 {
				t.Errorf("%s: Rounds = %d, want %d", label, res.Rounds, k-1)
			}
			for i, at := range ref.TerminatedAt {
				var wantOut any
				if at > k-1 {
					at = 0
				} else {
					wantOut = ref.Outputs[i]
				}
				if res.TerminatedAt[i] != at || res.Outputs[i] != wantOut {
					t.Fatalf("%s: node %d: output %v at round %d, want %v at round %d",
						label, i, res.Outputs[i], res.TerminatedAt[i], wantOut, at)
				}
			}
		}
	}
}

// assertSameResult compares the part of two runs' results that an aborted
// run carries too: the round count and every node's output and termination
// round.
func assertSameResult(t *testing.T, label string, got, want *runtime.Result) {
	t.Helper()
	if got.Rounds != want.Rounds {
		t.Fatalf("%s: rounds %d vs %d", label, got.Rounds, want.Rounds)
	}
	for i := range want.Outputs {
		if got.Outputs[i] != want.Outputs[i] {
			t.Fatalf("%s: node %d output %v vs %v", label, i, got.Outputs[i], want.Outputs[i])
		}
		if got.TerminatedAt[i] != want.TerminatedAt[i] {
			t.Fatalf("%s: node %d terminated at %d vs %d", label, i, got.TerminatedAt[i], want.TerminatedAt[i])
		}
	}
}

func TestInboxSortedBySender(t *testing.T) {
	g := graph.ShuffleIDs(graph.Star(8), 80, rand.New(rand.NewSource(13)))
	factory := func(info runtime.NodeInfo, pred any) runtime.Machine {
		return &inboxOrderMachine{}
	}
	if _, err := runtime.Run(runtime.Config{Graph: g, Factory: factory}); err != nil {
		t.Fatal(err)
	}
}

type inboxOrderMachine struct{}

func (m *inboxOrderMachine) Send(env *runtime.Env) []runtime.Out {
	if env.Round() == 2 {
		env.Output(0)
		env.Terminate()
		return nil
	}
	return broadcast(env, env.ID())
}

func (m *inboxOrderMachine) Receive(env *runtime.Env, inbox []runtime.Msg) {
	for i := 1; i < len(inbox); i++ {
		if inbox[i].From < inbox[i-1].From {
			env.Fail(errors.New("inbox not sorted by sender"))
			return
		}
	}
}

func TestMaxMsgBitsAccounting(t *testing.T) {
	g := graph.Line(2)
	res, err := runtime.Run(runtime.Config{Graph: g, Factory: echoFactory(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMsgBits != 16 {
		t.Errorf("MaxMsgBits = %d, want 16", res.MaxMsgBits)
	}
	// An unsized payload flips the run to LOCAL-only.
	res, err = runtime.Run(runtime.Config{
		Graph: g,
		Factory: func(info runtime.NodeInfo, pred any) runtime.Machine {
			return &unsizedMachine{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMsgBits != -1 {
		t.Errorf("MaxMsgBits = %d, want -1", res.MaxMsgBits)
	}
}

type unsizedMachine struct{}

func (m *unsizedMachine) Send(env *runtime.Env) []runtime.Out {
	if env.Round() == 2 {
		env.Output(0)
		env.Terminate()
		return nil
	}
	return broadcast(env, struct{ X []int }{X: []int{1, 2, 3}})
}

func (m *unsizedMachine) Receive(env *runtime.Env, inbox []runtime.Msg) {}

func TestConfigValidation(t *testing.T) {
	if _, err := runtime.Run(runtime.Config{}); err == nil {
		t.Error("nil graph accepted")
	}
	g := graph.Line(2)
	if _, err := runtime.Run(runtime.Config{Graph: g}); err == nil {
		t.Error("nil factory accepted")
	}
	if _, err := runtime.Run(runtime.Config{
		Graph:       g,
		Factory:     echoFactory(1),
		Predictions: []any{1},
	}); err == nil {
		t.Error("mismatched prediction length accepted")
	}
}

func TestNodeInfoContents(t *testing.T) {
	g := graph.ShuffleIDs(graph.Star(5), 50, rand.New(rand.NewSource(17)))
	factory := func(info runtime.NodeInfo, pred any) runtime.Machine {
		if info.N != 5 || info.D != 50 || info.Delta != 4 {
			t.Errorf("bad static info: %+v", info)
		}
		if len(info.NeighborIDs) != g.Degree(info.Index) {
			t.Errorf("node %d: %d neighbor ids", info.ID, len(info.NeighborIDs))
		}
		for i := 1; i < len(info.NeighborIDs); i++ {
			if info.NeighborIDs[i] <= info.NeighborIDs[i-1] {
				t.Error("neighbor ids not strictly ascending")
			}
		}
		return &inboxOrderMachine{}
	}
	if _, err := runtime.Run(runtime.Config{Graph: g, Factory: factory}); err != nil {
		t.Fatal(err)
	}
}

func TestCongestEnforcement(t *testing.T) {
	g := graph.Line(3)
	// Sized payloads within budget pass.
	res, err := runtime.Run(runtime.Config{
		Graph:          g,
		Factory:        echoFactory(2),
		MaxMessageBits: 16,
	})
	if err != nil {
		t.Fatalf("sized within budget: %v", err)
	}
	if res.MaxMsgBits != 16 {
		t.Errorf("MaxMsgBits = %d", res.MaxMsgBits)
	}
	// Sized payloads above budget abort.
	_, err = runtime.Run(runtime.Config{
		Graph:          g,
		Factory:        echoFactory(2),
		MaxMessageBits: 8,
	})
	if !errors.Is(err, runtime.ErrCongestViolation) {
		t.Errorf("over-budget: got %v, want ErrCongestViolation", err)
	}
	// Unsized payloads abort under any budget.
	_, err = runtime.Run(runtime.Config{
		Graph: g,
		Factory: func(info runtime.NodeInfo, pred any) runtime.Machine {
			return &unsizedMachine{}
		},
		MaxMessageBits: 1024,
	})
	if !errors.Is(err, runtime.ErrCongestViolation) {
		t.Errorf("unsized: got %v, want ErrCongestViolation", err)
	}
}

func TestCongestBudget(t *testing.T) {
	// The budget is 4·⌈log₂(max(n,d))⌉ with a one-bit floor for m < 2.
	cases := []struct{ m, want int }{
		{1, 4},     // floor: one bit
		{2, 4},     // ⌈log₂ 2⌉ = 1
		{3, 8},     // ⌈log₂ 3⌉ = 2
		{4, 8},     // ⌈log₂ 4⌉ = 2 (power of two: not 3)
		{1023, 40}, // ⌈log₂ 1023⌉ = 10
		{1024, 40}, // ⌈log₂ 1024⌉ = 10 (power of two: not 11)
		{1025, 44}, // ⌈log₂ 1025⌉ = 11
	}
	for _, c := range cases {
		if b := runtime.CongestBudget(c.m, 1); b != c.want {
			t.Errorf("CongestBudget(%d, 1) = %d, want %d", c.m, b, c.want)
		}
		// The budget depends on max(n, d) only: passing m as the id domain
		// with a tiny n must agree.
		if b := runtime.CongestBudget(1, c.m); b != c.want {
			t.Errorf("CongestBudget(1, %d) = %d, want %d", c.m, b, c.want)
		}
	}
	if b := runtime.CongestBudget(2, 100000); b != 4*17 {
		t.Errorf("CongestBudget uses max(n, d): got %d, want 68", b)
	}
}

func TestCrashRoundValidation(t *testing.T) {
	g := graph.Line(3)
	for _, bad := range []int{0, -1, -100} {
		_, err := runtime.Run(runtime.Config{
			Graph:     g,
			Factory:   echoFactory(2),
			Adversary: fault.Schedule{1: bad},
		})
		if err == nil {
			t.Errorf("crash round %d accepted; want config error", bad)
		}
	}
	// Round 1 is the earliest legal crash: the node does nothing at all.
	res, err := runtime.Run(runtime.Config{
		Graph:     g,
		Factory:   echoFactory(2),
		Adversary: fault.Schedule{1: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[1] != nil || res.TerminatedAt[1] != 0 {
		t.Errorf("round-1 crash: output %v at %d; want none", res.Outputs[1], res.TerminatedAt[1])
	}
}

// silentMachine terminates in round 1 without sending anything.
type silentMachine struct{}

func (m *silentMachine) Send(env *runtime.Env) []runtime.Out {
	env.Output("done")
	env.Terminate()
	return nil
}

func (m *silentMachine) Receive(env *runtime.Env, inbox []runtime.Msg) {}

func TestMaxMsgBitsZeroMessages(t *testing.T) {
	// A run that delivers no messages has observed no sized payload; it must
	// report -1 (unknown/LOCAL-only), not 0, which would wrongly claim every
	// payload fit in zero bits.
	res, err := runtime.Run(runtime.Config{
		Graph:   graph.Line(3),
		Factory: func(runtime.NodeInfo, any) runtime.Machine { return &silentMachine{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 0 {
		t.Fatalf("messages = %d, want 0", res.Messages)
	}
	if res.MaxMsgBits != -1 {
		t.Errorf("MaxMsgBits = %d, want -1 for a zero-message run", res.MaxMsgBits)
	}
}

// TestRandomizedParityWithCrashes is the fuzz-style engine-parity test:
// random G(n,p) topologies and random crash schedules must produce identical
// rounds, outputs, and termination schedules in both engine modes.
func TestRandomizedParityWithCrashes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(56)
		g := graph.GNP(n, 0.05+rng.Float64()*0.3, rng)
		limit := 1 + rng.Intn(5)
		crashes := map[int]int{}
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.2 {
				crashes[i] = 1 + rng.Intn(limit+2)
			}
		}
		run := func(parallel bool) *runtime.Result {
			res, err := runtime.Run(runtime.Config{
				Graph:     g,
				Factory:   echoFactory(limit),
				Adversary: fault.Schedule(crashes),
				Parallel:  parallel,
			})
			if err != nil {
				t.Fatalf("trial %d parallel=%v: %v", trial, parallel, err)
			}
			return res
		}
		seq, par := run(false), run(true)
		if seq.Rounds != par.Rounds || seq.Messages != par.Messages || seq.MaxMsgBits != par.MaxMsgBits {
			t.Fatalf("trial %d: engines disagree: %+v vs %+v", trial, seq, par)
		}
		for i := range seq.Outputs {
			if seq.Outputs[i] != par.Outputs[i] {
				t.Fatalf("trial %d node %d: outputs differ: %v vs %v", trial, i, seq.Outputs[i], par.Outputs[i])
			}
			if seq.TerminatedAt[i] != par.TerminatedAt[i] {
				t.Fatalf("trial %d node %d: terminated at %d vs %d", trial, i, seq.TerminatedAt[i], par.TerminatedAt[i])
			}
		}
	}
}

// TestRandomizedAdversaryParity extends the parity fuzz with randomized
// chaos policies (drop/duplicate/corrupt/link-fail/crash): for every policy
// the two engine modes must produce byte-for-byte identical results —
// including identical error surfaces when machines reject corrupted
// payloads — and the adversary must inject the identical fault sequence.
func TestRandomizedAdversaryParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(46)
		g := graph.GNP(n, 0.05+rng.Float64()*0.3, rng)
		limit := 1 + rng.Intn(5)
		policy := fault.Policy{
			Seed:      rng.Int63(),
			Drop:      rng.Float64() * 0.3,
			Duplicate: rng.Float64() * 0.3,
			Corrupt:   rng.Float64() * 0.3,
			LinkFail:  rng.Float64() * 0.2,
			Crash:     rng.Float64() * 0.2,
		}
		// Half the trials use a machine that fails on corrupted payloads, so
		// the fuzz also covers per-node error parity across modes.
		factory := echoFactory(limit)
		if trial%2 == 0 {
			factory = func(info runtime.NodeInfo, pred any) runtime.Machine {
				return &fragileMachine{echoMachine{limit: limit}}
			}
		}
		run := func(parallel bool) (*runtime.Result, error, fault.Stats) {
			chaos := fault.New(policy)
			res, err := runtime.Run(runtime.Config{
				Graph:     g,
				Factory:   factory,
				Parallel:  parallel,
				Adversary: chaos,
			})
			return res, err, chaos.Stats()
		}
		seq, seqErr, seqStats := run(false)
		par, parErr, parStats := run(true)
		if seqStats != parStats {
			t.Fatalf("trial %d: fault sequences differ across modes: %+v vs %+v", trial, seqStats, parStats)
		}
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("trial %d: error surfaces differ: %v vs %v", trial, seqErr, parErr)
		}
		if seqErr != nil && seqErr.Error() != parErr.Error() {
			t.Fatalf("trial %d: errors differ:\n  seq: %v\n  par: %v", trial, seqErr, parErr)
		}
		assertSameResult(t, fmt.Sprintf("trial %d", trial), par, seq)
		if seqErr == nil && (seq.Messages != par.Messages || seq.MaxMsgBits != par.MaxMsgBits) {
			t.Fatalf("trial %d: engines disagree: %+v vs %+v", trial, seq, par)
		}
	}
}
