package runtime_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
)

// annotatingMachine is an echoMachine that also stages a span annotation in
// every send round, exercising Env.Annotate from both engine modes.
type annotatingMachine struct {
	echoMachine
}

func (m *annotatingMachine) Send(env *runtime.Env) []runtime.Out {
	if env.Tracing() && env.Round() <= m.limit {
		env.Annotate("stage:echo", int64(m.limit))
	}
	return m.echoMachine.Send(env)
}

func annotatingFactory(limit int) runtime.Factory {
	return func(info runtime.NodeInfo, pred any) runtime.Machine {
		return &annotatingMachine{echoMachine{limit: limit}}
	}
}

func countEvents(events []obs.Event, t obs.EventType) int {
	n := 0
	for _, e := range events {
		if e.Type == t {
			n++
		}
	}
	return n
}

func TestTraceBasicRun(t *testing.T) {
	g := graph.Line(4)
	rec := obs.NewRecorder(0)
	res, err := runtime.Run(runtime.Config{
		Graph:   g,
		Factory: annotatingFactory(2),
		Trace:   rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := rec.Events()
	if len(ev) == 0 {
		t.Fatal("no events recorded")
	}
	if ev[0].Type != obs.EvRunStart || ev[0].Value != 4 || ev[0].Aux != 3 {
		t.Fatalf("first event = %+v, want run-start n=4 m=3", ev[0])
	}
	last := ev[len(ev)-1]
	if last.Type != obs.EvRunEnd || last.Value != int64(res.Rounds) || last.Aux != int64(res.Messages) || last.Err != "" {
		t.Fatalf("last event = %+v, want clean run-end rounds=%d msgs=%d", last, res.Rounds, res.Messages)
	}
	if got := countEvents(ev, obs.EvRoundStart); got != res.Rounds {
		t.Fatalf("round-start events = %d, want %d", got, res.Rounds)
	}
	if got := countEvents(ev, obs.EvRoundEnd); got != res.Rounds {
		t.Fatalf("round-end events = %d, want %d", got, res.Rounds)
	}
	if got := countEvents(ev, obs.EvOutput); got != g.N() {
		t.Fatalf("output events = %d, want %d", got, g.N())
	}
	// Every node annotates in rounds 1..limit: 4 nodes x 2 rounds.
	if got := countEvents(ev, obs.EvSpan); got != 8 {
		t.Fatalf("span events = %d, want 8", got)
	}
	// Spans of one round surface in ascending node order (node-index drain
	// over a line graph with ascending ids).
	var r1spans []int
	for _, e := range ev {
		if e.Type == obs.EvSpan && e.Round == 1 {
			r1spans = append(r1spans, e.Node)
		}
	}
	for i := 1; i < len(r1spans); i++ {
		if r1spans[i] <= r1spans[i-1] {
			t.Fatalf("round-1 spans not in node order: %v", r1spans)
		}
	}
	// Delivered totals in round events match the result.
	var sumMsgs int64
	for _, e := range ev {
		if e.Type == obs.EvRoundEnd {
			sumMsgs += e.Value
		}
	}
	if sumMsgs != int64(res.Messages) {
		t.Fatalf("round-end messages sum to %d, Result.Messages = %d", sumMsgs, res.Messages)
	}
	// Batch events aggregate the same deliveries per sender.
	var sumBatch int64
	for _, e := range ev {
		if e.Type == obs.EvBatch {
			sumBatch += e.Value
		}
	}
	if sumBatch != int64(res.Messages) {
		t.Fatalf("batch messages sum to %d, Result.Messages = %d", sumBatch, res.Messages)
	}
}

// withCrashes adds a fixed crash schedule to an adversary's own; a node in
// both crashes at the earlier round.
type withCrashes struct {
	runtime.Adversary
	fixed fault.Schedule
}

func (a withCrashes) Crashes(n int) map[int]int {
	out := map[int]int{}
	for i, r := range a.Adversary.Crashes(n) {
		out[i] = r
	}
	for i, r := range a.fixed {
		if cur, ok := out[i]; !ok || r < cur {
			out[i] = r
		}
	}
	return out
}

// TestTraceParityAcrossEngines: with a fixed seed — including a chaos
// adversary and a crash schedule — the sequential and pool engines emit
// identical event streams modulo wall-clock durations.
func TestTraceParityAcrossEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 5; trial++ {
		g := graph.GNP(40, 0.15, rng)
		run := func(parallel bool) []obs.Event {
			rec := obs.NewRecorder(0)
			_, err := runtime.Run(runtime.Config{
				Graph:    g,
				Factory:  annotatingFactory(4),
				Parallel: parallel,
				Trace:    rec,
				Adversary: withCrashes{
					Adversary: fault.New(fault.Policy{Seed: int64(trial + 1), Drop: 0.2, Duplicate: 0.15, Corrupt: 0.1}),
					fixed:     fault.Schedule{3: 2},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			return rec.Events()
		}
		seq := obs.Canonical(run(false))
		par := obs.Canonical(run(true))
		// A wrapped ring would silently shrink the compared window; the
		// recorder marks truncation explicitly and parity must not proceed
		// over a partial trace.
		if countEvents(seq, obs.EvTruncated) != 0 || countEvents(par, obs.EvTruncated) != 0 {
			t.Fatalf("trial %d: trace ring wrapped during parity run; raise the recorder capacity", trial)
		}
		if i, desc, ok := obs.Diff(seq, par); !ok {
			t.Fatalf("trial %d: traces diverge at %d: %s", trial, i, desc)
		}
		// The chaos run must actually have exercised fault events.
		if countEvents(seq, obs.EvFault) == 0 {
			t.Fatalf("trial %d: no fault events in chaos trace", trial)
		}
		if countEvents(seq, obs.EvCrash) != 1 {
			t.Fatalf("trial %d: want exactly one crash event", trial)
		}
	}
}

// TestTraceTerminalRoundEvents: a round that ends in ErrMachinePanic,
// ErrRoundDeadline, or ErrNoTermination still closes the trace with a
// terminal event carrying the error.
func TestTraceTerminalRoundEvents(t *testing.T) {
	requireTerminal := func(t *testing.T, rec *obs.Recorder, runErr error, wantRoundEnd bool) {
		t.Helper()
		ev := rec.Events()
		if len(ev) == 0 {
			t.Fatal("no events recorded")
		}
		last := ev[len(ev)-1]
		if last.Type != obs.EvRunEnd || last.Err == "" {
			t.Fatalf("last event = %+v, want run-end with error", last)
		}
		if !strings.Contains(runErr.Error(), last.Err) && !strings.Contains(last.Err, runErr.Error()) {
			t.Fatalf("run-end error %q does not match run error %q", last.Err, runErr)
		}
		if wantRoundEnd {
			prev := ev[len(ev)-2]
			if prev.Type != obs.EvRoundEnd || prev.Err == "" {
				t.Fatalf("penultimate event = %+v, want terminal round-end with error", prev)
			}
		}
	}

	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("panic/parallel=%v", parallel), func(t *testing.T) {
			rec := obs.NewRecorder(0)
			_, err := runtime.Run(runtime.Config{
				Graph:    graph.Clique(8),
				Parallel: parallel,
				Trace:    rec,
				Factory: func(info runtime.NodeInfo, pred any) runtime.Machine {
					if info.Index == 3 {
						return &panicMachine{phase: "receive", round: 2}
					}
					return &panicMachine{phase: "receive", round: -1}
				},
			})
			if !errors.Is(err, runtime.ErrMachinePanic) {
				t.Fatalf("want ErrMachinePanic, got %v", err)
			}
			requireTerminal(t, rec, err, true)
			// The terminal round-end names the aborting round.
			ev := rec.Events()
			if got := ev[len(ev)-2].Round; got != 2 {
				t.Fatalf("terminal round-end round = %d, want 2", got)
			}
		})
	}

	t.Run("deadline", func(t *testing.T) {
		block := make(chan struct{})
		defer close(block)
		rec := obs.NewRecorder(0)
		_, err := runtime.Run(runtime.Config{
			Graph:         graph.Line(4),
			RoundDeadline: 50 * time.Millisecond,
			Trace:         rec,
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
		requireTerminal(t, rec, err, true)
		// A deadline abort additionally carries the watchdog marker.
		ev := rec.Events()
		found := false
		for _, e := range ev {
			if e.Type == obs.EvDeadline && e.Round == 2 && e.Name == "send" {
				found = true
			}
		}
		if !found {
			t.Fatalf("no deadline event for round 2 send phase in %+v", ev)
		}
	})

	t.Run("no-termination", func(t *testing.T) {
		rec := obs.NewRecorder(0)
		_, err := runtime.Run(runtime.Config{
			Graph:     graph.Line(3),
			MaxRounds: 4,
			Trace:     rec,
			Factory:   func(info runtime.NodeInfo, pred any) runtime.Machine { return &neverTerminates{} },
		})
		if !errors.Is(err, runtime.ErrNoTermination) {
			t.Fatalf("want ErrNoTermination, got %v", err)
		}
		requireTerminal(t, rec, err, false)
		// All four executed rounds closed cleanly; the run-end names round 4.
		ev := rec.Events()
		if got := countEvents(ev, obs.EvRoundEnd); got != 4 {
			t.Fatalf("round-end events = %d, want 4", got)
		}
		if ev[len(ev)-1].Value != 4 {
			t.Fatalf("run-end last round = %d, want 4", ev[len(ev)-1].Value)
		}
	})
}

// neverTerminates participates forever, driving the MaxRounds overrun.
type neverTerminates struct{}

func (m *neverTerminates) Send(env *runtime.Env) []runtime.Out { return nil }

func (m *neverTerminates) Receive(env *runtime.Env, inbox []runtime.Msg) {}

// dropEveryOther deterministically drops every second intercepted message
// and duplicates every fifth — a fixed adversary for accounting assertions.
type dropEveryOther struct{ calls int }

func (a *dropEveryOther) Crashes(n int) map[int]int { return nil }

func (a *dropEveryOther) Intercept(round, from, to int, payload runtime.Payload, bits int) runtime.Fate {
	a.calls++
	if a.calls%2 == 0 {
		return runtime.Fate{Drop: true}
	}
	if a.calls%5 == 0 {
		return runtime.Fate{Extra: 1}
	}
	return runtime.Fate{}
}

// TestDeliveredVsInjectedAccounting: Messages/Bits count only delivered
// traffic; dropped and duplicated traffic appear only in the trace's fault
// ledger.
func TestDeliveredVsInjectedAccounting(t *testing.T) {
	g := graph.Clique(6)
	var stats []runtime.RoundStats
	rec := obs.NewRecorder(1 << 12)
	res, err := runtime.Run(runtime.Config{
		Graph:     g,
		Factory:   echoFactory(3),
		Adversary: &dropEveryOther{},
		Stats:     func(rs runtime.RoundStats) { stats = append(stats, rs) },
		Trace:     rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := runtime.Run(runtime.Config{Graph: g, Factory: echoFactory(3)})
	if err != nil {
		t.Fatal(err)
	}
	f := obs.Summarize(rec.Events()).Runs[0]
	if f.Dropped == 0 || f.Duplicated == 0 {
		t.Fatalf("adversary had no effect: %+v", f)
	}
	// Conservation: intercepted = delivered originals + dropped. Delivered
	// includes the injected duplicates on top of surviving originals.
	if int64(res.Messages)-f.Duplicated+f.Dropped != int64(clean.Messages) {
		t.Fatalf("ledger mismatch: delivered=%d injected=%d dropped=%d, clean=%d",
			res.Messages, f.Duplicated, f.Dropped, clean.Messages)
	}
	// echoPayload is 16 bits; dropped bits account each dropped message.
	if f.DroppedBits != 16*f.Dropped {
		t.Fatalf("DroppedBits = %d, want %d", f.DroppedBits, 16*f.Dropped)
	}
	sumMsgs := 0
	for _, rs := range stats {
		sumMsgs += rs.Messages
	}
	if sumMsgs != res.Messages || f.Messages != int64(res.Messages) {
		t.Fatalf("delivered ledgers disagree: per-round %d, trace %d, result %d", sumMsgs, f.Messages, res.Messages)
	}
}

// TestTraceDisabledNoNotes: without a recorder, Env.Annotate is a no-op and
// Tracing reports false (the allocation-free fast path).
func TestTraceDisabledNoNotes(t *testing.T) {
	seen := false
	_, err := runtime.Run(runtime.Config{
		Graph: graph.Line(2),
		Factory: func(info runtime.NodeInfo, pred any) runtime.Machine {
			return &probeTracing{seen: &seen}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen {
		t.Fatal("Env.Tracing() reported true without a recorder")
	}
}

type probeTracing struct{ seen *bool }

func (m *probeTracing) Send(env *runtime.Env) []runtime.Out {
	if env.Tracing() {
		*m.seen = true
	}
	env.Annotate("stage:noop", 0) // must be a no-op
	env.Output(0)
	env.Terminate()
	return nil
}

func (m *probeTracing) Receive(env *runtime.Env, inbox []runtime.Msg) {}
