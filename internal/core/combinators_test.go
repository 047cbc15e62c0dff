package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// laneRecorder is a stage machine that appends a label to the shared trace
// every time it is stepped, and finishes after a given number of steps.
type laneRecorder struct {
	label  string
	limit  int // 0 = never finishes on its own
	out    any // output on finish (nil = yield)
	tr     *trace
	result string // when set, written into the shared resultBox on finish
}

func (m *laneRecorder) Send(c *core.StageCtx) []runtime.Out {
	m.tr.events = append(m.tr.events, m.label)
	return c.Broadcast(ping{Stage: m.label})
}

func (m *laneRecorder) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	for _, msg := range inbox {
		p, ok := msg.Payload.(ping)
		if !ok || p.Stage != m.label {
			c.Fail(errTrace("lane " + m.label + " saw foreign message"))
			return
		}
	}
	if m.limit > 0 && c.StageRound() >= m.limit {
		if m.result != "" {
			if box, ok := c.Memory().(*laneMemory); ok {
				box.result = m.result
			}
		}
		if m.out != nil {
			c.Output(m.out)
		} else {
			c.Yield()
		}
	}
}

type laneMemory struct {
	trace
	result string
}

func recorderFactory(label string, limit int, out any, result string) core.StageFactory {
	return func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
		lm := mem.(*laneMemory)
		return &laneRecorder{label: label, limit: limit, out: out, tr: &lm.trace, result: result}
	}
}

func laneMem(info runtime.NodeInfo, pred any) any { return &laneMemory{} }

// TestInterleavedSchedule verifies the slicing: with schedule [2, 3], the
// lanes run U U R R | U U U R R R, with the initialization stage first.
func TestInterleavedSchedule(t *testing.T) {
	g := graph.Line(3)
	var mems []*laneMemory
	factory := func(info runtime.NodeInfo, pred any) runtime.Machine {
		inner := core.Interleaved(
			func(i runtime.NodeInfo, p any) any {
				lm := &laneMemory{}
				mems = append(mems, lm)
				return lm
			},
			core.Stage{Name: "b", Budget: 1, New: recorderFactory("b", 1, nil, "")},
			recorderFactory("u", 0, nil, ""),
			// The reference outputs after 5 of its own rounds: exactly at
			// the end of its second slice.
			recorderFactory("r", 5, "done", ""),
			func(info runtime.NodeInfo) []int { return []int{2, 3} },
		)
		return inner(info, pred)
	}
	res, err := runtime.Run(runtime.Config{Graph: g, Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	// b(1) + 2u + 2r + 3u + 3r = 11 rounds.
	if res.Rounds != 11 {
		t.Fatalf("rounds = %d, want 11", res.Rounds)
	}
	for _, o := range res.Outputs {
		if o != "done" {
			t.Errorf("output %v", o)
		}
	}
	for _, lm := range mems {
		got := joinEvents(lm.trace.events)
		if got != "buurruuurrr" {
			t.Errorf("trace %q, want buurruuurrr", got)
		}
	}
}

// TestInterleavedOvershoot: a reference slower than its declared schedule
// keeps running on the reference lane after the schedule is exhausted.
func TestInterleavedOvershoot(t *testing.T) {
	g := graph.Line(2)
	var mems []*laneMemory
	factory := func(info runtime.NodeInfo, pred any) runtime.Machine {
		inner := core.Interleaved(
			func(i runtime.NodeInfo, p any) any {
				lm := &laneMemory{}
				mems = append(mems, lm)
				return lm
			},
			core.Stage{Name: "b", Budget: 1, New: recorderFactory("b", 1, nil, "")},
			recorderFactory("u", 0, nil, ""),
			recorderFactory("r", 4, 1, ""), // needs 4 R rounds; schedule provides 2
			func(info runtime.NodeInfo) []int { return []int{2} },
		)
		return inner(info, pred)
	}
	res, err := runtime.Run(runtime.Config{Graph: g, Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	// b + uu + rr + rr(overshoot) = 7.
	if res.Rounds != 7 {
		t.Fatalf("rounds = %d, want 7", res.Rounds)
	}
	for _, lm := range mems {
		if got := joinEvents(lm.trace.events); got != "buurrrr" {
			t.Errorf("trace %q, want buurrrr", got)
		}
	}
}

// TestInterleavedUTerminatesEarly: when the measure-uniform lane finishes
// the whole problem inside its first slice, the reference never runs.
func TestInterleavedUFinishesFirst(t *testing.T) {
	g := graph.Line(2)
	factory := core.Interleaved(
		laneMem,
		core.Stage{Name: "b", Budget: 1, New: recorderFactory("b", 1, nil, "")},
		recorderFactory("u", 2, 7, ""), // outputs in its second round
		recorderFactory("r", 1, 9, ""),
		func(info runtime.NodeInfo) []int { return []int{4} },
	)
	res, err := runtime.Run(runtime.Config{Graph: g, Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3 (b + 2u)", res.Rounds)
	}
	for _, o := range res.Outputs {
		if o != 7 {
			t.Errorf("output %v, want 7 (from U)", o)
		}
	}
}

// TestParallelSection verifies the Parallel Template mechanics: both lanes
// step each round of the section, part 1's result lands in shared memory,
// and part 2 reads it after the section.
func TestParallelSection(t *testing.T) {
	g := graph.Line(3)
	var mems []*laneMemory
	readResult := core.StageFactory(func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
		return &resultReader{mem: mem.(*laneMemory)}
	})
	factory := core.Parallel(core.ParallelSpec{
		Mem: func(i runtime.NodeInfo, p any) any {
			lm := &laneMemory{}
			mems = append(mems, lm)
			return lm
		},
		B: core.Stage{Name: "b", Budget: 1, New: recorderFactory("b", 1, nil, "")},
		U: recorderFactory("u", 0, nil, ""),
		// R1 finishes (yields) after 2 rounds, storing its result; the
		// section budget is 4, so its lane idles for 2 rounds.
		R1:       recorderFactory("r", 2, nil, "colored"),
		R1Budget: func(info runtime.NodeInfo) int { return 4 },
		C:        nil,
		R2:       readResult,
	})
	res, err := runtime.Run(runtime.Config{Graph: g, Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	// b(1) + section(4) + r2(1) = 6.
	if res.Rounds != 6 {
		t.Fatalf("rounds = %d, want 6", res.Rounds)
	}
	for _, o := range res.Outputs {
		if o != "colored" {
			t.Errorf("output %v, want part 1's stored result", o)
		}
	}
	for _, lm := range mems {
		// Per section round both lanes step; R1 idles after yielding.
		if got := joinEvents(lm.trace.events); got != "bururuu" {
			t.Errorf("trace %q, want bururuu", got)
		}
	}
}

type resultReader struct{ mem *laneMemory }

func (m *resultReader) Send(c *core.StageCtx) []runtime.Out { return nil }
func (m *resultReader) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	c.Output(m.mem.result)
}

// TestParallelUWins: a measure-uniform lane that finishes everyone during
// the section ends the run; part 2 never executes.
func TestParallelUWins(t *testing.T) {
	g := graph.Line(2)
	factory := core.Parallel(core.ParallelSpec{
		Mem:      laneMem,
		B:        core.Stage{Name: "b", Budget: 1, New: recorderFactory("b", 1, nil, "")},
		U:        recorderFactory("u", 2, "fast", ""),
		R1:       recorderFactory("r", 0, nil, ""),
		R1Budget: func(info runtime.NodeInfo) int { return 10 },
		R2:       recorderFactory("r2", 1, "slow", ""),
	})
	res, err := runtime.Run(runtime.Config{Graph: g, Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
	for _, o := range res.Outputs {
		if o != "fast" {
			t.Errorf("output %v, want U's", o)
		}
	}
}

// TestParallelPart1MustNotOutput: a reference part 1 that outputs is a
// composition bug and must abort the run.
func TestParallelPart1MustNotOutput(t *testing.T) {
	g := graph.Line(2)
	factory := core.Parallel(core.ParallelSpec{
		Mem:      laneMem,
		B:        core.Stage{Name: "b", Budget: 1, New: recorderFactory("b", 1, nil, "")},
		U:        recorderFactory("u", 0, nil, ""),
		R1:       recorderFactory("r", 2, "illegal", ""),
		R1Budget: func(info runtime.NodeInfo) int { return 6 },
		R2:       recorderFactory("r2", 1, "x", ""),
	})
	if _, err := runtime.Run(runtime.Config{Graph: g, Factory: factory}); err == nil {
		t.Fatal("part 1 output should abort the run")
	}
}

// TestParallelWithCleanup: the clean-up stage runs between the section and
// part 2.
func TestParallelWithCleanup(t *testing.T) {
	g := graph.Line(2)
	var mems []*laneMemory
	cleanup := core.Stage{Name: "c", Budget: 2, New: recorderFactory("c", 0, nil, "")}
	factory := core.Parallel(core.ParallelSpec{
		Mem: func(i runtime.NodeInfo, p any) any {
			lm := &laneMemory{}
			mems = append(mems, lm)
			return lm
		},
		B:        core.Stage{Name: "b", Budget: 1, New: recorderFactory("b", 1, nil, "")},
		U:        recorderFactory("u", 0, nil, ""),
		R1:       recorderFactory("r", 1, nil, "v"),
		R1Budget: func(info runtime.NodeInfo) int { return 2 },
		C:        &cleanup,
		R2:       recorderFactory("r2", 1, "end", ""),
	})
	res, err := runtime.Run(runtime.Config{Graph: g, Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	// b(1) + section(2) + cleanup(2) + r2(1) = 6.
	if res.Rounds != 6 {
		t.Fatalf("rounds = %d, want 6", res.Rounds)
	}
	for _, lm := range mems {
		if got := joinEvents(lm.trace.events); got != "buruccr2" {
			t.Errorf("trace %q, want buruccr2", got)
		}
	}
}

func joinEvents(events []string) string {
	out := ""
	for _, e := range events {
		out += e
	}
	return out
}
