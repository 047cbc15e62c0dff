package core_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
)

type sized13 struct{}

func (sized13) Bits() int { return 13 }

// selfUnsized is BitSized but reports -1 bits itself.
type selfUnsized struct{}

func (selfUnsized) Bits() int { return -1 }

// sendOnce is a one-stage composition: every node broadcasts payload in
// its first round, then outputs.
func sendOnce(payload any) runtime.Factory {
	return core.Sequence(nil, core.Stage{
		Name: "send-once",
		New: func(runtime.NodeInfo, any, any) core.StageMachine {
			return &sendOnceMachine{payload: payload}
		},
	})
}

type sendOnceMachine struct{ payload any }

func (m *sendOnceMachine) Send(c *core.StageCtx) []runtime.Out {
	return c.Broadcast(m.payload)
}

func (m *sendOnceMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) { c.Output(len(inbox)) }

// TestTagHeaderSizing: a tagged message is sized like the old boxed tag —
// sized, unsized and self-reported -1 payloads alike — both by
// runtime.MessageBits and in the engine's ledgers, and MaxMessageBits
// judges the tagged size.
func TestTagHeaderSizing(t *testing.T) {
	g := graph.Ring(6)
	for _, tc := range []struct {
		name    string
		payload any
		want    int // the size the old boxed tag wrapper reported
	}{
		{"sized", sized13{}, 21},
		{"unsized", "local-only", -1},
		{"inner -1", selfUnsized{}, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := runtime.MessageBits(1, tc.payload); got != tc.want {
				t.Errorf("MessageBits(tagged) = %d, want %d", got, tc.want)
			}
			var bits int
			res, err := runtime.Run(runtime.Config{
				Graph:   g,
				Factory: sendOnce(tc.payload),
				Stats:   func(s runtime.RoundStats) { bits += s.Bits },
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.MaxMsgBits != tc.want {
				t.Errorf("MaxMsgBits = %d, want %d", res.MaxMsgBits, tc.want)
			}
			if tc.want >= 0 && bits != res.Messages*tc.want {
				t.Errorf("ledger bits %d, want %d messages x %d", bits, res.Messages, tc.want)
			}

			// CONGEST: the tagged size is what the budget sees.
			if tc.want < 0 {
				_, err := runtime.Run(runtime.Config{Graph: g, Factory: sendOnce(tc.payload), MaxMessageBits: 64})
				if !errors.Is(err, runtime.ErrCongestViolation) {
					t.Errorf("unsized tagged payload under a budget: err %v, want ErrCongestViolation", err)
				}
				return
			}
			if _, err := runtime.Run(runtime.Config{Graph: g, Factory: sendOnce(tc.payload), MaxMessageBits: tc.want}); err != nil {
				t.Errorf("budget %d = tagged size: %v", tc.want, err)
			}
			_, err = runtime.Run(runtime.Config{Graph: g, Factory: sendOnce(tc.payload), MaxMessageBits: tc.want - 1})
			if !errors.Is(err, runtime.ErrCongestViolation) {
				t.Errorf("budget %d below tagged size: err %v, want ErrCongestViolation", tc.want-1, err)
			}
		})
	}
	if got := runtime.MessageBits(0, sized13{}); got != 13 {
		t.Errorf("MessageBits(untagged) = %d, want the payload's 13", got)
	}
}

// sizeRecorder wraps the chaos adversary and records, per corrupted
// message, the size the engine reported and the Garbage replacing it.
type sizeRecorder struct {
	inner   *fault.Chaos
	reports []int
	garbage []int
}

func (r *sizeRecorder) Crashes(n int) map[int]int { return r.inner.Crashes(n) }

func (r *sizeRecorder) Intercept(round, from, to int, payload runtime.Payload, bits int) runtime.Fate {
	fate := r.inner.Intercept(round, from, to, payload, bits)
	if g, ok := fate.Payload.(fault.Garbage); ok {
		r.reports = append(r.reports, bits)
		r.garbage = append(r.garbage, g.Bits())
	}
	return fate
}

// beacon is a stage machine that broadcasts payload every round (nothing
// when payload is nil) and yields after its first round.
func beacon(payload any) core.StageFactory {
	return func(runtime.NodeInfo, any, any) core.StageMachine { return beaconMachine{payload} }
}

type beaconMachine struct{ payload any }

func (m beaconMachine) Send(c *core.StageCtx) []runtime.Out {
	if m.payload == nil {
		return nil
	}
	return c.Broadcast(m.payload)
}

func (beaconMachine) Receive(c *core.StageCtx, _ []runtime.Msg) { c.Yield() }

// TestGarbageFailsStageAsUntagged: a fault.Garbage corruption keeps the
// tagged message's size, header included, and arrives untagged, so the
// template fails with the "untagged message" protocol error, naming the
// stage, the parallel section or the interleaved lane that received it.
func TestGarbageFailsStageAsUntagged(t *testing.T) {
	parallel := func(b, u any) runtime.Factory {
		return core.Parallel(core.ParallelSpec{
			B:        core.Stage{Name: "b", Budget: 1, New: beacon(b)},
			U:        beacon(u),
			R1:       beacon(nil),
			R1Budget: func(runtime.NodeInfo) int { return 2 },
			R2:       beacon(nil),
		})
	}
	interleaved := func(b, u, r any) runtime.Factory {
		return core.Interleaved(nil, core.Stage{Name: "b", Budget: 1, New: beacon(b)}, beacon(u), beacon(r),
			func(runtime.NodeInfo) []int { return []int{1} })
	}
	msg := sized13{}
	for _, tc := range []struct {
		name    string
		factory runtime.Factory
		want    string
	}{
		{"sequence", sendOnce(msg), `(stage "send-once")`},
		{"parallel init", parallel(msg, nil), `(stage "b")`},
		{"parallel section", parallel(nil, msg), "(parallel section)"},
		{"interleaved init", interleaved(msg, nil, nil), `(stage "b")`},
		{"interleaved lane 1", interleaved(nil, msg, nil), "(interleaved lane 1)"},
		{"interleaved lane 2", interleaved(nil, nil, msg), "(interleaved lane 2)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			adv := &sizeRecorder{inner: fault.New(fault.Policy{Seed: 5, Corrupt: 1})}
			_, err := runtime.Run(runtime.Config{Graph: graph.Ring(6), Factory: tc.factory, Adversary: adv})
			if !errors.Is(err, runtime.ErrProtocol) || !strings.Contains(err.Error(), "untagged message") ||
				!strings.HasSuffix(err.Error(), tc.want) {
				t.Fatalf("err = %v, want the untagged-message ErrProtocol ending in %s", err, tc.want)
			}
			if len(adv.garbage) == 0 {
				t.Fatal("no message was corrupted")
			}
			for k, size := range adv.garbage {
				if adv.reports[k] != 21 || size != 21 {
					t.Fatalf("corruption %d: reported %d bits, Garbage %d; want the tagged 21", k, adv.reports[k], size)
				}
			}
		})
	}
}
