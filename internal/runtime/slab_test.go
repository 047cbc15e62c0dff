package runtime

import (
	gort "runtime"
	"testing"

	"repro/internal/graph"
)

// The slab tests pin the inbox arena's two scale-exposed fixes: stale slots
// beyond the current round must not pin payload references, and a one-round
// burst must not keep its peak capacity resident for the rest of the run.

func TestSlabClearsStaleSlots(t *testing.T) {
	var s msgSlab
	big := s.acquire(5)
	for i := range big {
		big[i] = Msg{From: i, Payload: make([]byte, 8)}
	}
	small := s.acquire(2)
	if len(small) != 2 {
		t.Fatalf("acquire(2) returned %d slots", len(small))
	}
	// The two live slots keep their (recycled) contents until overwritten;
	// everything beyond them must have been zeroed so the engine cannot pin
	// last round's payloads.
	for i := 2; i < 5; i++ {
		if s.arena[i].Payload != nil || s.arena[i].From != 0 {
			t.Errorf("stale slot %d not cleared: %+v", i, s.arena[i])
		}
	}
}

func TestSlabShrinksAfterBurst(t *testing.T) {
	var s msgSlab
	const burst = 200_000
	s.acquire(burst)
	if s.capacity() < burst {
		t.Fatalf("capacity %d after burst acquire(%d)", s.capacity(), burst)
	}
	// Steady state after the burst: the burst's peak survives one full
	// observation window (it is the windowed high-water mark), then the next
	// window measures only the steady demand and the policy releases the
	// excess.
	for i := 0; i < 2*slabShrinkWindow; i++ {
		got := s.acquire(10)
		if len(got) != 10 {
			t.Fatalf("acquire(10) returned %d slots", len(got))
		}
	}
	if s.capacity() > slabMinCap {
		t.Errorf("capacity %d still resident after %d steady rounds; want <= %d",
			s.capacity(), 2*slabShrinkWindow, slabMinCap)
	}
}

// burstMachine floods every neighbor in round 1 and then goes quiet until
// quitRound: the engine's inbox arena grows to the burst in round 1 and must
// have released it again by the end of the quiet stretch.
type burstMachine struct {
	quitRound int
}

func (m *burstMachine) Send(env *Env) []Out {
	switch {
	case env.Round() == 1:
		env.Broadcast(0)
	case env.Round() >= m.quitRound:
		env.Output(true)
		env.Terminate()
	}
	return nil
}

func (m *burstMachine) Receive(env *Env, inbox []Msg) {}

func TestEngineReleasesBurstMemory(t *testing.T) {
	// Clique on 512 nodes: the round-1 all-broadcast delivers 512*511
	// messages (~6 MB of Msg slots); afterwards no messages flow. The
	// shrink policy needs two observation windows to let the burst peak age
	// out, so the quiet stretch runs well past 2*slabShrinkWindow rounds.
	const n = 512
	quit := 2*slabShrinkWindow + 8
	g := graph.Clique(n)
	slab := make([]burstMachine, n)
	heapAt := make(map[int]uint64)
	_, err := Run(Config{
		Graph: g,
		Factory: func(info NodeInfo, pred any) Machine {
			m := &slab[info.Index]
			m.quitRound = quit
			return m
		},
		MaxRounds: quit + 4,
		Stats: func(s RoundStats) {
			if s.Round == 2 || s.Round == quit-1 {
				var ms gort.MemStats
				gort.GC()
				gort.ReadMemStats(&ms)
				heapAt[s.Round] = ms.HeapAlloc
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	after, before := heapAt[quit-1], heapAt[2]
	const arenaBytes = n * (n - 1) * 24 // Msg is 24 bytes on 64-bit
	if after > before-arenaBytes/2 {
		t.Errorf("heap after quiet stretch = %d bytes, still within %d of post-burst %d; burst arena (%d bytes) not released",
			after, before-after, before, arenaBytes)
	}
}

func TestSlabGrowsBeyondShrinkFloor(t *testing.T) {
	var s msgSlab
	for i := 0; i < 3*slabShrinkWindow; i++ {
		n := 100 + i // slowly growing demand must always be satisfied exactly
		got := s.acquire(n)
		if len(got) != n {
			t.Fatalf("tick %d: acquire(%d) returned %d slots", i, n, len(got))
		}
	}
}

// TestSlabGrowthHeadroom pins the arena's growth sizes: growth from an
// empty arena takes exactly the demand (a run's first sending round is
// often its densest, so headroom there would never be filled), and a later,
// larger demand grows with 25% headroom.
func TestSlabGrowthHeadroom(t *testing.T) {
	var s msgSlab
	s.acquire(0)
	if s.capacity() != 0 {
		t.Fatalf("acquire(0) on an empty arena made %d slots", s.capacity())
	}
	s.acquire(4000)
	if s.capacity() != 4000 {
		t.Errorf("first growth: capacity %d, want exactly 4000", s.capacity())
	}
	s.acquire(3000)
	if s.capacity() != 4000 {
		t.Errorf("a smaller demand reallocated: capacity %d, want 4000", s.capacity())
	}
	s.acquire(8000)
	if s.capacity() != 10000 {
		t.Errorf("later growth: capacity %d, want 10000 (25%% headroom over 8000)", s.capacity())
	}
}
