package runtime

// msgSlab is the engine's inbox arena: every round's deliveries live in one
// contiguous []Msg, carved into per-node regions by the precomputed offsets
// in state.inOff/inFill. Reusing one arena across rounds keeps steady-state
// rounds allocation-free, but naive truncate-don't-nil reuse has two leaks
// at scale:
//
//   - stale Msg slots beyond the current round's use keep their Payload
//     references alive, pinning arbitrary machine data;
//   - one dense round (a burst) grows the arena to its peak and the peak
//     capacity then stays resident for the rest of the run — at 10^6 nodes
//     a single all-broadcast round can pin gigabytes.
//
// acquire therefore clears the stale tail every round and applies a
// high-water shrink policy: capacity that exceeds slabShrinkFactor times the
// largest demand seen in the last slabShrinkWindow rounds is released and
// the arena is re-allocated at that high-water mark.
//
// Growth from an empty arena takes exactly the round's demand: the first
// round that sends is often a run's densest (every node announcing itself),
// so headroom there would only hold slots no later round fills. Every later
// growth adds 25% headroom, so a slowly rising demand reallocates rarely.
type msgSlab struct {
	arena []Msg
	// used is the slot count handed out by the previous acquire.
	used int
	// peak is the largest acquire seen in the current observation window;
	// ticks counts the rounds the window has been open.
	peak  int
	ticks int
}

const (
	// slabShrinkWindow is how many rounds a burst capacity survives before
	// the shrink policy reconsiders it.
	slabShrinkWindow = 32
	// slabShrinkFactor: capacity beyond factor x windowed-high-water is
	// released at the window boundary.
	slabShrinkFactor = 4
	// slabMinCap is the floor below which the arena is never shrunk.
	slabMinCap = 1024
)

// acquire returns a slice with room for exactly total messages, valid until
// the next acquire. Slots are either freshly allocated or recycled with any
// stale payload references beyond total cleared. acquire is on the round hot
// path; its two makes below are the deliberate exceptions — each fires only
// at a capacity boundary, never in steady state, and each carries a
// lint:allow explaining why.
//
//dgp:hotpath
func (s *msgSlab) acquire(total int) []Msg {
	if total > s.peak {
		s.peak = total
	}
	s.ticks++
	if s.ticks >= slabShrinkWindow {
		if want := s.peak * slabShrinkFactor; want < len(s.arena) && len(s.arena) > slabMinCap {
			next := s.peak
			if next < slabMinCap {
				next = slabMinCap
			}
			// Dropping the old arena releases both the excess slots and every
			// payload they still referenced.
			//lint:allow allocguard (shrink boundary: reallocating at the high-water mark is the whole point — it fires at most once per slabShrinkWindow rounds)
			s.arena = make([]Msg, next)
			s.used = 0
		}
		s.peak, s.ticks = total, 0
	}
	if total > len(s.arena) {
		// Grow, with headroom unless the arena was empty; the old arena (and
		// its stale references) is dropped wholesale.
		size := total
		if len(s.arena) > 0 {
			size += total / 4
		}
		//lint:allow allocguard (growth: amortized by the 25% headroom — steady-state rounds take the recycle branch and never reach this make)
		s.arena = make([]Msg, size)
	} else {
		for i := total; i < s.used; i++ {
			s.arena[i] = Msg{}
		}
	}
	s.used = total
	return s.arena[:total]
}

// capacity reports the arena's current slot capacity (test hook for the
// shrink policy).
func (s *msgSlab) capacity() int { return len(s.arena) }
