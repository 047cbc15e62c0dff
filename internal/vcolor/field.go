// Package vcolor implements the (Δ+1)-Vertex Coloring problem with
// predictions (paper Section 8.2) and a Linial-style locally-iterative
// (Δ+1)-coloring algorithm built from cover-free set systems over prime
// fields. The coloring algorithm is fault tolerant — each round's recoloring
// decision uses only the colors heard that round, so crashed (or terminated)
// neighbors drop out naturally — which is exactly the property the Parallel
// Template requires of its reference's first part (Section 7.4).
package vcolor

// isPrime reports whether q is prime (trial division; q is small).
func isPrime(q int) bool {
	if q < 2 {
		return false
	}
	for f := 2; f*f <= q; f++ {
		if q%f == 0 {
			return false
		}
	}
	return true
}

// nextPrime returns the smallest prime >= q.
func nextPrime(q int) int {
	if q < 2 {
		return 2
	}
	for !isPrime(q) {
		q++
	}
	return q
}

// powAtLeast reports whether q^e >= k, without overflow.
func powAtLeast(q, e, k int) bool {
	p := 1
	for i := 0; i < e; i++ {
		if p >= (k+q-1)/q {
			return true
		}
		p *= q
	}
	return p >= k
}

// ReductionStep describes one Linial color-reduction round: colors in
// [0, K) are interpreted as polynomials of degree at most T over GF(Q) and
// replaced by a point of the polynomial's graph avoided by all neighbors,
// giving colors in [0, Q²).
type ReductionStep struct {
	Q, T, K int
}

// Schedule computes the Linial reduction schedule for identifier domain d
// and maximum degree delta: the reduction steps to apply in successive
// rounds and the resulting palette size kStar (the fixed point, O(Δ²)).
// Every node computes the same schedule from (d, Δ), so the rounds are
// lockstep and the total round bound is known in advance.
func Schedule(d, delta int) (steps []ReductionStep, kStar int) {
	if delta == 0 {
		return nil, 1
	}
	k := d
	for {
		step, ok := nextStep(k, delta)
		if !ok {
			return steps, k
		}
		steps = append(steps, step)
		k = step.Q * step.Q
	}
}

// nextStep returns the reduction step from a palette of k colors, and false
// when k is the schedule's fixed point (no field shrinks it further).
// delta must be positive.
func nextStep(k, delta int) (ReductionStep, bool) {
	q, t := chooseField(k, delta)
	return ReductionStep{Q: q, T: t, K: k}, q*q < k
}

// chooseField returns the smallest prime q (and the smallest feasible degree
// bound t for it) such that colors in [0, k) embed as degree-≤t polynomials
// over GF(q) (q^{t+1} ≥ k) and every node can find an uncovered point
// (q ≥ Δ·t + 1).
func chooseField(k, delta int) (q, t int) {
	for q = 2; ; q = nextPrime(q + 1) {
		tmax := (q - 1) / delta
		if tmax < 1 {
			continue
		}
		if !powAtLeast(q, tmax+1, k) {
			continue
		}
		for t = 1; t <= tmax; t++ {
			if powAtLeast(q, t+1, k) {
				return q, t
			}
		}
	}
}

// Rounds returns the total round bound of the Linial coloring algorithm for
// identifier domain d and maximum degree delta: one round per reduction step
// plus one round per color eliminated in the final reduction from kStar to
// Δ+1 colors. The bound is O(Δ² + log* d); see DESIGN.md for the (documented)
// gap to the paper's O(Δ + log* d) references, which changes only constants
// in the robustness bounds.
//
// It walks the schedule without building it: the templates call it in
// every round of every node.
func Rounds(d, delta int) int {
	total, kStar := 0, 1
	if delta > 0 {
		kStar = d
		for step, ok := nextStep(kStar, delta); ok; step, ok = nextStep(kStar, delta) {
			total++
			kStar = step.Q * step.Q
		}
	}
	if kStar > delta+1 {
		total += kStar - (delta + 1)
	}
	if total < 1 {
		total = 1
	}
	return total
}

// polyCoeffs expands color c (0-based, < q^{t+1}) into its base-q digits,
// the coefficients of its polynomial.
func polyCoeffs(c, q, t int) []int {
	coeffs := make([]int, t+1)
	for i := range coeffs {
		coeffs[i] = c % q
		c /= q
	}
	return coeffs
}

// polyEval evaluates the polynomial with the given coefficients at x, mod q.
func polyEval(coeffs []int, x, q int) int {
	v := 0
	for i := len(coeffs) - 1; i >= 0; i-- {
		v = (v*x + coeffs[i]) % q
	}
	return v
}

// ApplyReduction applies one Linial reduction step: given this node's color
// and the colors its live neighbors announced this round (all < step.K), it
// returns the new color in [0, Q²) — a point (x, f(x)) of this node's
// polynomial that lies on no neighbor's polynomial. Such a point exists
// because distinct polynomials of degree ≤ T agree on at most T of the Q
// evaluation points and Δ·T < Q. Exported for the line-graph edge coloring
// and the Δ-doubling uniform MIS reference, which run the same reduction.
func ApplyReduction(step ReductionStep, color int, nbrColors []int) int {
	mine := polyCoeffs(color, step.Q, step.T)
	others := make([][]int, 0, len(nbrColors))
	for _, c := range nbrColors {
		if c != color {
			others = append(others, polyCoeffs(c, step.Q, step.T))
		}
	}
	for x := 0; x < step.Q; x++ {
		fx := polyEval(mine, x, step.Q)
		hit := false
		for _, g := range others {
			if polyEval(g, x, step.Q) == fx {
				hit = true
				break
			}
		}
		if !hit {
			return x*step.Q + fx
		}
	}
	// Unreachable when the preconditions hold; fall back to the first point.
	return polyEval(mine, 0, step.Q)
}
