package lp

import (
	"math"
	"sort"

	"bcclap/internal/linalg"
	"bcclap/internal/sim"
)

// ProjectMixedBall solves
//
//	argmax_{‖x‖₂ + ‖l⁻¹x‖∞ ≤ 1} aᵀx
//
// following Lemma 4.10. Splitting the unit budget into an ∞-part t and a
// 2-part 1−t, the inner optimum for fixed t clamps the coordinates with the
// largest |a_i|/l_i at t·l_i·sign(a_i) and spends the remaining 2-norm
// budget proportionally to a; the split index is found by a binary search
// over the (implicitly sorted) ratio order using three prefix sums
// Σ|a_k|l_k, Σl_k², Σa_k² — each evaluation is one aggregate broadcast
// phase in the BCC (charged to net when provided). The outer value
//
//	g(t) = t·Σ_{k∈[i_t]}|a_k|l_k + √((1−t)² − t²Σ_{k∈[i_t]}l_k²)·√(‖a‖² − Σ_{k∈[i_t]}a_k²)
//
// is concave (it is the partial maximization of a linear function over the
// convex set {(x,t) : ‖x‖₂ ≤ 1−t, |x_i| ≤ t·l_i}), so a golden-section
// search over t needs O(log(1/precision)) evaluations, matching the
// paper's Õ(log²(U/ε))-round bound.
//
// All l_i must be positive.
func ProjectMixedBall(a, l []float64, net *sim.Network) []float64 {
	return newMixedBall(len(a)).project(a, l, net)
}

// mixedBall holds the buffers of one ProjectMixedBall shape: the result,
// the clamp order and the three prefix sums. The centering loop keeps one
// per solver call, so projecting allocates nothing.
type mixedBall struct {
	x          []float64
	order      []int
	p1, p2, p3 []float64
	// a and l are the current inputs, read by the sort.Interface methods.
	a, l []float64
}

func newMixedBall(m int) *mixedBall {
	return &mixedBall{
		x:     make([]float64, m),
		order: make([]int, m),
		p1:    make([]float64, m+1),
		p2:    make([]float64, m+1),
		p3:    make([]float64, m+1),
	}
}

// Len, Less and Swap sort order by |a_i|/l_i descending. sort.Sort runs
// the same pattern-defeating quicksort as sort.Slice over the same
// comparisons, so ties land in the order sort.Slice would give them,
// without its per-call allocations.
func (mb *mixedBall) Len() int      { return len(mb.order) }
func (mb *mixedBall) Swap(p, q int) { mb.order[p], mb.order[q] = mb.order[q], mb.order[p] }
func (mb *mixedBall) Less(p, q int) bool {
	ip, iq := mb.order[p], mb.order[q]
	return math.Abs(mb.a[ip])*mb.l[iq] > math.Abs(mb.a[iq])*mb.l[ip]
}

// project is ProjectMixedBall into the receiver's buffers; the returned
// slice is mb.x, overwritten by the next call. len(a) must equal the
// shape the receiver was built for.
func (mb *mixedBall) project(a, l []float64, net *sim.Network) []float64 {
	m := len(a)
	x := mb.x
	for i := range x {
		x[i] = 0
	}
	if m == 0 || linalg.Norm2(a) == 0 {
		return x
	}
	// Sort indices by |a_i|/l_i descending — the clamp priority order. (In
	// the BCC the order is never materialized; the binary search below
	// queries ratio thresholds, which is how the paper sidesteps sorting.)
	order := mb.order
	for i := range order {
		order[i] = i
	}
	mb.a, mb.l = a, l
	sort.Sort(mb)
	mb.a, mb.l = nil, nil
	// Prefix sums over the sorted order: P1 = Σ|a|l, P2 = Σl², P3 = Σa².
	p1, p2, p3 := mb.p1, mb.p2, mb.p3
	for j, idx := range order {
		p1[j+1] = p1[j] + math.Abs(a[idx])*l[idx]
		p2[j+1] = p2[j] + l[idx]*l[idx]
		p3[j+1] = p3[j] + a[idx]*a[idx]
	}
	normA2 := p3[m]

	charge := func() {
		if net == nil {
			return
		}
		// One aggregate phase: every vertex broadcasts its three partial
		// sums with O(log(mU/ε)) bits each.
		net.BeginPhase()
		bits := 3 * sim.BitsForFloat(1e6, 1e-9)
		for v := 0; v < net.N(); v++ {
			net.Broadcast(v, bits, nil)
		}
		net.EndPhase()
	}

	// split returns, for the normalized inner problem at ∞-budget τ =
	// t/(1−t), the clamp count c and the proportional coefficient μ such
	// that x_j = sign(a_j)·min(μ|a_j|, τ·l_j) has unit 2-norm.
	muFor := func(c int, tau float64) float64 {
		rest := normA2 - p3[c]
		budget := 1 - tau*tau*p2[c]
		if rest <= 1e-300 {
			return 0
		}
		if budget <= 0 {
			return 0
		}
		return math.Sqrt(budget / rest)
	}
	split := func(tau float64) (int, float64) {
		charge()
		// Binary search for the largest c with every clamped coordinate
		// consistent: μ_c·|a_{σ(c)}| ≥ τ·l_{σ(c)} and budget ≥ 0.
		lo, hi := 0, m
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if 1-tau*tau*p2[mid] < 0 {
				hi = mid - 1
				continue
			}
			idx := order[mid-1]
			mu := muFor(mid, tau)
			if mu*math.Abs(a[idx]) >= tau*l[idx] || muFor(mid-1, tau)*math.Abs(a[idx]) > tau*l[idx] {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		return lo, muFor(lo, tau)
	}
	value := func(t float64) float64 {
		if t >= 1 {
			return 0
		}
		tau := t / (1 - t)
		c, mu := split(tau)
		inner := tau*p1[c] + mu*(normA2-p3[c])
		return (1 - t) * inner
	}
	// Golden-section search over the concave value(t).
	lo, hi := 0.0, 1.0
	const phi = 0.6180339887498949
	t1 := hi - phi*(hi-lo)
	t2 := lo + phi*(hi-lo)
	v1, v2 := value(t1), value(t2)
	for it := 0; it < 48; it++ {
		if v1 < v2 {
			lo = t1
			t1, v1 = t2, v2
			t2 = lo + phi*(hi-lo)
			v2 = value(t2)
		} else {
			hi = t2
			t2, v2 = t1, v1
			t1 = hi - phi*(hi-lo)
			v1 = value(t1)
		}
	}
	t := (lo + hi) / 2
	if v0 := value(0); v0 > value(t) {
		t = 0
	}
	tau := t / (1 - t)
	c, mu := split(tau)
	for j, idx := range order {
		if j < c {
			// Clamped coordinates sit exactly on their ∞-budget.
			x[idx] = (1 - t) * tau * l[idx] * sign(a[idx])
		} else {
			x[idx] = (1 - t) * sign(a[idx]) * math.Min(mu*math.Abs(a[idx]), tau*l[idx])
		}
	}
	return x
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	if v > 0 {
		return 1
	}
	return 0
}

// MixedBallValue evaluates aᵀx.
func MixedBallValue(a, x []float64) float64 { return linalg.Dot(a, x) }

// MixedBallFeasible reports whether ‖x‖₂ + ‖l⁻¹x‖∞ ≤ 1 + tol.
func MixedBallFeasible(x, l []float64, tol float64) bool {
	infPart := 0.0
	for i := range x {
		if v := math.Abs(x[i]) / l[i]; v > infPart {
			infPart = v
		}
	}
	return linalg.Norm2(x)+infPart <= 1+tol
}
