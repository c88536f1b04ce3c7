package lp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"bcclap/internal/linalg"
	"bcclap/internal/sim"
)

// ErrInfeasible is returned (wrapped) when the supplied starting point is
// not strictly feasible for the problem: outside the box interior or
// violating the equality constraints. Callers detect it with errors.Is.
var ErrInfeasible = errors.New("lp: starting point is not strictly feasible")

// Params tunes LPSolve. Zero values select practical defaults that keep
// the paper's asymptotic shapes (see the package comment).
type Params struct {
	// Alpha is the multiplicative t-step (paper: R/(1600√n·log²m); default:
	// 0.4/√n, preserving the Θ(√n·log(U/ε)) path-step count of
	// Theorem 1.4).
	Alpha float64
	// CenterTol is the centrality measure δ below which a t-step is taken;
	// centering repeats (up to MaxInnerSteps) until reached.
	CenterTol float64
	// MaxInnerSteps caps centering repetitions per t-step.
	MaxInnerSteps int
	// FinalCenterings is the number of extra centerings at t_end
	// (paper: 4c_k·log(1/η)).
	FinalCenterings int
	// Lewis tunes the weight computations.
	Lewis LewisParams
	// LeverageEta is the JL distortion for leverage scores.
	LeverageEta float64
	// ExactLeverage disables sketching (small instances / tests).
	ExactLeverage bool
	// Seed feeds the shared Kane–Nelson seeds.
	Seed int64
	// Net, if non-nil, receives round accounting.
	Net *sim.Network
	// MaxPathSteps is a safety cap on total t-steps.
	MaxPathSteps int
	// InitWeightSteps caps the Algorithm 8 homotopy length.
	InitWeightSteps int
	// Progress, if non-nil, is invoked after every path step with the phase
	// (1 = artificial cost, 2 = true cost), the cumulative path-step count
	// and the current path parameter t. Observability only; it must be fast
	// and must not mutate solver state.
	Progress func(phase, step int, t float64)
}

func (p Params) withDefaults(n int) Params {
	if p.Alpha == 0 {
		p.Alpha = 0.4 / math.Sqrt(float64(maxInt(n, 1)))
	}
	if p.CenterTol == 0 {
		p.CenterTol = 0.5
	}
	if p.MaxInnerSteps == 0 {
		p.MaxInnerSteps = 6
	}
	if p.FinalCenterings == 0 {
		p.FinalCenterings = 12
	}
	if p.Lewis == (LewisParams{}) {
		p.Lewis = DefaultLewisParams()
	}
	if p.LeverageEta == 0 {
		p.LeverageEta = 0.5
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.MaxPathSteps == 0 {
		p.MaxPathSteps = 200000
	}
	if p.InitWeightSteps == 0 {
		p.InitWeightSteps = 400
	}
	return p
}

// Solution is the result of Solve.
type Solution struct {
	// X is the final (strictly feasible) iterate.
	X []float64
	// Weights is the final regularized Lewis weight vector; feeding it back
	// through Session.Polish warm-starts a re-solve of the same problem.
	Weights []float64
	// Objective is cᵀX.
	Objective float64
	// PathSteps counts t-updates across both phases (the quantity
	// Theorem 1.4 bounds by Õ(√n·log(U/ε))).
	PathSteps int
	// Centerings counts CenteringInexact invocations.
	Centerings int
	// CGIterations accumulates the inner iterations of the projection
	// (AᵀDA)-solves across all centerings (0 for the dense backend).
	CGIterations int
	// PrecondBuilds and PrecondRefreshes snapshot the backend's
	// combinatorial-preconditioner counters at the end of this solve (0 for
	// backends without one). They are cumulative over the owning session,
	// so a Builds count that stays at 1 across repeated solves is direct
	// evidence the symbolic structure was reused.
	PrecondBuilds    int
	PrecondRefreshes int
	// Rounds is the simulator round count consumed by this solve (0 without
	// a network).
	Rounds int
}

// scratch holds the centering buffers, allocated once per solver call and
// reused across every path step (the IPM performs Õ(√n) centerings, each
// of which then allocates nothing). They live with the call, not with the
// Session: a Session is kept per answered terminal pair, and per-call
// buffers keep what it retains small. Every buffer is fully written before
// it is read in each centering, so results stay bit-identical to a fresh
// allocation.
type scratch struct {
	phi1, phi2, phi2New []float64 // barrier derivatives at x / xNew
	q, pq               []float64 // centrality direction and projection
	dx, xNew            []float64 // Newton step
	base, z, dvec, grad []float64 // weight-update intermediates
	apx, lewD, sigma    []float64 // Lewis weights and their scratch
	l, wNew             []float64 // mixed-ball radii, next weights
	tmp, rhs, asol      []float64 // applyProjection temporaries
	mb                  *mixedBall
}

// newScratch sizes the reusable centering buffers for an m×n problem.
func newScratch(m, n int) *scratch {
	v := func(k int) []float64 { return make([]float64, k) }
	s := &scratch{}
	s.phi1, s.phi2, s.phi2New = v(m), v(m), v(m)
	s.q, s.pq = v(m), v(m)
	s.dx, s.xNew = v(m), v(m)
	s.base, s.z, s.dvec, s.grad = v(m), v(m), v(m), v(m)
	s.apx, s.lewD, s.sigma = v(m), v(m), v(m)
	s.l, s.wNew = v(m), v(m)
	s.tmp, s.asol = v(m), v(m)
	s.rhs = v(n)
	s.mb = newMixedBall(m)
	return s
}

// ipm carries one solver run.
type ipm struct {
	ctx    context.Context
	prob   *Problem
	bar    *Barriers
	par    Params
	lev    *leverage
	sol    ATDASolve
	pstats *PrecondStats // live backend counters (nil without a preconditioner)
	phase  int           // 1 = artificial cost, 2 = true cost, 3 = polish

	m, n   int
	p      float64 // Lewis exponent 1 − 1/log(4m)
	c0     float64 // weight regularization n/(2m)
	cK     float64
	cNorm  float64
	etaW   float64 // weight-update precision (practical e^R − 1)
	counts Solution

	scr *scratch
}

// Solve runs LPSolve (Algorithm 9) without cancellation; see SolveCtx.
func Solve(prob *Problem, x0 []float64, eps float64, par Params) (*Solution, error) {
	return SolveCtx(context.Background(), prob, x0, eps, par)
}

// SolveCtx runs LPSolve (Algorithm 9): center x0 against the artificial
// cost d = −w·φ′(x0) down to a tiny t₁, then follow the weighted central
// path for the true cost up to t₂ = 2m/ε. The returned point satisfies
// Aᵀx = b, l < x < u and (for converged runs) cᵀx ≤ OPT + O(ε).
//
// ctx is checked at every outer path step and inside the CG/Chebyshev
// kernels of the linear-solve backends; on cancellation or deadline the
// error satisfies errors.Is(err, ctx.Err()). One-shot callers pay the
// backend/scratch construction every call — use a Session to amortize it.
func SolveCtx(ctx context.Context, prob *Problem, x0 []float64, eps float64, par Params) (*Solution, error) {
	sess, err := NewSession(prob)
	if err != nil {
		return nil, err
	}
	return sess.Solve(ctx, x0, eps, par)
}

// pathFollowing implements Algorithm 10: alternate centering and
// multiplicative t-steps clamped by median to t_end, then polish with
// FinalCenterings extra centerings at t_end. The context is polled once
// per outer iteration, so cancellation surfaces within one path step.
func (s *ipm) pathFollowing(x, w []float64, tStart, tEnd float64, c []float64) ([]float64, []float64, error) {
	t := tStart
	var err error
	for t != tEnd {
		if err := s.ctx.Err(); err != nil {
			return x, w, fmt.Errorf("lp: canceled after %d path steps: %w", s.counts.PathSteps, err)
		}
		if s.counts.PathSteps >= s.par.MaxPathSteps {
			return x, w, fmt.Errorf("lp: exceeded %d path steps (t = %g, target %g)", s.par.MaxPathSteps, t, tEnd)
		}
		x, w, err = s.centerLoop(x, w, t, c)
		if err != nil {
			return x, w, err
		}
		t = linalg.Median3((1-s.par.Alpha)*t, tEnd, (1+s.par.Alpha)*t)
		s.counts.PathSteps++
		if s.par.Progress != nil {
			s.par.Progress(s.phase, s.counts.PathSteps, t)
		}
	}
	for i := 0; i < s.par.FinalCenterings; i++ {
		if err := s.ctx.Err(); err != nil {
			return x, w, fmt.Errorf("lp: canceled during final centerings: %w", err)
		}
		x, w, err = s.center(x, w, tEnd, c)
		if err != nil {
			return x, w, err
		}
	}
	return x, w, nil
}

// centerLoop repeats centering until the centrality measure δ is below
// CenterTol (practical safeguard for the aggressive α; with the paper's
// constants a single step maintains the invariant).
func (s *ipm) centerLoop(x, w []float64, t float64, c []float64) ([]float64, []float64, error) {
	var err error
	for inner := 0; inner < s.par.MaxInnerSteps; inner++ {
		var delta float64
		x, w, delta, err = s.centerDelta(x, w, t, c)
		if err != nil {
			return x, w, err
		}
		if delta <= s.par.CenterTol {
			break
		}
	}
	return x, w, nil
}

func (s *ipm) center(x, w []float64, t float64, c []float64) ([]float64, []float64, error) {
	x, w, _, err := s.centerDelta(x, w, t, c)
	return x, w, err
}

// centerDelta implements CenteringInexact (Algorithm 11): one projected
// Newton step on the weighted barrier plus one multiplicative weight update
// toward the fresh approximate Lewis weights, steered through the
// mixed-norm-ball projection.
//
// The returned x and w slices are the reusable scratch buffers (every
// write is elementwise against the same index of the inputs, so aliasing
// across successive calls is safe); Solve clones the final iterate before
// handing it to the caller.
func (s *ipm) centerDelta(x, w []float64, t float64, c []float64) ([]float64, []float64, float64, error) {
	m := s.m
	phi1, phi2 := s.scr.phi1, s.scr.phi2
	s.bar.D1To(phi1, x)
	s.bar.D2To(phi2, x)

	// q = (t·c + w·φ′(x)) / (w·√φ″(x)).
	q := s.scr.q
	central := true
	for i := 0; i < m; i++ {
		q[i] = (t*c[i] + w[i]*phi1[i]) / (w[i] * math.Sqrt(phi2[i]))
		central = central && q[i] == 0
	}
	if central {
		// x is exactly central (phase 1 starts so by construction): the
		// projection is 0, so δ = 0, the Newton step is 0 and the weight
		// update is scaled by min(δ, 1) = 0 — centerStep would return x
		// and w unchanged. Skip the solve and the Lewis weights; this is
		// not a centering.
		return x, w, 0, nil
	}
	return s.centerStep(x, w, q)
}

// centerStep is the centering proper: the Newton step along the projected
// direction q and the weight update. scr.phi2 must hold φ″(x).
func (s *ipm) centerStep(x, w, q []float64) ([]float64, []float64, float64, error) {
	m := s.m
	phi2 := s.scr.phi2
	s.counts.Centerings++
	pq, err := s.applyProjection(q, w, phi2)
	if err != nil {
		return x, w, 0, err
	}
	delta := linalg.NormInf(pq) + s.cNorm*linalg.WeightedNorm(pq, w)

	// Newton step dx = −Φ″^{-1/2}·P_{x,w} q, damped to stay interior.
	dx := s.scr.dx
	for i := 0; i < m; i++ {
		dx[i] = -pq[i] / math.Sqrt(phi2[i])
	}
	step := s.bar.StepToBoundary(x, dx, 0.05)
	if step > 1 {
		step = 1
	}
	xNew := s.scr.xNew
	for i := range xNew {
		xNew[i] = x[i] + 0.99*step*dx[i]
	}
	if !s.bar.Interior(xNew) {
		return x, w, 0, fmt.Errorf("lp: Newton step left the domain")
	}
	if s.par.Net != nil {
		// Two distributed matrix-vector products per centering (A and Aᵀ),
		// one coordinate broadcast each.
		bits := sim.BitsForFloat(1e9, 1e-12)
		for phase := 0; phase < 2; phase++ {
			s.par.Net.BeginPhase()
			for v := 0; v < s.par.Net.N(); v++ {
				s.par.Net.Broadcast(v, bits, nil)
			}
			s.par.Net.EndPhase()
		}
	}

	// Weight update (Algorithm 11 lines 4–6). We compute the fresh
	// regularized Lewis weights at xNew and move log(w) toward them through
	// the mixed-ball projection of the smoothed-potential gradient.
	phi2New := s.scr.phi2New
	s.bar.D2To(phi2New, xNew)
	base := s.scr.base
	for i := range base {
		base[i] = 1 / math.Sqrt(phi2New[i])
	}
	apx := s.scr.apx
	if err := computeApxWeightsTo(apx, s.scr.lewD, s.scr.sigma, s.lev, base, s.p, w, s.par.Lewis); err != nil {
		return x, w, 0, err
	}
	z := s.scr.z
	for i := range z {
		// Regularize as in the definition of g(x) (Definition 4.3); this
		// also keeps the logs bounded.
		z[i] = math.Log(apx[i] + s.c0)
	}
	dvec := s.scr.dvec
	for i := range dvec {
		dvec[i] = z[i] - math.Log(math.Max(w[i], 1e-300))
	}
	grad := s.scr.grad
	softmaxGradientTo(grad, dvec)
	l := s.scr.l
	for i := range l {
		l[i] = s.cNorm * math.Sqrt(math.Max(w[i], 1e-300))
	}
	proj := s.scr.mb.project(grad, l, s.par.Net)
	scale := (1 - 6/(7*s.cK)) * math.Min(delta, 1)
	wNew := s.scr.wNew
	for i := range wNew {
		u := linalg.Clamp(scale*proj[i], -0.5, 0.5)
		wNew[i] = w[i] * math.Exp(u)
		// Keep weights inside the regularized band [c0/2, 3n/2].
		wNew[i] = linalg.Clamp(wNew[i], s.c0/2, 1.5*float64(s.n)+1)
	}
	return xNew, wNew, delta, nil
}

// applyProjection computes P_{x,w}q = q − W⁻¹A_x(A_xᵀW⁻¹A_x)⁻¹A_xᵀq with
// A_x = Φ″(x)^{−1/2}A, using one (AᵀDA)-solve with D = 1/(w·φ″) through the
// configured backend. The result lands in the reusable scr.pq buffer.
func (s *ipm) applyProjection(q, w, phi2 []float64) ([]float64, error) {
	m := s.m
	// A_xᵀ q = Aᵀ(Φ″^{−1/2} q).
	tmp := s.scr.tmp
	for i := 0; i < m; i++ {
		tmp[i] = q[i] / math.Sqrt(phi2[i])
	}
	s.prob.A.MulVecTTo(s.scr.rhs, tmp)
	// Reuse tmp for the solve diagonal: rhs is already extracted.
	for i := 0; i < m; i++ {
		tmp[i] = 1 / (w[i] * phi2[i])
	}
	sol, iters, err := s.sol(s.ctx, tmp, s.scr.rhs)
	s.counts.CGIterations += iters
	if err != nil {
		return nil, fmt.Errorf("lp: projection solve: %w", err)
	}
	s.prob.A.MulVecTo(s.scr.asol, sol)
	out := s.scr.pq
	for i := 0; i < m; i++ {
		out[i] = q[i] - s.scr.asol[i]/(w[i]*math.Sqrt(phi2[i]))
	}
	return out, nil
}

// softmaxGradientTo writes the normalized gradient of the smoothing
// potential Φ_μ(v) = Σ_i (e^{μv_i} + e^{−μv_i}) used by Algorithm 11 into
// out. The projection is invariant under positive scaling of its input, so
// the gradient is normalized (and μ chosen to avoid overflow).
func softmaxGradientTo(out, v []float64) {
	maxAbs := linalg.NormInf(v)
	mu := 1.0
	if maxAbs > 0 {
		mu = math.Min(8, 30/maxAbs)
	}
	for i, d := range v {
		out[i] = math.Exp(mu*d) - math.Exp(-mu*d)
	}
	if n := linalg.Norm2(out); n > 0 {
		linalg.Scale(1/n, out)
	}
}
