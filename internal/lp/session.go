package lp

import (
	"context"
	"fmt"
	"math"

	"bcclap/internal/linalg"
)

// Session is a reusable solver handle for one Problem: the linear-solve
// backend (with its factorization buffers and CG workspaces) is built once
// and shared by every Solve/Polish call. The IPM centering scratch and the
// leverage-score buffers are allocated per call, once, and reused by every
// centering of that call, so the centering loop allocates nothing while an
// idle Session retains only the backend. Results are bit-identical to
// one-shot SolveCtx calls — every scratch buffer is fully overwritten
// before it is read.
//
// A Session is not safe for concurrent use; it serves a sequential query
// stream, matching the model (one network, one round structure).
type Session struct {
	prob  *Problem
	bar   *Barriers
	solve ATDASolve
	// pstats are the live preconditioner counters of the backend (nil for
	// backends without a combinatorial preconditioner); cumulative over
	// the session, snapshotted into every Solution.
	pstats *PrecondStats
}

// NewSession validates prob, instantiates its linear-solve backend (an
// unknown Problem.Backend fails here with ErrBackendUnknown, before any
// solve starts). Per-call scratch is not kept: see newIPM.
func NewSession(prob *Problem) (*Session, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	bar, err := NewBarriers(prob.L, prob.U)
	if err != nil {
		return nil, err
	}
	solve, pstats, err := prob.solver()
	if err != nil {
		return nil, err
	}
	return &Session{prob: prob, bar: bar, solve: solve, pstats: pstats}, nil
}

// newIPM builds the per-call solver state over the session's shared
// backend: the centering scratch and the leverage buffers.
func (sess *Session) newIPM(ctx context.Context, par Params) *ipm {
	m, n := sess.prob.M(), sess.prob.N()
	par = par.withDefaults(n)
	s := &ipm{
		ctx: ctx, prob: sess.prob, bar: sess.bar, par: par,
		m: m, n: n,
		p:      1 - 1/math.Log(4*float64(m)),
		c0:     float64(n) / (2 * float64(m)),
		cK:     2 * math.Log(4*float64(m)),
		sol:    sess.solve,
		pstats: sess.pstats,
		scr:    newScratch(m, n),
	}
	s.cNorm = 24 * math.Sqrt(4*s.cK)
	s.etaW = 0.1
	s.lev = newLeverage(sess.prob.A, s.sol.Bind(ctx), par.ExactLeverage, par.LeverageEta, par.Seed)
	return s
}

// checkStart verifies that x0 is a strictly feasible starting point.
func (sess *Session) checkStart(x0 []float64) error {
	if len(x0) != sess.prob.M() {
		return fmt.Errorf("lp: x0 has %d entries, want %d", len(x0), sess.prob.M())
	}
	if !sess.bar.Interior(x0) {
		return fmt.Errorf("%w: x0 is not strictly interior", ErrInfeasible)
	}
	if r := sess.prob.Residual(x0); r > 1e-6*(1+linalg.Norm2(sess.prob.B)) {
		return fmt.Errorf("%w: x0 violates Aᵀx = b by %g", ErrInfeasible, r)
	}
	return nil
}

// repairFeasibility pulls x back onto the affine manifold Aᵀx = b with the
// least-squares correction x ← x − A(AᵀA)⁻¹(Aᵀx − b), absorbing the
// constraint drift that inexact projection solves accumulate. Best-effort:
// on solver failure x is left unchanged and the caller's feasibility check
// decides.
func (sess *Session) repairFeasibility(ctx context.Context, x []float64) {
	m, n := sess.prob.M(), sess.prob.N()
	r := make([]float64, n)
	sess.prob.A.MulVecTTo(r, x)
	for i, bi := range sess.prob.B {
		r[i] -= bi
	}
	if linalg.Norm2(r) == 0 {
		return
	}
	ones := make([]float64, m)
	for i := range ones {
		ones[i] = 1
	}
	z, _, err := sess.solve(ctx, ones, r)
	if err != nil {
		return
	}
	az := make([]float64, m)
	sess.prob.A.MulVecTo(az, z)
	for i := range x {
		x[i] -= az[i]
	}
}

// initialWeights computes the regularized Lewis weights at x (Algorithm 9
// line 1).
func (s *ipm) initialWeights(x []float64) ([]float64, error) {
	m := s.m
	base := make([]float64, m)
	phi2 := s.bar.D2(x)
	for i := range base {
		base[i] = 1 / math.Sqrt(phi2[i])
	}
	w, _, err := computeInitialWeights(s.lev, base, s.p, s.n, m, s.par.Lewis, s.par.InitWeightSteps)
	if err != nil {
		return nil, fmt.Errorf("lp: initial weights: %w", err)
	}
	for i := range w {
		w[i] += s.c0
	}
	return w, nil
}

// finish clones the iterate and weights into an owned Solution.
func (s *ipm) finish(x, w []float64, startRounds int) *Solution {
	s.counts.X = linalg.Clone(x)
	s.counts.Weights = linalg.Clone(w)
	s.counts.Objective = s.prob.Objective(x)
	if s.par.Net != nil {
		s.counts.Rounds = s.par.Net.Rounds() - startRounds
	}
	if s.pstats != nil {
		s.counts.PrecondBuilds = s.pstats.Builds
		s.counts.PrecondRefreshes = s.pstats.Refreshes
	}
	out := s.counts
	return &out
}

// Solve runs the full two-phase path following (Algorithm 9) from the
// strictly feasible x0, reusing the session's backend and scratch. See
// SolveCtx for semantics.
func (sess *Session) Solve(ctx context.Context, x0 []float64, eps float64, par Params) (*Solution, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("lp: eps must be positive, got %g", eps)
	}
	if err := sess.checkStart(x0); err != nil {
		return nil, err
	}
	s := sess.newIPM(ctx, par)
	m := s.m
	startRounds := 0
	if s.par.Net != nil {
		startRounds = s.par.Net.Rounds()
	}

	w, err := s.initialWeights(x0)
	if err != nil {
		return nil, err
	}

	// Artificial centering cost: with d = −w·φ′(x0) the point x0 is exactly
	// central at t = 1 (the gradient t·d + w·φ′ vanishes).
	d := make([]float64, m)
	phi1 := s.bar.D1(x0)
	for i := range d {
		d[i] = -w[i] * phi1[i]
	}
	bigU := sess.prob.BoundU(x0)
	t1 := 1 / (16 * math.Pow(float64(m), 1.5) * bigU * bigU)
	t2 := 2 * float64(m) / eps

	x := linalg.Clone(x0)
	s.phase = 1
	x, w, err = s.pathFollowing(x, w, 1, t1, d)
	if err != nil {
		return nil, fmt.Errorf("lp: phase 1: %w", err)
	}
	s.phase = 2
	x, w, err = s.pathFollowing(x, w, t1, t2, sess.prob.C)
	if err != nil {
		return nil, fmt.Errorf("lp: phase 2: %w", err)
	}
	return s.finish(x, w, startRounds), nil
}

// Polish re-centers a previously computed iterate at the final path
// parameter t₂ = 2m/ε with FinalCenterings centerings — the warm-start
// path for repeated solves of an unchanged problem (e.g. batch flow
// queries on the same terminals). x0 is typically a prior Solution.X and
// w0 its Weights; a nil (or wrongly sized) w0 recomputes initial weights
// at x0. The polished point is NOT guaranteed optimal unless x0 was
// already near the central path at t₂ — callers must certify the result
// (as the flow pipeline does) and fall back to a full Solve on failure.
func (sess *Session) Polish(ctx context.Context, x0, w0 []float64, eps float64, par Params) (*Solution, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("lp: eps must be positive, got %g", eps)
	}
	if len(x0) != sess.prob.M() {
		return nil, fmt.Errorf("lp: x0 has %d entries, want %d", len(x0), sess.prob.M())
	}
	// Inexact (CG-based) projection backends let a long path following
	// drift off the constraint manifold by poly(1/m); pull the prior
	// iterate back with one least-squares correction before re-centering,
	// so the strict feasibility check below keeps its tight tolerance.
	x0 = linalg.Clone(x0)
	sess.repairFeasibility(ctx, x0)
	if err := sess.checkStart(x0); err != nil {
		return nil, err
	}
	s := sess.newIPM(ctx, par)
	s.phase = 3
	startRounds := 0
	if s.par.Net != nil {
		startRounds = s.par.Net.Rounds()
	}
	var w []float64
	if len(w0) == s.m {
		w = linalg.Clone(w0)
	} else {
		var err error
		w, err = s.initialWeights(x0)
		if err != nil {
			return nil, err
		}
	}
	x := linalg.Clone(x0)
	t2 := 2 * float64(s.m) / eps
	var err error
	for i := 0; i < s.par.FinalCenterings; i++ {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("lp: polish canceled: %w", ctxErr)
		}
		x, w, err = s.center(x, w, t2, sess.prob.C)
		if err != nil {
			return nil, fmt.Errorf("lp: polish: %w", err)
		}
		if s.par.Progress != nil {
			s.par.Progress(s.phase, i+1, t2)
		}
	}
	return s.finish(x, w, startRounds), nil
}
