package jl

import (
	"fmt"

	"bcclap/internal/linalg"
)

// GramSolver solves (MᵀM)x = y for the current matrix M. Implementations
// range from dense Cholesky (tests) to the paper's Laplacian-based solver
// for flow constraint matrices.
type GramSolver func(y []float64) ([]float64, error)

// LeverageScoresExact computes σ(M) = diag(M(MᵀM)⁻¹Mᵀ) exactly with one
// solve per row — the expensive reference Algorithm 6 avoids, and the one
// the LP solver's factored exact scores are tested against.
func LeverageScoresExact(mul, mulT func([]float64) []float64, m, n int, solve GramSolver) ([]float64, error) {
	sigma := make([]float64, m)
	for i := 0; i < m; i++ {
		ei := make([]float64, m)
		ei[i] = 1
		t := mulT(ei)
		s, err := solve(t)
		if err != nil {
			return nil, fmt.Errorf("jl: exact leverage row %d: %w", i, err)
		}
		p := mul(s)
		sigma[i] = p[i]
	}
	return sigma, nil
}

// LeverageScoresApprox implements ComputeLeverageScores (Algorithm 6):
// σ_apx = Σ_j (M(MᵀM)⁻¹Mᵀ Q⁽ʲ⁾)², using the rows of a shared-seed sketch.
// By Lemma 4.5 the result is within (1±η) of σ(M) w.h.p. when the sketch
// dimension is Θ(log(m)/η²).
func LeverageScoresApprox(mul, mulT func([]float64) []float64, m, n int, solve GramSolver, sk Sketch) ([]float64, error) {
	if sk.M() != m {
		return nil, fmt.Errorf("jl: sketch is %d-dimensional, matrix has %d rows", sk.M(), m)
	}
	sigma := make([]float64, m)
	for j := 0; j < sk.K(); j++ {
		q := sk.Row(j)
		t := mulT(q)
		s, err := solve(t)
		if err != nil {
			return nil, fmt.Errorf("jl: approx leverage sketch row %d: %w", j, err)
		}
		p := mul(s)
		for i := range sigma {
			sigma[i] += p[i] * p[i]
		}
	}
	// Leverage scores lie in [0, 1]; clamp numerical noise.
	for i := range sigma {
		sigma[i] = linalg.Clamp(sigma[i], 0, 1)
	}
	return sigma, nil
}

// DiagScaledOps returns mul/mulT closures for M = diag(d)·A with A in CSR
// form — the shape every leverage-score call in the LP solver has
// (M = W^{1/2−1/p}A or M = Φ″(x)^{−1/2}A).
func DiagScaledOps(a *linalg.CSR, d []float64) (mul, mulT func([]float64) []float64) {
	mul = func(x []float64) []float64 {
		out := a.MulVec(x)
		for i := range out {
			out[i] *= d[i]
		}
		return out
	}
	mulT = func(y []float64) []float64 {
		scaled := make([]float64, len(y))
		for i := range y {
			scaled[i] = d[i] * y[i]
		}
		return a.MulVecT(scaled)
	}
	return mul, mulT
}

// DenseGramSolver builds a GramSolver for M = diag(d)·A by assembling and
// factorizing AᵀD²A densely (for tests and small instances).
func DenseGramSolver(a *linalg.CSR, d []float64) (GramSolver, error) {
	n := a.Cols()
	gram := linalg.NewDense(n, n)
	ad := a.Dense()
	for r := 0; r < a.Rows(); r++ {
		dr := d[r] * d[r]
		if dr == 0 {
			continue
		}
		row := ad.Row(r)
		for i := 0; i < n; i++ {
			if row[i] == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				gram.Inc(i, j, dr*row[i]*row[j])
			}
		}
	}
	chol, err := gram.Cholesky()
	if err != nil {
		return nil, fmt.Errorf("jl: gram factorization: %w", err)
	}
	return func(y []float64) ([]float64, error) {
		return linalg.CholSolve(chol, y), nil
	}, nil
}
