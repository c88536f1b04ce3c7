package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"bcclap/internal/linalg"
)

func tallMatrix(m, n int, rnd *rand.Rand) *linalg.CSR {
	var ts []linalg.Triple
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			ts = append(ts, linalg.Triple{Row: i, Col: j, Val: rnd.NormFloat64()})
		}
	}
	return linalg.NewCSR(m, n, ts)
}

// scores evaluates lev's leverage scores at scaling d into a fresh slice.
func scores(t *testing.T, lev *leverage, d []float64) []float64 {
	t.Helper()
	sigma := make([]float64, len(d))
	if err := lev.scoresTo(sigma, d); err != nil {
		t.Fatal(err)
	}
	return sigma
}

// apxWeights runs computeApxWeightsTo into fresh buffers.
func apxWeights(lev *leverage, base []float64, p float64, w0 []float64, par LewisParams) ([]float64, error) {
	m := len(w0)
	w := make([]float64, m)
	err := computeApxWeightsTo(w, make([]float64, m), make([]float64, m), lev, base, p, w0, par)
	return w, err
}

func TestLewisWeightsPTwoAreLeverageScores(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	m, n := 20, 4
	a := tallMatrix(m, n, rnd)
	prob := &Problem{A: a}
	sol, _, err := prob.solver()
	if err != nil {
		t.Fatal(err)
	}
	lev := newLeverage(a, sol.Bind(context.Background()), true, 0, 1)
	base := linalg.Ones(m)
	// For p = 2, W^{1/2−1/p} = W⁰ = I, so the fixed point is σ(A) itself.
	sigma := scores(t, lev, base)
	par := DefaultLewisParams()
	par.MaxIters = 30
	w, err := apxWeights(lev, base, 2, sigma, par)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if math.Abs(w[i]-sigma[i]) > 0.05*(sigma[i]+0.01) {
			t.Fatalf("w[%d] = %v, σ = %v", i, w[i], sigma[i])
		}
	}
}

func TestLewisFixedPoint(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	m, n := 24, 4
	a := tallMatrix(m, n, rnd)
	prob := &Problem{A: a}
	sol, _, err := prob.solver()
	if err != nil {
		t.Fatal(err)
	}
	lev := newLeverage(a, sol.Bind(context.Background()), true, 0, 1)
	base := linalg.Ones(m)
	p := 1.2
	par := DefaultLewisParams()
	par.MaxIters = 60
	w, _, err := computeInitialWeights(lev, base, p, n, m, par, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Verify the defining equation w = σ(W^{1/2−1/p}A) approximately.
	d := make([]float64, m)
	for i := range d {
		d[i] = math.Pow(math.Max(w[i], 1e-12), 0.5-1/p)
	}
	sigma := scores(t, lev, d)
	var worst float64
	for i := range w {
		rel := math.Abs(w[i]-sigma[i]) / (sigma[i] + 0.02)
		if rel > worst {
			worst = rel
		}
	}
	if worst > 0.35 {
		t.Fatalf("Lewis fixed-point residual %v too large", worst)
	}
	// Lewis weights sum to ≈ n.
	if s := linalg.Sum(w); math.Abs(s-float64(n)) > 1 {
		t.Fatalf("Σw = %v, want ≈ %d", s, n)
	}
}

func TestComputeInitialWeightsStepCountScales(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	steps := func(n int) int {
		m := 3 * n
		a := tallMatrix(m, n, rnd)
		prob := &Problem{A: a}
		sol, _, err := prob.solver()
		if err != nil {
			t.Fatal(err)
		}
		lev := newLeverage(a, sol.Bind(context.Background()), true, 0, 1)
		par := DefaultLewisParams()
		par.MaxIters = 2
		_, st, err := computeInitialWeights(lev, linalg.Ones(m), 1-1/math.Log(4*float64(m)), n, m, par, 10000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	s4, s16 := steps(4), steps(16)
	if s16 <= s4 {
		t.Fatalf("homotopy steps did not grow with √n: %d vs %d", s4, s16)
	}
	// Lemma 4.6: Õ(√n) — quadrupling n should roughly double the steps,
	// certainly not more than quadruple them.
	if float64(s16) > 4.5*float64(s4) {
		t.Fatalf("homotopy growth superlinear in √n: %d -> %d", s4, s16)
	}
}

func TestComputeApxWeightsRejectsBadP(t *testing.T) {
	if _, err := apxWeights(nil, nil, 0, nil, DefaultLewisParams()); err == nil {
		t.Fatal("p = 0 accepted")
	}
}
