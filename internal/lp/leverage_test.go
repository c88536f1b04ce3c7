package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"bcclap/internal/jl"
	"bcclap/internal/linalg"
)

// refLeverage is the per-row reference: one dense Gram solve per row.
func refLeverage(t *testing.T, a *linalg.CSR, d []float64) []float64 {
	t.Helper()
	mul, mulT := jl.DiagScaledOps(a, d)
	solve, err := jl.DenseGramSolver(a, d)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := jl.LeverageScoresExact(mul, mulT, a.Rows(), a.Cols(), solve)
	if err != nil {
		t.Fatal(err)
	}
	return sigma
}

// forbidSolve is a GramSolve the exact branch must never reach.
func forbidSolve(t *testing.T) GramSolve {
	return func(_, _ []float64) ([]float64, error) {
		t.Fatal("exact leverage issued a backend solve")
		return nil, nil
	}
}

// The factored exact branch computes the same scores as the per-row
// reference on incidence-structured matrices, with the scaling spanning
// 24 orders of magnitude.
func TestFactoredLeverageMatchesExact(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for trial := 0; trial < 12; trial++ {
		a := incidenceProblem(4+trial, rnd)
		d := make([]float64, a.Rows())
		for i := range d {
			d[i] = math.Pow(10, -12+24*rnd.Float64())
		}
		want := refLeverage(t, a, d)
		got := scores(t, newLeverage(a, forbidSolve(t), true, 0.5, 1), d)
		for i := range want {
			if diff := math.Abs(got[i] - want[i]); diff > 1e-12*math.Abs(want[i]) {
				t.Fatalf("trial %d row %d: σ = %.17g, reference %.17g (relative %g)", trial, i, got[i], want[i], diff/math.Abs(want[i]))
			}
		}
	}
}

// groundedPath is a path on n vertices with unit weights, grounded only by
// one identity row per vertex of weight d = 1e-10: AᵀD²A is a Laplacian
// plus 1e-20·I, whose Cholesky loses its last pivot to rounding.
func groundedPath(n int) (*linalg.CSR, []float64) {
	var ts []linalg.Triple
	for v := 1; v < n; v++ {
		ts = append(ts, linalg.Triple{Row: v - 1, Col: v - 1, Val: -1}, linalg.Triple{Row: v - 1, Col: v, Val: 1})
	}
	for v := 0; v < n; v++ {
		ts = append(ts, linalg.Triple{Row: n - 1 + v, Col: v, Val: 1})
	}
	a := linalg.NewCSR(2*n-1, n, ts)
	d := make([]float64, a.Rows())
	for r := range d {
		d[r] = 1
		if r >= n-1 {
			d[r] = 1e-10
		}
	}
	return a, d
}

// zeroColumn is an incidence matrix with a scaling that is zero on every
// row touching column 0, so diag(d)·A has an empty column and AᵀD²A is
// singular.
func zeroColumn(rnd *rand.Rand) (*linalg.CSR, []float64) {
	a := incidenceProblem(6, rnd)
	d := make([]float64, a.Rows())
	for i := range d {
		d[i] = 0.5 + rnd.Float64()
	}
	for r := range d {
		a.VisitRow(r, func(c int, _ float64) {
			if c == 0 {
				d[r] = 0
			}
		})
	}
	return a, d
}

// When the Cholesky of AᵀD²A fails — a zero in d empties a column, or
// rounding loses a pivot — the exact branch solves row by row against the
// dense reference backend, never the session's backend, and returns
// exactly the per-row reference's scores with that solver.
func TestFactoredLeverageFallsBackPerRow(t *testing.T) {
	pathA, pathD := groundedPath(12)
	zeroA, zeroD := zeroColumn(rand.New(rand.NewSource(6)))
	for _, tc := range []struct {
		name string
		a    *linalg.CSR
		d    []float64
	}{{"rounding", pathA, pathD}, {"zero in d", zeroA, zeroD}} {
		a, d := tc.a, tc.d
		m, n := a.Rows(), a.Cols()
		d2 := make([]float64, m)
		for i, v := range d {
			d2[i] = v * v
		}
		g := linalg.NewDense(n, n)
		assembleGram(a, d2, g)
		if g.CholeskyInPlace() == nil {
			t.Fatalf("%s: the Gram matrix factored; the test needs one whose Cholesky fails", tc.name)
		}
		got := scores(t, newLeverage(a, forbidSolve(t), true, 0.5, 1), d)
		dense, err := denseBackend(a)
		if err != nil {
			t.Fatal(err)
		}
		solve := dense.Bind(context.Background())
		mul, mulT := jl.DiagScaledOps(a, d)
		want, err := jl.LeverageScoresExact(mul, mulT, m, n, func(y []float64) ([]float64, error) { return solve(d2, y) })
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] || math.IsNaN(got[i]) {
				t.Fatalf("%s: row %d: fallback σ = %v, per-row reference %v", tc.name, i, got[i], want[i])
			}
		}
	}
}

// centeringProblem is a strictly feasible LP over incidenceProblem's
// matrix: x0 = 1 inside boxes [0, u] with u ∈ [2.5, 3.5) (off their
// centers, so the artificial phase-1 cost is not zero), b = Aᵀx0, random
// costs.
func centeringProblem(n int, backend string, rnd *rand.Rand) (*Problem, []float64) {
	a := incidenceProblem(n, rnd)
	m := a.Rows()
	x0 := linalg.Ones(m)
	c, u := make([]float64, m), make([]float64, m)
	for i := range c {
		c[i] = rnd.NormFloat64()
		u[i] = 2.5 + rnd.Float64()
	}
	return &Problem{
		A: a, B: a.MulVecT(x0), C: c,
		L: make([]float64, m), U: u,
		Backend: backend,
	}, x0
}

// A warm centering — projection solve, exact leverage scores, Lewis
// weights and mixed-ball projection — allocates nothing, on the dense
// backend and on csr-pcg.
func TestCenteringAllocationFree(t *testing.T) {
	for _, backend := range []string{"dense", "csr-pcg"} {
		prob, x0 := centeringProblem(10, backend, rand.New(rand.NewSource(7)))
		sess, err := NewSession(prob)
		if err != nil {
			t.Fatal(err)
		}
		s := sess.newIPM(context.Background(), Params{})
		w, err := s.initialWeights(x0)
		if err != nil {
			t.Fatal(err)
		}
		x := linalg.Clone(x0)
		const tPath = 1e-2
		for i := 0; i < 2; i++ {
			if x, w, _, err = s.centerDelta(x, w, tPath, prob.C); err != nil {
				t.Fatal(err)
			}
		}
		before := s.counts.Centerings
		allocs := testing.AllocsPerRun(10, func() {
			if x, w, _, err = s.centerDelta(x, w, tPath, prob.C); err != nil {
				t.Fatal(err)
			}
		})
		if s.counts.Centerings == before {
			t.Fatalf("%s: no centering ran", backend)
		}
		if allocs != 0 {
			t.Errorf("%s: a warm centering allocates %v times, want 0", backend, allocs)
		}
	}
}

// Phase 1 starts exactly central, so its first centering is skipped: the
// full centering step at that point returns x and w bit-identical, so the
// skip leaves Solution.X unchanged while one centering fewer is counted.
func TestSkipCentralKeepsSolution(t *testing.T) {
	for _, backend := range []string{"dense", "csr-pcg"} {
		prob, x0 := centeringProblem(6, backend, rand.New(rand.NewSource(8)))
		sess, err := NewSession(prob)
		if err != nil {
			t.Fatal(err)
		}
		s := sess.newIPM(context.Background(), Params{Seed: 3})
		w, err := s.initialWeights(x0)
		if err != nil {
			t.Fatal(err)
		}
		// The artificial phase-1 cost of Session.Solve.
		c := make([]float64, s.m)
		phi1 := s.bar.D1(x0)
		for i := range c {
			c[i] = -w[i] * phi1[i]
		}
		x, w1, delta, err := s.centerDelta(x0, w, 1, c)
		if err != nil {
			t.Fatal(err)
		}
		if s.counts.Centerings != 0 || delta != 0 || &x[0] != &x0[0] || &w1[0] != &w[0] {
			t.Fatalf("%s: the centering at the exactly central start was not skipped", backend)
		}
		// centerDelta left φ″(x0) and q = 0 in the scratch; run the full step.
		for i, qi := range s.scr.q {
			if qi != 0 {
				t.Fatalf("%s: q[%d] = %v at the central start", backend, i, qi)
			}
		}
		xFull, wFull, deltaFull, err := s.centerStep(x0, w, s.scr.q)
		if err != nil {
			t.Fatal(err)
		}
		if s.counts.Centerings != 1 || deltaFull != 0 {
			t.Fatalf("%s: full step counted %d centerings, δ = %v", backend, s.counts.Centerings, deltaFull)
		}
		for i := range x0 {
			if math.Float64bits(xFull[i]) != math.Float64bits(x0[i]) {
				t.Fatalf("%s: X[%d] = %v after the full step, %v skipped", backend, i, xFull[i], x0[i])
			}
		}
		for i := range w {
			if math.Float64bits(wFull[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: W[%d] = %v after the full step, %v skipped", backend, i, wFull[i], w[i])
			}
		}
	}
}
