package lp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"bcclap/internal/linalg"
)

// incidenceProblem builds a flow-LP-shaped constraint matrix: an incidence
// block over a random connected digraph plus identity rows, so AᵀDA is SDD
// with non-positive off-diagonals and every registered backend (including
// gremban) applies.
func incidenceProblem(n int, rnd *rand.Rand) *linalg.CSR {
	var ts []linalg.Triple
	row := 0
	// Spanning path plus random chords.
	addArc := func(u, v int) {
		ts = append(ts,
			linalg.Triple{Row: row, Col: u, Val: -1},
			linalg.Triple{Row: row, Col: v, Val: 1},
		)
		row++
	}
	for v := 1; v < n; v++ {
		addArc(v-1, v)
	}
	for k := 0; k < 2*n; k++ {
		u, v := rnd.Intn(n), rnd.Intn(n)
		if u != v {
			addArc(u, v)
		}
	}
	for v := 0; v < n; v++ {
		ts = append(ts, linalg.Triple{Row: row, Col: v, Val: 1})
		row++
	}
	return linalg.NewCSR(row, n, ts)
}

func TestRegisteredBackends(t *testing.T) {
	names := Backends()
	want := map[string]bool{"dense": false, "gremban": false, "csr-cg": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("backend %q not registered (have %v)", n, names)
		}
	}
	if _, err := NewBackendSolver("no-such-backend", linalg.NewCSR(1, 1, []linalg.Triple{{Row: 0, Col: 0, Val: 1}})); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// Every backend must solve the same systems to within the IPM's tolerance.
func TestBackendsAgree(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3; trial++ {
		n := 8 + 4*trial
		a := incidenceProblem(n, rnd)
		m := a.Rows()
		solvers := map[string]ATDASolve{}
		for _, name := range Backends() {
			s, err := NewBackendSolver(name, a)
			if err != nil {
				t.Fatalf("backend %s: %v", name, err)
			}
			solvers[name] = s
		}
		// Several solves per backend instance: factories hoist state, so
		// repeated calls must stay correct (workspace reuse).
		for rep := 0; rep < 3; rep++ {
			d := make([]float64, m)
			for i := range d {
				d[i] = float64(1+rep) * (0.05 + rnd.Float64())
			}
			y := make([]float64, n)
			for i := range y {
				y[i] = rnd.NormFloat64()
			}
			ref, _, err := solvers["dense"](context.Background(), d, y)
			if err != nil {
				t.Fatalf("dense: %v", err)
			}
			refNorm := 1 + linalg.Norm2(ref)
			for name, solve := range solvers {
				got, _, err := solve(context.Background(), d, y)
				if err != nil {
					t.Fatalf("trial %d rep %d backend %s: %v", trial, rep, name, err)
				}
				if diff := linalg.Norm2(linalg.Sub(got, ref)) / refNorm; diff > 1e-5 {
					t.Fatalf("trial %d rep %d backend %s: relative deviation %g from dense", trial, rep, name, diff)
				}
			}
		}
	}
}

// The csr-cg backend must work inside a full LP solve selected by name.
func TestSolveWithCSRCGBackend(t *testing.T) {
	nBlocks := 3
	m := 3 * nBlocks
	var ts []linalg.Triple
	c := make([]float64, m)
	for blk := 0; blk < nBlocks; blk++ {
		for j := 0; j < 3; j++ {
			row := 3*blk + j
			ts = append(ts, linalg.Triple{Row: row, Col: blk, Val: 1})
			c[row] = float64(j + 1)
		}
	}
	solve := func(backend string) float64 {
		prob := &Problem{
			A:       linalg.NewCSR(m, nBlocks, ts),
			B:       linalg.Ones(nBlocks),
			C:       c,
			L:       make([]float64, m),
			U:       linalg.Ones(m),
			Backend: backend,
		}
		sol, err := Solve(prob, linalg.Constant(m, 1.0/3), 0.05, Params{Seed: 1})
		if err != nil {
			t.Fatalf("backend %s: %v", backend, err)
		}
		return sol.Objective
	}
	dense := solve("dense")
	cg := solve("csr-cg")
	if diff := dense - cg; diff > 0.05 || diff < -0.05 {
		t.Fatalf("objective mismatch: dense %v vs csr-cg %v", dense, cg)
	}
	prob := &Problem{
		A: linalg.NewCSR(m, nBlocks, ts), B: linalg.Ones(nBlocks), C: c,
		L: make([]float64, m), U: linalg.Ones(m), Backend: "no-such-backend",
	}
	if _, err := Solve(prob, linalg.Constant(m, 1.0/3), 0.05, Params{Seed: 1}); err == nil {
		t.Fatal("unknown backend accepted by Solve")
	}
}

// A matrix-free backend whose CG breaks down must report an error rather
// than hand back a NaN solution: a NaN residual fails every comparison, so
// the acceptance check is written to reject it.
func TestMatrixFreeBackendsRejectNaN(t *testing.T) {
	a := incidenceProblem(6, rand.New(rand.NewSource(4)))
	d := linalg.Ones(a.Rows())
	y := linalg.Ones(a.Cols())
	y[0] = math.NaN()
	for _, name := range []string{"csr-cg", "csr-pcg"} {
		solve, err := NewBackendSolver(name, a)
		if err != nil {
			t.Fatal(err)
		}
		if x, _, err := solve(context.Background(), d, y); err == nil {
			t.Fatalf("%s: NaN right-hand side accepted, solution %v", name, x)
		}
	}
}

// The dense backend answers a Gram matrix singular to working precision —
// both the Cholesky and the Gaussian elimination lose the last pivot —
// through its ridge, with a small residual for a right-hand side in the
// matrix's range, instead of failing the solve.
func TestDenseBackendRidge(t *testing.T) {
	a, d := groundedPath(12)
	m, n := a.Rows(), a.Cols()
	d2 := make([]float64, m)
	v := make([]float64, m)
	rnd := rand.New(rand.NewSource(9))
	for i, di := range d {
		d2[i] = di * di
		v[i] = d2[i] * rnd.NormFloat64()
	}
	y := a.MulVecT(v)
	g := linalg.NewDense(n, n)
	assembleGram(a, d2, g)
	if _, err := g.Solve(y); !errors.Is(err, linalg.ErrSingular) {
		t.Fatalf("Gaussian elimination gave %v; the test needs a matrix it finds singular", err)
	}
	solve, err := denseBackend(a)
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := solve(context.Background(), d2, y)
	if err != nil {
		t.Fatal(err)
	}
	if r := linalg.Norm2(linalg.Sub(g.MulVec(x), y)); r > 1e-9*linalg.Norm2(y) {
		t.Fatalf("residual %g for ‖y‖ = %g", r, linalg.Norm2(y))
	}
}
