package flow

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"bcclap/internal/graph"
	"bcclap/internal/lapsolver"
	"bcclap/internal/linalg"
	"bcclap/internal/lp"
)

// LPForm is the auxiliary linear program of Section 5 for a min-cost
// max-flow instance: variables (x ∈ R^m, y, z ∈ R^{n'}, F ∈ R) with
// n' = |V|−1 (the source row of the incidence matrix is omitted),
// constraints Bx + y − z − F·e_t = 0, box bounds, and objective
// q̃ᵀx + λ(1ᵀy + 1ᵀz) − flowBonus·F.
type LPForm struct {
	D    *graph.Digraph
	S, T int

	Prob *lp.Problem
	X0   []float64

	// Perturbed integer costs q̃ (Daitch–Spielman), and the scale by which
	// original costs were multiplied before perturbing.
	QTilde    []int64
	CostScale int64

	// Index layout inside the variable vector.
	NPrime int // |V|−1
	OffY   int
	OffZ   int
	OffF   int

	// Big-M constants actually used (see the comment in NewLPForm).
	Lambda    float64
	FlowBonus float64
}

// vertexIndex maps original vertex ids to LP row ids, skipping the source.
func vertexIndex(n, s int) (idx []int) {
	idx = make([]int, n)
	j := 0
	for v := 0; v < n; v++ {
		if v == s {
			idx[v] = -1
			continue
		}
		idx[v] = j
		j++
	}
	return idx
}

// NewLPForm builds the LP. The Daitch–Spielman perturbation multiplies all
// costs by 4m²M² and adds an independent uniform integer from [1, 2mM] to
// each arc, which makes the optimum unique with probability ≥ 1/2; rnd
// drives the perturbation (callers retry with fresh randomness on
// certification failure, the boosting of the paper's footnote 7).
//
// Big-M constants: the paper's λ = 440m⁴M̃²M³ and flow bonus 2n·M̃ certify
// exactness in exact arithmetic but overflow float64's 53-bit mantissa for
// any interesting instance. We use the smallest constants with the same
// one-way domination chain (flowBonus > any achievable routing cost,
// λ > flowBonus's worth of slack), which preserves the argument: slack is
// never worth buying, and flow units always are.
func NewLPForm(d *graph.Digraph, s, t int, rnd *rand.Rand) (*LPForm, error) {
	form, err := NewLPFormStructure(d, s, t)
	if err != nil {
		return nil, err
	}
	form.Perturb(rnd)
	return form, nil
}

// NewLPFormStructure builds everything about the LP that does not depend
// on the cost perturbation: the constraint matrix, box bounds and interior
// starting point are functions of (d, s, t) only. A session caches this
// structure per terminal pair and calls Perturb once per solve attempt, so
// repeated queries skip the O(m) formulation rebuild (and the backend
// bound to the matrix stays valid across attempts).
func NewLPFormStructure(d *graph.Digraph, s, t int) (*LPForm, error) {
	if err := checkNonEmpty(d); err != nil {
		return nil, err
	}
	if err := checkST(d, s, t); err != nil {
		return nil, err
	}
	n, m := d.N(), d.M()
	nPrime := n - 1
	bigM := formBigM(d)
	fMax := 2 * float64(n) * float64(bigM) * float64(m)
	yMax := 4 * (fMax + float64(m)*float64(bigM) + 1)

	vidx := vertexIndex(n, s)
	mPrime := m + 2*nPrime + 1
	offY, offZ, offF := m, m+nPrime, m+2*nPrime

	var ts []linalg.Triple
	for i := 0; i < m; i++ {
		a := d.Arc(i)
		if j := vidx[a.To]; j >= 0 {
			ts = append(ts, linalg.Triple{Row: i, Col: j, Val: 1})
		}
		if j := vidx[a.From]; j >= 0 {
			ts = append(ts, linalg.Triple{Row: i, Col: j, Val: -1})
		}
	}
	for j := 0; j < nPrime; j++ {
		ts = append(ts,
			linalg.Triple{Row: offY + j, Col: j, Val: 1},
			linalg.Triple{Row: offZ + j, Col: j, Val: -1},
		)
	}
	tIdx := vidx[t]
	ts = append(ts, linalg.Triple{Row: offF, Col: tIdx, Val: -1})

	a := linalg.NewCSR(mPrime, nPrime, ts)
	c := make([]float64, mPrime)
	l := make([]float64, mPrime)
	u := make([]float64, mPrime)
	for i := 0; i < m; i++ {
		u[i] = float64(d.Arc(i).Cap)
	}
	for j := 0; j < nPrime; j++ {
		u[offY+j] = yMax
		u[offZ+j] = yMax
	}
	u[offF] = fMax

	prob := &lp.Problem{A: a, B: make([]float64, nPrime), C: c, L: l, U: u}

	// Interior starting point: x = c/2, F = fMax/2, and y, z split the
	// imbalance r = F·e_t − B(c/2) symmetrically around yMax/2.
	x0 := make([]float64, mPrime)
	for i := 0; i < m; i++ {
		x0[i] = float64(d.Arc(i).Cap) / 2
	}
	f0 := fMax / 2
	x0[offF] = f0
	r := make([]float64, nPrime)
	for i := 0; i < m; i++ {
		arc := d.Arc(i)
		if j := vidx[arc.To]; j >= 0 {
			r[j] -= x0[i]
		}
		if j := vidx[arc.From]; j >= 0 {
			r[j] += x0[i]
		}
	}
	r[tIdx] += f0
	for j := 0; j < nPrime; j++ {
		x0[offY+j] = yMax/2 + r[j]/2
		x0[offZ+j] = yMax/2 - r[j]/2
		if x0[offY+j] <= 0 || x0[offY+j] >= yMax || x0[offZ+j] <= 0 || x0[offZ+j] >= yMax {
			return nil, fmt.Errorf("flow: interior point construction failed at row %d", j)
		}
	}
	form := &LPForm{
		D: d, S: s, T: t, Prob: prob, X0: x0,
		NPrime: nPrime, OffY: offY, OffZ: offZ, OffF: offF,
	}
	return form, nil
}

// formBigM is the scale parameter M = max(capacity, |cost|, 1) of Section 5.
func formBigM(d *graph.Digraph) int64 {
	bigM := d.MaxCap()
	if c := d.MaxAbsCost(); c > bigM {
		bigM = c
	}
	if bigM < 1 {
		bigM = 1
	}
	return bigM
}

// Perturb draws a fresh Daitch–Spielman cost perturbation and writes the
// resulting objective into the LP (only the cost vector changes; matrix,
// bounds and starting point are perturbation-independent). Consuming
// exactly m draws from rnd, it matches NewLPForm's stream so session
// re-perturbation is bit-identical to rebuilding the form.
func (f *LPForm) Perturb(rnd *rand.Rand) {
	d, m := f.D, f.D.M()
	bigM := formBigM(d)
	scale := 4 * int64(m) * int64(m) * bigM * bigM
	q := make([]int64, m)
	for i := 0; i < m; i++ {
		q[i] = d.Arc(i).Cost*scale + 1 + rnd.Int63n(2*int64(m)*bigM)
	}
	// Capacity-weighted worst routing cost, then the domination chain.
	var worstCost float64
	for i := 0; i < m; i++ {
		worstCost += float64(abs64(q[i])) * float64(d.Arc(i).Cap)
	}
	flowBonus := 4*worstCost + 1
	lambda := 8 * flowBonus

	c := f.Prob.C
	for i := 0; i < m; i++ {
		c[i] = float64(q[i])
	}
	for j := 0; j < f.NPrime; j++ {
		c[f.OffY+j] = lambda
		c[f.OffZ+j] = lambda
	}
	c[f.OffF] = -flowBonus
	f.QTilde, f.CostScale = q, scale
	f.Lambda, f.FlowBonus = lambda, flowBonus
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// SolverMode selects how the LP's (AᵀDA)-solves are performed. It is a thin
// veneer over the lp backend registry kept for API compatibility; new code
// should address backends by name (Options.Backend, lp.Backends()).
type SolverMode int

const (
	// SolverDense assembles AᵀDA and factorizes it (reference).
	SolverDense SolverMode = iota + 1
	// SolverGremban routes every solve through the Gremban reduction to a
	// Laplacian system solved by conjugate gradients — the structure
	// Lemma 5.1 exploits.
	SolverGremban
	// SolverCSRCG applies A, D, Aᵀ as composed linear operators inside
	// conjugate gradients, never materializing AᵀDA.
	SolverCSRCG
)

// BackendName maps the mode to its lp registry name.
func (m SolverMode) BackendName() string {
	switch m {
	case SolverGremban:
		return "gremban"
	case SolverCSRCG:
		return "csr-cg"
	default:
		return "dense"
	}
}

// Configure points the LP at the named AᵀDA backend. For "gremban" it
// installs the flow-structured fast path (assembling the SDD matrix
// directly from arcs instead of generic Gram assembly); every other name is
// resolved through the lp registry, erroring on unknown backends before the
// IPM starts.
func (f *LPForm) Configure(backend string) error {
	if backend == "" {
		backend = lp.DefaultBackend
	}
	if backend == "gremban" {
		gram := linalg.NewDense(f.NPrime, f.NPrime)
		lapSolve := lapsolver.NewCGLapSolver()
		f.Prob.Backend = ""
		f.Prob.Solve = func(ctx context.Context, dvec, y []float64) ([]float64, int, error) {
			f.assembleATDAInto(dvec, gram)
			return lapsolver.SDDSolve(ctx, gram, y, lapSolve)
		}
		return nil
	}
	// Validate the name up front (before the IPM starts) but let the lp
	// session instantiate the backend: the session then owns the solver's
	// preconditioner counters and surfaces them in every Solution.
	if err := lp.ValidateBackend(backend); err != nil {
		return err
	}
	f.Prob.Solve = nil
	f.Prob.Backend = backend
	return nil
}

// ATDASolver returns the lp.ATDASolve for the requested mode, resolving
// non-gremban modes through the registry so every enum value reaches the
// backend it names (a nil return means "let lp.Problem use its default",
// which is only correct for SolverDense).
//
// Deprecated: use Configure / Options.Backend; kept for callers that still
// pass SolverMode values around.
func (f *LPForm) ATDASolver(mode SolverMode) lp.ATDASolve {
	if mode == SolverGremban {
		lapSolve := lapsolver.NewCGLapSolver()
		return func(ctx context.Context, dvec, y []float64) ([]float64, int, error) {
			m := f.assembleATDA(dvec)
			return lapsolver.SDDSolve(ctx, m, y, lapSolve)
		}
	}
	if name := mode.BackendName(); name != lp.DefaultBackend {
		if sol, err := lp.NewBackendSolver(name, f.Prob.A); err == nil {
			return sol
		}
	}
	return nil // dense: lp.Problem's default backend
}

// assembleATDA builds AᵀDA = BᵀD₁B + D₂ + D₃ + d_F·e_t e_tᵀ densely (the
// matrix is (|V|−1)×(|V|−1), tiny compared to the LP).
func (f *LPForm) assembleATDA(dvec []float64) *linalg.Dense {
	out := linalg.NewDense(f.NPrime, f.NPrime)
	f.assembleATDAInto(dvec, out)
	return out
}

// assembleATDAInto writes AᵀDA into a caller-owned (reused) buffer.
func (f *LPForm) assembleATDAInto(dvec []float64, out *linalg.Dense) {
	n := f.NPrime
	for i := 0; i < n; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
	vidx := vertexIndex(f.D.N(), f.S)
	for i := 0; i < f.D.M(); i++ {
		a := f.D.Arc(i)
		ji, jj := vidx[a.From], vidx[a.To]
		w := dvec[i]
		if ji >= 0 {
			out.Inc(ji, ji, w)
		}
		if jj >= 0 {
			out.Inc(jj, jj, w)
		}
		if ji >= 0 && jj >= 0 {
			out.Inc(ji, jj, -w)
			out.Inc(jj, ji, -w)
		}
	}
	for j := 0; j < n; j++ {
		out.Inc(j, j, dvec[f.OffY+j]+dvec[f.OffZ+j])
	}
	tIdx := vidx[f.T]
	out.Inc(tIdx, tIdx, dvec[f.OffF])
}

// repairMaxVertices caps the network size for which repairDrift solves
// its (|V|−1)×(|V|−1) Gram matrix densely (8 MB at the cap).
const repairMaxVertices = 1024

// repairDrift returns x moved back onto Aᵀx = b by the weighted
// least-squares correction x − W·A(AᵀWA)⁻¹(Aᵀx − b) with W = diag(1/φ″(x)),
// where φ″ is the box barrier's second derivative (1/W is within a factor
// 2 of the inverse squared distance to the nearer bound). Inexact (CG)
// projection solves let a long path drift off the constraints by ‖Aᵀx − b‖
// of order 1; the correction moves the variables with room — arcs strictly
// inside their boxes, the flow value F — and leaves those pressed against
// a bound almost where they are, so the repaired point rounds to the flow
// the path converged to. ok is false when x is already feasible, the
// network has more than repairMaxVertices vertices, or the dense solve
// fails.
func (f *LPForm) repairDrift(x []float64) (_ []float64, ok bool) {
	p := f.Prob
	if f.D.N() > repairMaxVertices {
		return nil, false
	}
	r := p.A.MulVecT(x)
	for i := range r {
		r[i] -= p.B[i]
	}
	if linalg.Norm2(r) == 0 {
		return nil, false
	}
	w := make([]float64, len(x))
	for i, xi := range x {
		lo, hi := xi-p.L[i], p.U[i]-xi
		w[i] = 1 / (1/(lo*lo) + 1/(hi*hi))
	}
	z, err := f.assembleATDA(w).Solve(r)
	if err != nil {
		return nil, false
	}
	az := p.A.MulVec(z)
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] - w[i]*az[i]
	}
	return out, true
}

// RoundFlow converts an approximate LP point into integral per-arc flows:
// x̃ = (1−ε)x rounded to the nearest integers, as in Section 5 (with the
// unique perturbed optimum, every x_e is within 1/6 of its integral
// value).
func (f *LPForm) RoundFlow(x []float64) []int64 {
	m := f.D.M()
	eps := 1.0 / (40 * float64(m) * float64(m))
	out := make([]int64, m)
	for i := 0; i < m; i++ {
		v := (1 - eps) * x[i]
		r := math.Round(v)
		if r < 0 {
			r = 0
		}
		if c := float64(f.D.Arc(i).Cap); r > c {
			r = c
		}
		out[i] = int64(r)
	}
	return out
}
