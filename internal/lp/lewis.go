package lp

import (
	"context"
	"fmt"
	"math"

	"bcclap/internal/jl"
	"bcclap/internal/linalg"
)

// GramSolve answers (AᵀDA)x = y. The leverage computations receive it as a
// context-free closure; callers bind their context (and iteration
// accounting) with ATDASolve.Bind.
type GramSolve func(d, y []float64) ([]float64, error)

// factorMaxCols caps the column count n for which exact leverage scores
// come from one dense Cholesky factorization of AᵀD²A (O(n²) memory,
// O(n³ + m·n²) time per call) instead of m backend solves. Measured on
// incidence matrices with m ≈ 4n rows against per-row csr-pcg solves (one
// core of a 2-vCPU x86-64 host): 88× faster at n = 64, 24× at n = 256,
// 14× at n = 512 (n×n buffer 2 MB), and no faster at n = 1024. The exact
// branch itself ends near m ≈ 2000, beyond which the sketch is used.
const factorMaxCols = 512

// leverage evaluates σ(diag(d)·A) for one solver call. With d fixed for
// the call, all m exact row scores share one Gram matrix AᵀD²A, so the
// exact branch Cholesky-factors it once and sets σ_r = d_r²·‖L⁻¹a_r‖².
// When that Cholesky fails — a zero in d emptying a column, or an iterate
// so near its bounds that the Gram matrix is singular to working
// precision — it falls back to m per-row solves (jl.LeverageScoresExact)
// against the dense reference backend. Every backend therefore yields the
// same exact scores; only for n above factorMaxCols do the exact per-row
// solves go through the backend. The sketch branch (k < m) runs Algorithm
// 6's Johnson–Lindenstrauss sketching with a fresh Kane–Nelson seed per
// call (in the BCC the leader broadcasts O(log²m) seed bits once per call)
// and keeps issuing its k solves through the backend. A leverage owns its
// buffers and is not safe for concurrent use.
type leverage struct {
	a       *linalg.CSR
	solve   GramSolve
	exact   bool // exact branch: Params.ExactLeverage or k ≥ m
	k       int  // sketch dimension
	counter int64
	// Factored exact branch buffers (nil when not used): the squared
	// scaling, the Gram matrix, factored in place, and the
	// forward-substitution vector; dense is the per-row fallback solver,
	// built when a Cholesky first fails.
	d2    []float64
	gram  *linalg.Dense
	y     []float64
	dense GramSolve
}

// newLeverage builds the leverage scores of A for one solver call. solve
// answers (AᵀDA)x = y through the backend; the exact branch only uses it
// for n above factorMaxCols. exact forces the exact branch; otherwise it
// is taken when the sketch dimension Θ(log(m)/η²) is at least m.
func newLeverage(a *linalg.CSR, solve GramSolve, exact bool, eta float64, seed int64) *leverage {
	m, n := a.Rows(), a.Cols()
	k := jl.SketchDim(m, eta/4)
	// Sketching only pays off when k < m solves; for tiny instances the
	// exact per-row computation is cheaper and exact.
	lv := &leverage{a: a, solve: solve, exact: exact || k >= m, k: k, counter: seed}
	if lv.exact && n <= factorMaxCols {
		lv.d2 = make([]float64, m)
		lv.gram = linalg.NewDense(n, n)
		lv.y = make([]float64, n)
	}
	return lv
}

// scoresTo writes σ(diag(d)·A) into sigma (both of length m).
func (lv *leverage) scoresTo(sigma, d []float64) error {
	m, n := lv.a.Rows(), lv.a.Cols()
	if len(d) != m {
		return fmt.Errorf("lp: leverage scaling has %d entries, want %d", len(d), m)
	}
	solve := lv.solve
	if lv.gram != nil {
		if lv.factored(sigma, d) {
			return nil
		}
		// The Cholesky failed. Solve row by row against the dense
		// reference instead of the backend: its Gaussian elimination and
		// ridge answer a Gram matrix singular to working precision, on
		// which matrix-free CG need not converge, and every backend keeps
		// computing the same scores.
		if lv.dense == nil {
			dense, err := denseBackend(lv.a)
			if err != nil {
				return err
			}
			lv.dense = dense.Bind(context.Background())
		}
		solve = lv.dense
	}
	d2 := make([]float64, m)
	for i, v := range d {
		d2[i] = v * v
	}
	gram := func(y []float64) ([]float64, error) { return solve(d2, y) }
	mul, mulT := jl.DiagScaledOps(lv.a, d)
	var out []float64
	var err error
	if lv.exact {
		out, err = jl.LeverageScoresExact(mul, mulT, m, n, gram)
	} else {
		lv.counter++
		var sk *jl.KaneNelson
		sk, err = jl.NewKaneNelson(lv.k, m, 0, lv.counter)
		if err != nil {
			return err
		}
		out, err = jl.LeverageScoresApprox(mul, mulT, m, n, gram, sk)
	}
	if err != nil {
		return err
	}
	copy(sigma, out)
	return nil
}

// factored computes the exact scores from the lower-triangular Cholesky
// factor L of AᵀD²A = LLᵀ, factored in place: row r's score is
// ‖L⁻¹a_r‖²·d_r², with the forward substitution starting at the row's
// first nonzero column (every earlier entry of L⁻¹a_r is zero). It reports
// false when the Cholesky fails or the scores come out non-finite; sigma
// is then overwritten by the caller's per-row fallback. It allocates
// nothing.
func (lv *leverage) factored(sigma, d []float64) bool {
	a, gram, y := lv.a, lv.gram, lv.y
	for i, v := range d {
		lv.d2[i] = v * v
	}
	assembleGram(a, lv.d2, gram)
	if gram.CholeskyInPlace() != nil {
		return false
	}
	n := a.Cols()
	total := 0.0
	for r := range sigma {
		cols, vals := a.RowEntries(r)
		first := n
		for _, c := range cols {
			first = min(first, c)
		}
		if first == n || lv.d2[r] == 0 {
			sigma[r] = 0
			continue
		}
		for i := first; i < n; i++ {
			y[i] = 0
		}
		for k, c := range cols {
			y[c] = vals[k]
		}
		var sum float64
		for i := first; i < n; i++ {
			li := gram.Row(i)
			s := y[i]
			for k := first; k < i; k++ {
				s -= li[k] * y[k]
			}
			s /= li[i]
			y[i] = s
			sum += s * s
		}
		sigma[r] = lv.d2[r] * sum
		total += sigma[r]
	}
	return !math.IsNaN(total) && !math.IsInf(total, 0)
}

// LewisParams tunes the Lewis-weight iterations. The paper's Algorithm 7
// uses L = max(4, 8/p), a clamp band r = p²(4−p)/2²⁰ and
// T = Θ((p + 1/p)·log(pn/η)) iterations — r is tiny because the proof
// tracks a local contraction; in float64 practice a wide band with a few
// damped fixed-point steps reaches the same fixed point. Defaults keep the
// paper's L and iteration shape with a practical band.
type LewisParams struct {
	// R is the multiplicative clamp band around w0 (paper: p²(4−p)/2²⁰).
	R float64
	// MaxIters caps the iteration count T.
	MaxIters int
	// WMin floors the weights for numerical safety.
	WMin float64
}

// DefaultLewisParams returns practical defaults.
func DefaultLewisParams() LewisParams {
	return LewisParams{R: 0.9, MaxIters: 8, WMin: 1e-10}
}

// computeApxWeightsTo implements Algorithm 7: approximate the ℓ_p Lewis
// weights w_p(diag(base)·A) starting from w0, by damped fixed-point steps
//
//	w ← median((1−r)w0, w − (1/L)(w0 − (w0/w)·σ(W^{1/2−1/p}·diag(base)·A)), (1+r)w0).
//
// The fixed point satisfies w = σ(W^{1/2−1/p}M), the defining equation of
// Definition 4.3. The weights land in w, with d and sigma as scratch; w
// must not alias w0. All of them have length m.
func computeApxWeightsTo(w, d, sigma []float64, lev *leverage, base []float64, p float64, w0 []float64, par LewisParams) error {
	if p <= 0 {
		return fmt.Errorf("lp: lewis p = %g must be positive", p)
	}
	bigL := math.Max(4, 8/p)
	copy(w, w0)
	exp := 0.5 - 1/p
	for iter := 0; iter < par.MaxIters; iter++ {
		for i := range d {
			wi := math.Max(w[i], par.WMin)
			d[i] = math.Pow(wi, exp) * base[i]
		}
		if err := lev.scoresTo(sigma, d); err != nil {
			return fmt.Errorf("lp: lewis iteration %d: %w", iter, err)
		}
		for i := range w {
			wi := math.Max(w[i], par.WMin)
			target := wi - (1/bigL)*(w0[i]-(w0[i]/wi)*sigma[i])
			w[i] = linalg.Median3((1-par.R)*w0[i], target, (1+par.R)*w0[i])
			if w[i] < par.WMin {
				w[i] = par.WMin
			}
		}
	}
	return nil
}

// computeInitialWeights implements Algorithm 8: homotopy from p = 2 (where
// Lewis weights are plain leverage scores) to pTarget, shrinking p by
// h = min{2,p}·r/(√n·log(m·e²/n)) per step — the √n·log(m) step count is
// exactly the initialization cost in Lemma 4.6. Returns the weights for
// pTarget to the accuracy of the final computeApxWeightsTo call and the
// homotopy step count. Its four m-vectors are allocated once for the whole
// homotopy.
func computeInitialWeights(lev *leverage, base []float64, pTarget float64, n, m int, par LewisParams, maxSteps int) ([]float64, int, error) {
	cK := 2 * math.Log(4*float64(m))
	w := linalg.Constant(m, 1/(2*cK))
	w0, d, sigma := make([]float64, m), make([]float64, m), make([]float64, m)
	p := 2.0
	steps := 0
	denom := math.Sqrt(float64(n))*math.Log(float64(m)*math.E*math.E/math.Max(1, float64(n))) + 1
	for p != pTarget && steps < maxSteps {
		h := math.Min(2, p) * par.R / denom
		pNew := linalg.Median3(p-h, pTarget, p+h)
		for i := range w {
			w0[i] = math.Pow(math.Max(w[i], par.WMin), pNew/p)
		}
		coarse := par
		coarse.MaxIters = maxInt(2, par.MaxIters/2)
		if err := computeApxWeightsTo(w, d, sigma, lev, base, pNew, w0, coarse); err != nil {
			return nil, steps, err
		}
		p = pNew
		steps++
	}
	copy(w0, w)
	err := computeApxWeightsTo(w, d, sigma, lev, base, pTarget, w0, par)
	if err != nil {
		return nil, steps, err
	}
	return w, steps, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
