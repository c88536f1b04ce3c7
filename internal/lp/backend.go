// Backend registry for the normal-equation solves of the interior-point
// method. Every path step of Solve reduces to systems (AᵀDA)x = y with a
// fresh positive diagonal D; how those systems are solved is the single
// biggest performance lever in the pipeline, so the strategy is pluggable:
// callers pick a registered backend by name (Problem.Backend) or inject a
// custom ATDASolve (Problem.Solve).
//
// Built-in backends:
//
//	dense   — assemble AᵀDA densely and factorize (Cholesky with Gaussian
//	          fallback, and a 1e-14 relative ridge when that finds the
//	          matrix singular); the exact reference, O(n³) per solve.
//	gremban — assemble AᵀDA, reduce to a Laplacian on 2n vertices via the
//	          Gremban reduction (Lemma 5.1) and solve by preconditioned CG;
//	          requires the SDD structure the flow LP guarantees.
//	csr-cg  — never materialize AᵀDA: apply A, D and Aᵀ as composed linear
//	          operators inside Jacobi-preconditioned CG. O(nnz) per
//	          iteration, and the only backend that scales past tiny n.
//	csr-pcg — csr-cg with a combinatorial preconditioner: a spanning-forest
//	          incomplete Cholesky whose support is extracted once per
//	          session from the constraint matrix with the paper's
//	          spanner/sparsifier machinery and only numerically refreshed
//	          when the IPM reweights D (see precond.go). Fewer CG
//	          iterations per solve on incidence-structured LPs; degrades to
//	          Jacobi on general matrices.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"bcclap/internal/lapsolver"
	"bcclap/internal/linalg"
)

// ErrBackendUnknown is returned (wrapped, with the registered names) when a
// backend name does not resolve in the registry. Callers detect it with
// errors.Is and fail fast before any solve starts.
var ErrBackendUnknown = errors.New("lp: unknown backend")

// BackendFactory builds an ATDASolve bound to a fixed constraint matrix A.
// The returned closure is invoked once per path step with a fresh diagonal;
// factories should hoist all D-independent state (transposes, workspaces,
// symbolic structure) so the per-call cost is pure numerics. The returned
// solver is used sequentially; it need not be safe for concurrent calls.
type BackendFactory func(a *linalg.CSR) (ATDASolve, error)

// PrecondStats counts the combinatorial-preconditioner work of a backend
// instance, cumulative over its lifetime (i.e. over the owning session):
// Builds counts symbolic constructions — subgraph extraction, elimination
// ordering — and Refreshes counts numeric refactorizations, one per
// distinct barrier diagonal. A session whose Builds stays at 1 across
// queries is reusing its symbolic structure, which is the point.
type PrecondStats struct {
	Builds    int
	Refreshes int
}

// statsFactory is a BackendFactory that additionally exposes its
// preconditioner counters; backends without a combinatorial preconditioner
// register a plain BackendFactory and report nil stats.
type statsFactory func(a *linalg.CSR) (ATDASolve, *PrecondStats, error)

type backendEntry struct {
	plain BackendFactory
	stats statsFactory
}

var (
	backendMu sync.RWMutex
	backends  = map[string]backendEntry{}
)

// RegisterBackend makes a named AᵀDA strategy available to Problem.Backend.
// It panics on a duplicate or empty name (registration is an init-time
// programming act, not a runtime input).
func RegisterBackend(name string, f BackendFactory) {
	if name == "" || f == nil {
		panic("lp: RegisterBackend with empty name or nil factory")
	}
	registerEntry(name, backendEntry{plain: f})
}

// registerStatsBackend registers a backend that reports PrecondStats.
func registerStatsBackend(name string, f statsFactory) {
	if name == "" || f == nil {
		panic("lp: registerStatsBackend with empty name or nil factory")
	}
	registerEntry(name, backendEntry{stats: f})
}

func registerEntry(name string, e backendEntry) {
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backends[name]; dup {
		panic(fmt.Sprintf("lp: backend %q registered twice", name))
	}
	backends[name] = e
}

// Backends returns the sorted names of all registered backends.
func Backends() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	names := make([]string, 0, len(backends))
	for name := range backends {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewBackendSolver instantiates the named backend for A.
func NewBackendSolver(name string, a *linalg.CSR) (ATDASolve, error) {
	solve, _, err := NewBackendSolverStats(name, a)
	return solve, err
}

// NewBackendSolverStats instantiates the named backend for A and returns
// its preconditioner counters when the backend maintains them (nil for
// backends without a combinatorial preconditioner). The counters are live:
// they advance as the returned solver is used.
func NewBackendSolverStats(name string, a *linalg.CSR) (ATDASolve, *PrecondStats, error) {
	backendMu.RLock()
	e, ok := backends[name]
	backendMu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w %q (registered: %v)", ErrBackendUnknown, name, Backends())
	}
	if e.stats != nil {
		return e.stats(a)
	}
	solve, err := e.plain(a)
	return solve, nil, err
}

// ValidateBackend reports whether name resolves in the registry without
// instantiating it ("" is valid and selects DefaultBackend). The error
// satisfies errors.Is(err, ErrBackendUnknown) and lists the registered
// names, so API boundaries can reject typos before any work starts.
func ValidateBackend(name string) error {
	if name == "" {
		return nil
	}
	backendMu.RLock()
	_, ok := backends[name]
	backendMu.RUnlock()
	if !ok {
		return fmt.Errorf("%w %q (registered: %v)", ErrBackendUnknown, name, Backends())
	}
	return nil
}

// DefaultBackend is the name Problem.solver falls back to when neither
// Solve nor Backend is set.
const DefaultBackend = "dense"

func init() {
	RegisterBackend("dense", denseBackend)
	RegisterBackend("gremban", grembanBackend)
	RegisterBackend("csr-cg", csrCGBackend)
	registerStatsBackend("csr-pcg", csrPCGBackend)
}

// denseBackend assembles AᵀDA into a reused n×n buffer and factorizes it
// in place per call; the reference for tests and small instances. The
// solution lands in a reused n-vector, so a call allocates nothing.
func denseBackend(a *linalg.CSR) (ATDASolve, error) {
	n := a.Cols()
	gram := linalg.NewDense(n, n)
	x := make([]float64, n)
	return func(_ context.Context, d, y []float64) ([]float64, int, error) {
		if err := checkATDAArgs(a, d, y); err != nil {
			return nil, 0, err
		}
		assembleGram(a, d, gram)
		if err := gram.CholeskyInPlace(); err != nil {
			// Fall back to pivoted Gaussian elimination for semidefinite
			// edge cases (e.g. a bound exactly hit by degenerate weights),
			// on a fresh assembly: the failed factorization overwrote part
			// of the buffer.
			assembleGram(a, d, gram)
			x, err := gram.Solve(y)
			if errors.Is(err, linalg.ErrSingular) {
				// Singular to working precision (iterates pressed against
				// their bounds): solve with a ridge of 1e-14 times the
				// largest diagonal entry, far below the accuracy the
				// path following needs.
				var top float64
				for i := 0; i < n; i++ {
					top = math.Max(top, gram.At(i, i))
				}
				for i := 0; i < n; i++ {
					gram.Inc(i, i, 1e-14*top)
				}
				x, err = gram.Solve(y)
			}
			return x, 0, err
		}
		copy(x, y)
		linalg.CholSolveInPlace(gram, x)
		return x, 0, nil
	}, nil
}

// grembanBackend assembles AᵀDA (reusing the buffer) and routes the solve
// through the Gremban reduction to a 2n-vertex Laplacian handled by
// preconditioned CG — the Lemma 5.1 path. It requires AᵀDA to be SDD with
// non-positive off-diagonals, which holds for incidence-structured A such
// as the flow LP's; other matrices get an ErrNotSDD at solve time.
func grembanBackend(a *linalg.CSR) (ATDASolve, error) {
	n := a.Cols()
	gram := linalg.NewDense(n, n)
	lapSolve := lapsolver.NewCGLapSolver()
	return func(ctx context.Context, d, y []float64) ([]float64, int, error) {
		if err := checkATDAArgs(a, d, y); err != nil {
			return nil, 0, err
		}
		assembleGram(a, d, gram)
		return lapsolver.SDDSolve(ctx, gram, y, lapSolve)
	}, nil
}

// mfCore is the state shared by the matrix-free backends (csr-cg and
// csr-pcg): the composed operator op = Aᵀ·diag(dbuf)·A over a reusable
// diagonal buffer, the Gram-diagonal buffer, and the CG workspace. One
// core serves every solve of its backend instance, so the Õ(√n) path
// steps of an IPM run share their buffers.
type mfCore struct {
	a          *linalg.CSR
	op         *linalg.ComposedOp
	ws         *linalg.Workspace
	dbuf, diag []float64
}

func newMFCore(a *linalg.CSR) *mfCore {
	c := &mfCore{
		a:    a,
		ws:   linalg.NewWorkspace(),
		dbuf: make([]float64, a.Rows()),
		diag: make([]float64, a.Cols()),
	}
	c.op = linalg.Compose(c.ws, linalg.TransposeOp{A: a}, linalg.DiagOp{D: c.dbuf}, a)
	return c
}

// load installs a new barrier diagonal: the composed operator tracks it
// through dbuf without reconstruction, and diag becomes diag(AᵀDA).
func (c *mfCore) load(d []float64) {
	copy(c.dbuf, d)
	c.a.GramDiagTo(c.diag, d)
}

// newSolve wires the CG loop shared by the matrix-free backends. refresh
// runs once per call before the solve and is where each backend installs d
// (via load) and updates its preconditioner — csr-pcg additionally skips
// the work when d is unchanged. Tolerance and iteration budget live here,
// in exactly one place, so csr-cg and csr-pcg iteration counts stay
// directly comparable (the invariant the e19 snapshot gate measures).
func (c *mfCore) newSolve(refresh func(d []float64), precondTo func(dst, r []float64)) ATDASolve {
	n := c.a.Cols()
	x := make([]float64, n)
	ax := make([]float64, n)
	return func(ctx context.Context, d, y []float64) ([]float64, int, error) {
		if err := checkATDAArgs(c.a, d, y); err != nil {
			return nil, 0, err
		}
		refresh(d)
		// The barrier weights span many orders of magnitude, so aim for a
		// tight residual but accept poly(1/m) precision (all the IPM needs,
		// as in the Gremban route).
		iters, err := linalg.CGTo(ctx, x, c.op, y, 1e-10, 40*n+4000, precondTo, c.ws)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, iters, err
			}
			c.op.MulVecTo(ax, x)
			// Negated so that a NaN residual (CG broke down) is rejected.
			if !(linalg.Norm2(linalg.Sub(y, ax)) <= 1e-6*(1+linalg.Norm2(y))) {
				return nil, iters, err
			}
		}
		return x, iters, nil
	}
}

// csrCGBackend solves (AᵀDA)x = y without ever materializing the Gram
// matrix: A, diag(D) and Aᵀ are applied as one composed LinOp inside
// Jacobi-preconditioned conjugate gradients.
func csrCGBackend(a *linalg.CSR) (ATDASolve, error) {
	core := newMFCore(a)
	jac := linalg.NewJacobiPrecond(a.Cols())
	return core.newSolve(func(d []float64) {
		core.load(d)
		jac.Refresh(core.diag)
	}, jac.ApplyTo), nil
}

// assembleGram writes AᵀDA into gram (resetting it first), visiting each
// row's nonzero pattern once per pair.
func assembleGram(a *linalg.CSR, d []float64, gram *linalg.Dense) {
	n := a.Cols()
	for i := 0; i < n; i++ {
		row := gram.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
	for r := 0; r < a.Rows(); r++ {
		dr := d[r]
		if dr == 0 {
			continue
		}
		cols, vals := a.RowEntries(r)
		for i, ci := range cols {
			row := gram.Row(ci)
			for j, cj := range cols {
				row[cj] += dr * vals[i] * vals[j]
			}
		}
	}
}

func checkATDAArgs(a *linalg.CSR, d, y []float64) error {
	if len(d) != a.Rows() {
		return fmt.Errorf("lp: AᵀDA diagonal has %d entries, want %d", len(d), a.Rows())
	}
	if len(y) != a.Cols() {
		return fmt.Errorf("lp: AᵀDA right-hand side has %d entries, want %d", len(y), a.Cols())
	}
	return nil
}
