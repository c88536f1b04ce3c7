package flow

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"bcclap/internal/graph"
	"bcclap/internal/lp"
	"bcclap/internal/sim"
)

// Options configures the LP-based min-cost max-flow pipeline.
type Options struct {
	// Eps is the LP target accuracy relative to the (scaled) objective;
	// the default drives t₂ high enough for exact rounding on the
	// perturbed LP.
	Eps float64
	// Retries is the number of perturbation attempts (each succeeds with
	// probability ≥ 1/2 per Daitch–Spielman; footnote 7's boosting).
	Retries int
	// Backend names the (AᵀDA) strategy from the lp backend registry
	// ("dense", "gremban", "csr-cg", "csr-pcg", …); empty falls back to
	// Solver, then to the graph-dependent auto-selection of
	// DefaultBackendFor. Unknown names fail fast with lp.ErrBackendUnknown
	// when the solver is constructed.
	Backend string
	// Solver picks the (AᵀDA) strategy by enum.
	//
	// Deprecated: set Backend; Solver is kept as an alias for existing
	// callers and is ignored when Backend is non-empty.
	Solver SolverMode
	// LP forwards interior-point parameters.
	LP lp.Params
	// Rand drives the perturbations. When non-nil it is consumed as a
	// shared stream (successive Solver queries advance it); when nil each
	// query draws from a fresh stream seeded by Seed, which makes session
	// queries bit-identical to one-shot calls.
	Rand *rand.Rand
	// Seed seeds the per-query perturbation stream when Rand is nil; nil
	// selects the historical default 2022. It is a pointer so that every
	// int64 value — including 0 — names a distinct stream.
	Seed *int64
	// Net, if non-nil, receives round accounting.
	Net *sim.Network
	// Progress, if non-nil, is invoked at the start of every perturbation
	// attempt. Observability only.
	Progress func(attempt int)
}

// withDefaults fills the zero values.
func (o Options) withDefaults() Options {
	if o.Eps == 0 {
		o.Eps = 0.25
	}
	if o.Retries == 0 {
		o.Retries = 5
	}
	return o
}

// autoBackendMinVerts and autoBackendDensity gate the auto-selection of
// DefaultBackendFor: below ~32 vertices the dense reference wins outright
// (assembling the tiny AᵀDA is cheaper than any iteration), and above it
// the preconditioned matrix-free pipeline wins exactly when the network is
// sparse — fewer than n²/8 arcs, i.e. well away from a complete digraph
// where the Gram matrix is dense anyway.
const (
	autoBackendMinVerts = 32
	autoBackendDensity  = 8
)

// DefaultBackendFor returns the AᵀDA backend auto-selected for d when the
// caller names none: "csr-pcg" — matrix-free CG with the spanner-built
// combinatorial preconditioner — when the graph is sparse (n ≥ 32 and
// m ≤ n²/8), the exact dense reference otherwise.
func DefaultBackendFor(d *graph.Digraph) string {
	n, m := d.N(), d.M()
	if n >= autoBackendMinVerts && m*autoBackendDensity <= n*n {
		return "csr-pcg"
	}
	return "dense"
}

// ResolveBackend folds the deprecated Solver enum and the empty default
// into a single registry name, and validates it against the registry —
// the one place the legacy knobs are translated, shared with the public
// layer so Stats.Backend always names what the sessions actually run.
// With neither Backend nor Solver set, the backend is auto-selected per
// DefaultBackendFor. Unknown names fail here, before any solve starts,
// with an error satisfying errors.Is(err, lp.ErrBackendUnknown).
func (o Options) ResolveBackend(d *graph.Digraph) (string, error) {
	backend := o.Backend
	if backend == "" {
		if o.Solver != 0 {
			backend = o.Solver.BackendName()
		} else {
			backend = DefaultBackendFor(d)
		}
	}
	if err := lp.ValidateBackend(backend); err != nil {
		return "", err
	}
	return backend, nil
}

// Result is the output of a min-cost max-flow solve.
type Result struct {
	// Value is the maximum flow value, Cost its minimum cost.
	Value, Cost int64
	// Flows is the exact integral per-arc flow.
	Flows []int64
	// Attempts is the number of fresh perturbations tried (0 for a
	// successful warm-started batch solve, which reuses the previous
	// certified perturbation).
	Attempts int
	// LPStats carries the interior-point statistics of the successful
	// attempt (path steps, centerings, inner CG iterations).
	LPStats lp.Solution
	// Rounds is the simulator round count consumed by this solve (0
	// without a network).
	Rounds int
	// WallTime is the measured duration of this solve.
	WallTime time.Duration
	// ReusedForm reports that the LP formulation, CSR structure and
	// backend workspaces were reused from an earlier query on the same
	// terminals (session amortization).
	ReusedForm bool
	// WarmStarted reports that the solve skipped path following entirely,
	// re-centering the previous certified solution at t₂ (batch mode).
	WarmStarted bool
}

// ErrNotCertified marks an attempt whose LP iterate rounded to a flow the
// exactness certificate rejected; a query whose last attempt ended so
// fails with an error wrapping it (the message also gives the iterate's
// equality residual ‖Aᵀx − b‖). A rejected rounding is never returned as
// an answer.
var ErrNotCertified = errors.New("flow: rounded flow failed the optimality certificate")

// Query is a terminal pair for Solver.SolveBatch.
type Query struct {
	S, T int
}

// formState is the per-terminal-pair cache of a Solver: the LP structure,
// the lp session bound to it (backend + scratch), and the last certified
// solution for warm starts.
type formState struct {
	form *LPForm
	sess *lp.Session
	used bool
	// warmX/warmW are the LP iterate and Lewis weights of the last
	// certified solve, valid for the perturbation currently written in
	// form (Perturb invalidates them implicitly: the cold path never reads
	// them, and the warm path is only taken when no re-perturbation
	// happened since they were stored).
	warmX, warmW []float64
	// costsStale marks a form rebuilt by ApplyArcDeltas: warmX was
	// certified against the pre-patch costs, so the warm path must redraw
	// the perturbation over the new costs before polishing.
	costsStale bool
}

// Solver is a reusable min-cost max-flow session over one digraph
// (Theorem 1.1 as a service): construction validates the options, and each
// queried terminal pair lazily builds — then caches — the Section 5 LP
// formulation, its CSR constraint matrix and the linear-solve backend
// workspaces, so repeated and batched queries skip everything that is
// query-independent. A Solver is not safe for concurrent use.
type Solver struct {
	d       *graph.Digraph
	opts    Options
	backend string
	forms   map[Query]*formState
}

// NewSolver builds a session over d. It fails fast — before any query —
// on an empty digraph (ErrBadQuery) or an unknown backend name
// (lp.ErrBackendUnknown, listing the registered backends).
func NewSolver(d *graph.Digraph, opts Options) (*Solver, error) {
	if err := checkNonEmpty(d); err != nil {
		return nil, err
	}
	backend, err := opts.ResolveBackend(d)
	if err != nil {
		return nil, err
	}
	return &Solver{d: d, opts: opts.withDefaults(), backend: backend, forms: map[Query]*formState{}}, nil
}

// Backend returns the resolved AᵀDA backend name this session solves
// with — the explicit Options choice, or the DefaultBackendFor
// auto-selection when none was named.
func (fs *Solver) Backend() string { return fs.backend }

// formFor returns the cached per-terminal state, building it on first use.
func (fs *Solver) formFor(q Query) (*formState, error) {
	if st, ok := fs.forms[q]; ok {
		return st, nil
	}
	form, err := NewLPFormStructure(fs.d, q.S, q.T)
	if err != nil {
		return nil, err
	}
	if err := form.Configure(fs.backend); err != nil {
		return nil, err
	}
	sess, err := lp.NewSession(form.Prob)
	if err != nil {
		return nil, err
	}
	st := &formState{form: form, sess: sess}
	fs.forms[q] = st
	return st, nil
}

// queryRand returns the perturbation stream for one query.
func (fs *Solver) queryRand() *rand.Rand {
	if fs.opts.Rand != nil {
		return fs.opts.Rand
	}
	seed := int64(2022)
	if fs.opts.Seed != nil {
		seed = *fs.opts.Seed
	}
	return rand.New(rand.NewSource(seed))
}

// SeedOf is a convenience for composing Options literals: Seed: SeedOf(7).
func SeedOf(seed int64) *int64 { return &seed }

// lpParams prepares the interior-point parameters for one attempt.
func (fs *Solver) lpParams(attempt int64) lp.Params {
	par := fs.opts.LP
	par.Net = fs.opts.Net
	if par.Seed == 0 {
		par.Seed = attempt
	}
	return par
}

// Solve answers one (s, t) query: perturb costs for uniqueness, solve the
// Section 5 LP with the Lee–Sidford interior-point method, round to
// integers and certify; on a failed certificate, retry with fresh
// perturbation randomness. Results are bit-identical to a one-shot
// MinCostMaxFlowCtx call with the same Options (when Options.Rand is nil).
// ctx cancellation aborts within one path-following iteration with an
// error satisfying errors.Is(err, ctx.Err()).
func (fs *Solver) Solve(ctx context.Context, s, t int) (*Result, error) {
	return fs.solve(ctx, Query{S: s, T: t}, false)
}

// Validate checks one terminal pair against the session's digraph without
// doing any solve work, reporting the same ErrBadQuery conditions Solve
// would. Unlike the solve methods it only reads the immutable digraph, so
// it is safe to call concurrently with a solve running on this session
// (the pool layer uses it to pre-validate batches).
func (fs *Solver) Validate(q Query) error { return checkST(fs.d, q.S, q.T) }

// SolveWarm answers one query with batch semantics: a repeat of a terminal
// pair already certified on this session warm-starts from the previous
// solution (re-centering at t₂ instead of re-running path following),
// falling back to a cold solve whenever the exactness certificate rejects
// the shortcut. It is the single-query unit SolveBatch — and the worker
// sessions of internal/pool — are built from. Like Solve, it must only be
// called from one goroutine at a time.
func (fs *Solver) SolveWarm(ctx context.Context, q Query) (*Result, error) {
	if err := checkST(fs.d, q.S, q.T); err != nil {
		return nil, err
	}
	return fs.solve(ctx, q, true)
}

// SolveBatch answers a sequence of queries, validating every terminal pair
// up front (a malformed query fails the whole batch before any work
// starts). Repeated terminal pairs are warm-started: the solver re-centers
// the previous certified solution at the final path parameter instead of
// re-running path following, falling back to a cold solve whenever the
// exactness certificate rejects the shortcut — so every returned flow is
// certified optimal regardless of how it was obtained.
func (fs *Solver) SolveBatch(ctx context.Context, queries []Query) ([]*Result, error) {
	for i, q := range queries {
		if err := checkST(fs.d, q.S, q.T); err != nil {
			return nil, fmt.Errorf("flow: batch query %d: %w", i, err)
		}
	}
	out := make([]*Result, len(queries))
	for i, q := range queries {
		res, err := fs.solve(ctx, q, true)
		if err != nil {
			return nil, fmt.Errorf("flow: batch query %d (s=%d, t=%d): %w", i, q.S, q.T, err)
		}
		out[i] = res
	}
	return out, nil
}

func (fs *Solver) solve(ctx context.Context, q Query, tryWarm bool) (*Result, error) {
	start := time.Now()
	st, err := fs.formFor(q)
	if err != nil {
		return nil, err
	}
	startRounds := 0
	if fs.opts.Net != nil {
		startRounds = fs.opts.Net.Rounds()
	}
	reused := st.used
	st.used = true

	if tryWarm && st.warmX != nil {
		// The LP — including its perturbed costs — is unchanged since the
		// last certified solve of this query: a handful of centerings at t₂
		// from the previous optimum replaces the whole Õ(√n)-step path
		// following. The previous optimum hugs the box boundary, so blend a
		// small step toward the cold interior point first (a shifted warm
		// start) — the margin it regains must dominate the feasibility
		// repair Polish applies, and the rounding margin (1/6 of a flow
		// unit) absorbs the shift. The certificate below keeps this exact.
		const warmBlend = 0.05
		if st.costsStale {
			// The arcs were patched since this basis was certified: redraw
			// the uniqueness perturbation over the new costs first. The
			// stream matches a cold attempt's first draw, so a certificate
			// failure below falls back to the exact cold solve a fresh
			// session would run.
			st.form.Perturb(fs.queryRand())
			st.costsStale = false
		}
		x := make([]float64, len(st.warmX))
		for i := range x {
			x[i] = (1-warmBlend)*st.warmX[i] + warmBlend*st.form.X0[i]
		}
		sol, err := st.sess.Polish(ctx, x, st.warmW, fs.opts.Eps, fs.lpParams(1))
		if err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("flow: warm solve: %w", err)
			}
		} else {
			flows := st.form.RoundFlow(sol.X)
			if CertifyOptimal(fs.d, q.S, q.T, flows) == nil {
				st.warmX, st.warmW = sol.X, sol.Weights
				return fs.newResult(q, flows, 0, sol, startRounds, start, reused, true), nil
			}
		}
		// Certificate (or polish) rejected the shortcut; run cold.
	}

	rnd := fs.queryRand()
	var lastErr error
	for attempt := 1; attempt <= fs.opts.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("flow: canceled before attempt %d: %w", attempt, err)
		}
		if fs.opts.Progress != nil {
			fs.opts.Progress(attempt)
		}
		st.form.Perturb(rnd)
		st.warmX, st.warmW = nil, nil // costs changed; prior optimum is stale
		sol, err := st.sess.Solve(ctx, st.form.X0, fs.opts.Eps, fs.lpParams(int64(attempt)))
		if err != nil {
			lastErr = fmt.Errorf("flow: LP attempt %d: %w", attempt, err)
			if ctx.Err() != nil {
				return nil, lastErr
			}
			continue
		}
		flows := st.form.RoundFlow(sol.X)
		err = CertifyOptimal(fs.d, q.S, q.T, flows)
		if err != nil {
			// Most rejected roundings come from an iterate that inexact
			// projection solves let drift off Aᵀx = b: round the repaired
			// iterate once more before drawing a fresh perturbation. A
			// rounding the certificate accepts is exact either way.
			if x, ok := st.form.repairDrift(sol.X); ok {
				if repaired := st.form.RoundFlow(x); CertifyOptimal(fs.d, q.S, q.T, repaired) == nil {
					flows, err = repaired, nil
					sol.X, sol.Objective = x, st.form.Prob.Objective(x)
				}
			}
		}
		if err != nil {
			lastErr = fmt.Errorf("flow: attempt %d: %w: %w (LP iterate off Aᵀx = b by %.3g)",
				attempt, ErrNotCertified, err, st.form.Prob.Residual(sol.X))
			continue
		}
		st.warmX, st.warmW = sol.X, sol.Weights
		return fs.newResult(q, flows, attempt, sol, startRounds, start, reused, false), nil
	}
	return nil, fmt.Errorf("flow: all %d attempts failed: %w", fs.opts.Retries, lastErr)
}

func (fs *Solver) newResult(q Query, flows []int64, attempts int, sol *lp.Solution, startRounds int, start time.Time, reused, warm bool) *Result {
	res := &Result{
		Value:       FlowValue(fs.d, q.S, flows),
		Cost:        FlowCost(fs.d, flows),
		Flows:       flows,
		Attempts:    attempts,
		LPStats:     *sol,
		WallTime:    time.Since(start),
		ReusedForm:  reused,
		WarmStarted: warm,
	}
	if fs.opts.Net != nil {
		res.Rounds = fs.opts.Net.Rounds() - startRounds
	}
	return res
}

// MinCostMaxFlow computes an exact minimum-cost maximum s-t flow through
// the paper's pipeline (Theorem 1.1); see MinCostMaxFlowCtx.
func MinCostMaxFlow(d *graph.Digraph, s, t int, opts Options) (*Result, error) {
	return MinCostMaxFlowCtx(context.Background(), d, s, t, opts)
}

// MinCostMaxFlowCtx is the one-shot form of Solver: it builds a session,
// answers the single query under ctx and discards the session. Callers
// with more than one query per digraph should hold a Solver instead.
func MinCostMaxFlowCtx(ctx context.Context, d *graph.Digraph, s, t int, opts Options) (*Result, error) {
	fs, err := NewSolver(d, opts)
	if err != nil {
		return nil, err
	}
	return fs.Solve(ctx, s, t)
}
