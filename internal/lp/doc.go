// Package lp implements the linear program solver of Section 4 of the
// paper (Theorem 1.4): an interior-point method following the Lee–Sidford
// weighted central path, with regularized Lewis weights (Algorithms 7–8),
// inexact centering steps (Algorithm 11), mixed-norm-ball projections
// (Lemma 4.10) and the two-phase path-following driver (Algorithms 9–10).
//
// The serving unit is Session, which binds one Problem to a linear-solve
// backend and shared IPM scratch: Solve runs the full two-phase path
// following, Polish re-centers a prior certified iterate at t₂ (the
// warm-start shortcut batch flow queries use; its output is only as good
// as the caller's certificate, by design).
//
// The per-step normal equations (AᵀDA)x = y go through a pluggable backend
// registry ("dense", "gremban", "csr-cg", "csr-pcg";
// ValidateBackend/Backends) shared with the flow layer, so the same IPM
// scales from the exact dense reference to matrix-free CG that never
// materializes AᵀDA. The csr-pcg backend adds a combinatorial
// preconditioner on top of the matrix-free path: a spanning-forest
// incomplete Cholesky whose support is extracted once per session from the
// constraint matrix with the paper's own spanner/sparsifier machinery and
// only numerically refreshed when the IPM reweights D (precond.go); its
// build/refresh counters surface in Solution.PrecondBuilds/Refreshes.
//
// Leverage scores σ(diag(d)·A), which every Lewis-weight iteration needs,
// do not go through the backend on the exact branch (sketch dimension
// k ≥ m, every instance the flow pipeline meets up to m ≈ 2000): d is
// fixed within the call, so all m rows share one AᵀD²A, which lewis.go
// assembles and Cholesky-factors once, σ_r = d_r²·‖L⁻¹a_r‖². Every backend
// therefore computes the same scores, and the backend serves only the
// Newton projection solves (one per centering) and Polish's feasibility
// repair. A Cholesky that fails (an empty column of diag(d)·A, or iterates
// so near their bounds that the Gram matrix is singular to working
// precision — a few calls in a million on the flow benchmark) falls back
// to per-row solves against the dense reference backend, whose Gaussian
// elimination and ridge handle such matrices. Per-row solves go through
// the configured backend only for n above factorMaxCols, and the sketch
// branch (k < m) issues its k solves through the backend as before.
//
// Invariants:
//
//   - Confinement: a Session is single-goroutine — its backend workspaces
//     are reused across solves, and each Solve/Polish call allocates its
//     centering scratch and leverage buffers once, so a centering
//     allocates nothing (tested with testing.AllocsPerRun on dense and
//     csr-pcg) while an idle Session retains only the backend. Concurrent
//     serving wraps one Session per worker (internal/pool), never a lock
//     around one Session.
//   - Determinism: results are bit-identical to one-shot solves — every
//     scratch buffer is fully overwritten before it is read, and all
//     randomness (leverage sketching) derives from Params.Seed.
//   - Cancellation: the path-following loop checks its context every
//     iteration and the inner CG every 32 iterations; an aborted solve
//     returns an error satisfying errors.Is(err, ctx.Err()).
//
// Numerical notes. The paper's constants (R, α, t₁, bundle sizes …) are
// chosen for the w.h.p. proofs and are astronomically conservative — with
// them verbatim, a 10-variable LP would take ~10⁹ iterations. This
// implementation keeps every algorithmic *shape* (α ∝ 1/√n path steps,
// barrier + Lewis-weight machinery, projections, Johnson–Lindenstrauss
// leverage scores) and exposes the aggressiveness through Params, so the
// experiments can measure the √n iteration scaling of Theorem 1.4 while
// still converging in float64. Deviations are local and documented at the
// point they occur.
package lp
