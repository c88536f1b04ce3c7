// Package flow implements minimum-cost maximum-flow (Section 5 of the
// paper, Theorem 1.1):
//
//   - the paper's pipeline: the auxiliary LP with slack variables y, z and
//     flow variable F, Daitch–Spielman cost perturbation for uniqueness,
//     the Lee–Sidford solver with (AᵀDA)-solves routed through a pluggable
//     backend (dense factorization, the Gremban reduction to Laplacian
//     systems of Lemma 5.1, or matrix-free CG — plain, or preconditioned
//     by the spanner-built forest of the csr-pcg backend, which
//     DefaultBackendFor auto-selects on sparse networks), and rounding
//     back to an exact integral flow — when the rounding fails the
//     certificate, once more from the iterate moved back onto Aᵀx = b by
//     a barrier-weighted least-squares correction, since inexact (CG)
//     projection solves let the path drift off the constraints;
//   - classic combinatorial baselines (Dinic's max-flow and successive
//     shortest paths with potentials) that the experiments compare
//     against; and
//   - an exactness certificate (no augmenting path + no negative residual
//     cycle) used both by the retry loop and the tests.
//
// The serving unit is Solver, a session over one digraph: each queried
// terminal pair lazily builds — then caches — the Section 5 LP
// formulation, its CSR constraint matrix, the backend workspaces and the
// last certified solution (the warm-start state batch queries re-center
// instead of re-running path following).
//
// Invariants:
//
//   - Determinism: with Options.Rand nil, every query draws a fresh
//     perturbation stream from Options.Seed, so session queries are
//     bit-identical to one-shot calls and independent of the order in
//     which *other* terminal pairs are queried. Only the per-pair solve
//     sequence matters (warm starts), which is what internal/pool's
//     pair-pinned routing preserves.
//   - Exactness: every returned flow passed CertifyOptimal — warm starts
//     and perturbation shortcuts are certificate-gated, never trusted.
//   - Confinement: a Solver's solve methods are single-goroutine (the
//     cached workspaces make the hot path allocation-free); only the
//     read-only Validate may be called concurrently. Concurrency lives one
//     layer up, in internal/pool, which gives each worker its own Solver.
//   - Cancellation: the solve context is polled once per retry attempt,
//     per path-following iteration, and every 32 inner CG/Chebyshev
//     iterations, so cancellation aborts within one outer iteration
//     without slowing the allocation-free kernels.
package flow
