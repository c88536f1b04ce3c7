// Package jl implements the Johnson–Lindenstrauss machinery of Section
// 4.1 of the paper:
//
//   - the classical Achlioptas dense ±1 sketch, which needs Θ(k·m) random
//     bits and is therefore *not* implementable in the Broadcast Congested
//     Clique (one endpoint cannot tell the other its coin flips), and
//   - the Kane–Nelson sparse sketch built from O(log(1/δ)·log m) shared
//     random bits: a leader broadcasts a short seed, and every vertex
//     expands it *deterministically* into the same sketch matrix via
//     k-wise independent polynomial hash functions.
//
// On top of the sketches, the package provides approximate leverage scores
// (Algorithm 6, Lemma 4.5): σ(M) = diag(M(MᵀM)⁻¹Mᵀ) approximated by k
// regression solves, which the LP solver's Lewis-weight updates consume.
// LeverageScoresExact, one Gram solve per row, is the reference: the LP
// solver computes exact scores itself from one factorization of the Gram
// matrix (internal/lp, lewis.go) and calls it only as a fallback, while
// tests check the factored scores against it.
//
// Invariants:
//
//   - Shared-seed determinism is the point: expanding the same broadcast
//     seed on every vertex yields the same sketch, so a sketch never needs
//     to be communicated — only its seed.
//   - Sketch application is matrix-free: only Mul/MulT closures over the
//     constraint matrix are required, matching the operator discipline of
//     internal/linalg.
package jl
