//! # foodmatch-matching
//!
//! Minimum-weight bipartite matching substrate for the FoodMatch
//! reproduction.
//!
//! The paper assigns order batches to vehicles by building a bipartite
//! "FoodGraph" and computing a minimum-weight perfect matching (§IV-A),
//! using the Bourgeois–Lassalle extension to rectangular matrices
//! (reference [19]) because the number of batches and the number of
//! vehicles rarely agree. After Algorithm 2's sparsification most
//! (batch, vehicle) pairs sit at the rejection penalty Ω, so dispatch
//! solves the matching on the explicit entries only:
//!
//! * [`AssignmentSolver`] — the solver trait: sparse matrix in,
//!   [`Assignment`] out, deterministic.
//! * [`Decomposed`]`<`[`SparseKm`]`>` — the one solver dispatch runs: the
//!   instance is sharded by connected component of the finite-cost graph
//!   ([`decompose`]) and each component is solved by Kuhn–Munkres via
//!   successive shortest paths on its explicit entries, in parallel via
//!   [`parallel::parallel_map`], exactly. [`instrumented`] adds its
//!   telemetry.
//! * [`DenseKm`] / [`hungarian::solve`] — the serial dense Kuhn–Munkres
//!   solver (`O(n²·m)` with potentials); the fully general reference the
//!   dispatch solver is tested against.
//! * [`CostMatrix`] / [`SparseCostMatrix`] — dense and sparse cost storage.
//! * [`greedy::solve`] — the locally-optimal matcher used as a reference
//!   point in tests and ablation benchmarks.
//!
//! The crate is deliberately free of food-delivery concepts: it is a
//! reusable assignment-problem library (and the workspace's dependency-free
//! leaf — `parallel_map` lives here so every layer above can share it).
//!
//! ```
//! use foodmatch_matching::{AssignmentSolver, Decomposed, SparseCostMatrix, SparseKm};
//!
//! // Three batches, three vehicles; most pairs are at Ω = 3600 s.
//! let mut costs = SparseCostMatrix::new(3, 3, 3600.0);
//! costs.set(0, 0, 240.0);
//! costs.set(1, 0, 300.0);
//! costs.set(1, 1, 180.0);
//! costs.set(2, 2, 420.0);
//!
//! let solver = Decomposed::new(SparseKm).with_threads(4);
//! let assignment = solver.solve(&costs);
//! assert_eq!(assignment.matched_pairs(), 3);
//! assert_eq!(assignment.total_cost, 240.0 + 180.0 + 420.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod decompose;
pub mod greedy;
pub mod hungarian;
pub mod matrix;
pub mod parallel;
pub mod solver;
pub mod sparse_km;

pub use decompose::{decompose, Component, Decomposed};
pub use hungarian::solve as solve_hungarian;
pub use matrix::{Assignment, CostMatrix, SparseCostMatrix};
pub use parallel::parallel_map;
pub use solver::{instrumented, AssignmentSolver, DenseKm};
pub use sparse_km::SparseKm;
