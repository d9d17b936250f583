//! Equivalence and determinism of the assignment solvers against the dense
//! reference (seeded-RNG property loops).
//!
//! The contract under test: the dispatch solver (`Decomposed<SparseKm>`)
//! and its building blocks (`SparseKm`, `Decomposed<DenseKm>`) return an
//! assignment of `min(rows, cols)` pairs whose total cost equals the dense
//! rectangular Kuhn–Munkres optimum on arbitrary real and integer costs.
//! `Decomposed<S>` must additionally be bit-identical for every thread
//! count.

use foodmatch_matching::{
    decompose, solve_hungarian, AssignmentSolver, Decomposed, DenseKm, SparseCostMatrix, SparseKm,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OMEGA: f64 = 7_200.0;

/// A random sparse instance; `integer` restricts costs to whole seconds.
fn random_instance(rng: &mut StdRng, density: f64, integer: bool) -> SparseCostMatrix {
    let rows = rng.random_range(1..=10);
    let cols = rng.random_range(1..=10);
    let mut costs = SparseCostMatrix::new(rows, cols, OMEGA);
    for r in 0..rows {
        for c in 0..cols {
            if rng.random_range(0.0..1.0) < density {
                let cost = if integer {
                    rng.random_range(0..7_000) as f64
                } else {
                    rng.random_range(0.0..7_000.0)
                };
                costs.set(r, c, cost);
            }
        }
    }
    costs
}

/// Every solver checked against the dense reference, with `threads` as the
/// per-component fan-out of the decomposed ones.
fn solvers(threads: usize) -> Vec<Box<dyn AssignmentSolver>> {
    vec![
        Box::new(SparseKm),
        Box::new(Decomposed::new(SparseKm).with_threads(threads)),
        Box::new(Decomposed::new(DenseKm).with_threads(threads)),
    ]
}

fn assert_matches_dense(costs: &SparseCostMatrix, solver: &dyn AssignmentSolver, tol: f64) {
    let dense = solve_hungarian(&costs.to_dense());
    let solved = solver.solve(costs);
    assert!(
        (solved.total_cost - dense.total_cost).abs() <= tol,
        "{}: total {} vs dense {} on\n{}",
        solver.name(),
        solved.total_cost,
        dense.total_cost,
        costs.to_dense()
    );
    assert_eq!(solved.matched_pairs(), costs.rows().min(costs.cols()), "{}", solver.name());
    assert!(solved.is_consistent(), "{}", solver.name());
}

#[test]
fn km_family_agrees_with_dense_on_random_real_valued_instances() {
    let mut rng = StdRng::seed_from_u64(0xF00D_CAFE);
    let solvers = solvers(2);
    for trial in 0..250usize {
        let density = [0.1, 0.3, 0.6][trial % 3];
        let costs = random_instance(&mut rng, density, false);
        for solver in &solvers {
            assert_matches_dense(&costs, solver.as_ref(), 1e-6);
        }
    }
}

#[test]
fn every_solver_kind_is_exact_on_random_integer_instances() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let solvers = solvers(2);
    for trial in 0..150usize {
        let density = [0.15, 0.45, 0.8][trial % 3];
        let costs = random_instance(&mut rng, density, true);
        for solver in &solvers {
            // Integer totals differ by >= 1, so 0.5 separates "picked an
            // optimal matching" from any suboptimal one.
            assert_matches_dense(&costs, solver.as_ref(), 0.5);
        }
    }
}

#[test]
fn rectangular_extremes_and_degenerate_shapes_agree() {
    let mut rng = StdRng::seed_from_u64(7_777);
    let solvers = solvers(3);
    // Very wide and very tall shapes, fully dense and nearly empty.
    for &(rows, cols) in &[(1usize, 12usize), (12, 1), (2, 9), (9, 2), (8, 8)] {
        for density in [0.0, 1.0] {
            let mut costs = SparseCostMatrix::new(rows, cols, OMEGA);
            for r in 0..rows {
                for c in 0..cols {
                    if density == 1.0 {
                        costs.set(r, c, rng.random_range(0..5_000) as f64);
                    }
                }
            }
            for solver in &solvers {
                assert_matches_dense(&costs, solver.as_ref(), 0.5);
            }
        }
    }
}

#[test]
fn all_omega_instances_reduce_to_pure_rejection_padding() {
    let costs = SparseCostMatrix::new(6, 4, OMEGA);
    assert!(decompose(&costs).is_empty());
    for solver in solvers(2) {
        let solved = solver.solve(&costs);
        assert_eq!(solved.matched_pairs(), 4);
        assert!((solved.total_cost - 4.0 * OMEGA).abs() < 1e-9, "{}", solver.name());
    }
}

#[test]
fn explicit_entries_at_omega_never_beat_rejection() {
    // Clamped FoodGraph edges can sit exactly at Ω; they are equivalent to
    // rejection and must not change any solver's total.
    let mut costs = SparseCostMatrix::new(3, 3, OMEGA);
    costs.set(0, 0, OMEGA);
    costs.set(1, 1, 120.0);
    costs.set(2, 1, 60.0);
    for solver in solvers(2) {
        let solved = solver.solve(&costs);
        assert!((solved.total_cost - (60.0 + 2.0 * OMEGA)).abs() < 1e-6, "{}", solver.name());
    }
}

#[test]
fn decomposed_solves_are_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for trial in 0..20usize {
        // Larger instances with block structure so several components exist.
        let blocks = 2 + trial % 4;
        let mut costs = SparseCostMatrix::new(blocks * 8, blocks * 6, OMEGA);
        for b in 0..blocks {
            for _ in 0..20 {
                let r = b * 8 + rng.random_range(0..8usize);
                let c = b * 6 + rng.random_range(0..6usize);
                costs.set(r, c, rng.random_range(0.0..6_000.0));
            }
        }
        assert!(decompose(&costs).len() >= 2, "block instance must decompose");
        let sparse = Decomposed::new(SparseKm).with_threads(1).solve(&costs);
        let dense = Decomposed::new(DenseKm).with_threads(1).solve(&costs);
        for threads in [2, 3, 8, 17] {
            let solved = Decomposed::new(SparseKm).with_threads(threads).solve(&costs);
            assert_eq!(solved, sparse, "sparse KM, {threads} threads, trial {trial}");
            let solved = Decomposed::new(DenseKm).with_threads(threads).solve(&costs);
            assert_eq!(solved, dense, "dense KM, {threads} threads, trial {trial}");
        }
    }
}

#[test]
fn component_sharding_partitions_rows_and_columns() {
    let mut rng = StdRng::seed_from_u64(31_337);
    for _ in 0..50 {
        let costs = random_instance(&mut rng, 0.2, false);
        let components = decompose(&costs);
        let mut seen_rows = vec![false; costs.rows()];
        let mut seen_cols = vec![false; costs.cols()];
        for component in &components {
            assert!(!component.rows.is_empty() && !component.cols.is_empty());
            assert!(component.edges() > 0, "components carry at least one finite edge");
            for &r in &component.rows {
                assert!(!seen_rows[r], "row {r} appears in two components");
                seen_rows[r] = true;
            }
            for &c in &component.cols {
                assert!(!seen_cols[c], "col {c} appears in two components");
                seen_cols[c] = true;
            }
            // The component's matrix holds exactly its global sub-matrix.
            for (lr, &gr) in component.rows.iter().enumerate() {
                for (lc, &gc) in component.cols.iter().enumerate() {
                    let global = costs.get(gr, gc);
                    let local = component.matrix.get(lr, lc);
                    if global < OMEGA {
                        assert_eq!(local, global);
                    } else {
                        assert_eq!(local, OMEGA, "cross entries stay at the default");
                    }
                }
            }
        }
        // Every finite edge lands in some component.
        for &(r, c, v) in costs.entries() {
            if v < OMEGA {
                assert!(seen_rows[r] && seen_cols[c]);
            }
        }
    }
}
