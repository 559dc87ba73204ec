//! Array-scale gates for the power-domain generator: the dense and
//! sparse backends agree cell for cell, and a retention cycle through the
//! sparse backend keeps every bit with its step/solver counters inside
//! committed bounds.
//!
//! The counters are exact integers, identical on every host, so the
//! bounds catch a dead optimisation yet survive benign solver tweaks.

use nvpg_cells::array::checkerboard;
use nvpg_cells::design::CellDesign;
use nvpg_cells::domain::{DomainArray, DomainKind};
use nvpg_circuit::{SolverChoice, SPARSE_THRESHOLD};

fn nvpg_domain(size: usize, solver: SolverChoice) -> DomainArray {
    DomainArray::with_solver(
        CellDesign::table1(),
        DomainKind::Nvpg,
        size,
        size,
        solver,
        checkerboard,
    )
    .unwrap()
}

#[test]
fn dense_and_sparse_domains_agree_cell_for_cell() {
    let dense = nvpg_domain(8, SolverChoice::Dense);
    let sparse = nvpg_domain(8, SolverChoice::Sparse);
    assert_eq!(dense.pattern(), sparse.pattern());
    for r in 0..8 {
        for c in 0..8 {
            assert_eq!(
                dense.mtj_states(r, c),
                sparse.mtj_states(r, c),
                "MTJ state mismatch at ({r}, {c})"
            );
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only gate: cargo test --release")]
fn sparse_retention_cycle_keeps_every_bit_within_counter_bounds() {
    let mut dom = nvpg_domain(16, SolverChoice::Sparse);
    assert!(
        dom.unknown_count() > SPARSE_THRESHOLD,
        "{} unknowns do not exercise the sparse path",
        dom.unknown_count()
    );
    let before = dom.pattern();
    dom.reset_step_stats();
    dom.store().unwrap();
    dom.shutdown(true).unwrap();
    dom.restore().unwrap();
    assert_eq!(
        dom.pattern(),
        before,
        "checkerboard lost through store/shutdown/restore"
    );

    // Seven transient phases, dt capped at duration/100 per phase.
    let steps = *dom.step_stats();
    assert!(
        (1000..=5000).contains(&steps.accepted_steps),
        "accepted steps outside [1000, 5000]: {steps}"
    );
    let ips = steps.iterations_per_solve();
    assert!(
        (1.0..=8.0).contains(&ips),
        "Newton iterations per solve {ips:.3} outside [1, 8]: {steps}"
    );
    assert!(
        steps.refactorizations_avoided > 0,
        "modified Newton is dead on sparse: {steps}"
    );
    assert!(
        steps.device_bypasses > 0,
        "the eval bypass is dead on the domain: {steps}"
    );
}
