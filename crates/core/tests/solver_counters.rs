//! Deterministic solver-counter gates: the LTE step controller, the
//! modified-Newton Jacobian reuse and the device-eval bypass must stay
//! alive on the Table I cell.
//!
//! The counters are exact integers, identical on every host and in every
//! build profile, so the bounds are tight enough to catch a disabled
//! optimisation yet loose enough to survive benign solver tweaks.

mod common;

use nvpg_cells::design::CellDesign;
use nvpg_core::{run_sequence, Architecture, SequenceParams};

#[test]
fn nvsram_hold_transient_counters_stay_in_bounds() {
    let steps = common::nvsram_hold_transient();

    // The LTE controller grows dt to the 2 ns cap and lands at ~58
    // accepted steps; a heuristic stepper needs ~2000.
    assert!(
        (45..=200).contains(&steps.accepted_steps),
        "accepted steps outside [45, 200]: {steps}"
    );
    let ips = steps.iterations_per_solve();
    assert!(
        (1.0..=6.0).contains(&ips),
        "Newton iterations per solve {ips:.3} outside [1, 6]: {steps}"
    );
    assert!(
        steps.refactorizations_avoided > 0,
        "modified Newton is dead: {steps}"
    );
    assert!(
        steps.device_bypasses > 0,
        "the eval bypass is dead: {steps}"
    );
}

#[test]
fn nvpg_sequence_keeps_reuse_and_bypass_alive() {
    let seq = run_sequence(
        &CellDesign::table1(),
        Architecture::Nvpg,
        &SequenceParams::default(),
    )
    .unwrap();
    assert!(
        seq.steps.refactorizations_avoided > 0,
        "modified Newton is dead over the Fig. 6(a) sequence: {}",
        seq.steps
    );
    assert!(
        seq.steps.device_bypasses > 0,
        "the eval bypass is dead over the Fig. 6(a) sequence: {}",
        seq.steps
    );
}
