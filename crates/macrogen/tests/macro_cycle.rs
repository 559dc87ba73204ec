//! The macro-scale data-survival gate: a generated 16×16 NV-SRAM macro
//! (cell array plus full periphery) keeps every bit through store →
//! super-cutoff shutdown → hold → restore on the sparse backend.

use nvpg_cells::array::checkerboard;
use nvpg_circuit::SolverChoice;
use nvpg_macro::{Granularity, MacroSpec, NvMacro};

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only gate: cargo test --release")]
fn sixteen_square_macro_survives_a_full_power_cycle() {
    let spec = MacroSpec::new(16, 16, 4).with_granularity(Granularity::PerBank(4));
    let mut m = NvMacro::with_solver(spec, SolverChoice::Sparse, checkerboard).unwrap();
    let before = m.pattern();
    let groups: Vec<usize> = (0..spec.groups()).collect();

    m.store(&groups).unwrap();
    // The store must write one (left, right) retention pair for data=1
    // and a different pair for data=0, judged against the pre-cycle data
    // so a latch flip cannot hide.
    let mut pairs = [None, None];
    for (r, row) in before.iter().enumerate() {
        for (c, &bit) in row.iter().enumerate() {
            let pair = m.mtj_states(r, c).expect("macro lost its NV elements");
            let slot = &mut pairs[usize::from(bit)];
            assert_eq!(
                *slot.get_or_insert(pair),
                pair,
                "retention pair at ({r}, {c}) is not a function of its data"
            );
        }
    }
    assert_ne!(pairs[0], pairs[1], "data=0 and data=1 stored the same pair");

    m.shutdown(&groups, true).unwrap();
    m.hold(20e-9).unwrap();
    m.restore(&groups).unwrap();

    let mut preserved = 0;
    for (r, row) in before.iter().enumerate() {
        for (c, &bit) in row.iter().enumerate() {
            preserved += usize::from(m.data(r, c) == bit);
        }
    }
    assert_eq!(preserved, 256, "bits lost through the shutdown cycle");
    let margin = m.min_storage_margin();
    assert!(
        margin >= 0.3,
        "post-restore storage margin {margin:.3} V (gate: >= 0.3 V)"
    );
}
