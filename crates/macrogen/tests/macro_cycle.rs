//! The macro-scale data-survival gate: a generated 16×16 NV-SRAM macro
//! (cell array plus full periphery) keeps every bit through store →
//! super-cutoff shutdown → hold → restore on the sparse backend; a
//! bit-exact pin of the same cycle on a 4×4 macro; and the transient
//! accuracy reference gate that the pin's re-recording rule runs first.

use nvpg_cells::array::checkerboard;
use nvpg_circuit::{SolverChoice, StepStats};
use nvpg_macro::{Granularity, MacroSpec, NvMacro};
use nvpg_numeric::Rng64;

/// The 4×4 cycle the pin and the reference gate run: mux 2, two gating
/// banks and one fair coin per bit from seed 1 on the sparse backend,
/// then store → super-cutoff shutdown → hold 20 ns → restore, under the
/// production array policy or, with `reference`, the accuracy reference.
/// Checks that all 16 bits survive, and returns the macro after the cycle
/// and the four phase energies (J).
fn four_square_cycle(reference: bool) -> (NvMacro, [f64; 4]) {
    let spec = MacroSpec::new(4, 4, 2).with_granularity(Granularity::PerBank(2));
    let mut rng = Rng64::seed_from_u64(1);
    let bits: Vec<Vec<bool>> = (0..4)
        .map(|_| (0..4).map(|_| rng.next_u64() & 1 == 1).collect())
        .collect();
    let mut m = NvMacro::with_solver(spec, SolverChoice::Sparse, |r, c| bits[r][c]).unwrap();
    if reference {
        m.use_reference_steps();
    }
    let groups: Vec<usize> = (0..spec.groups()).collect();
    assert_eq!(
        *m.step_stats(),
        StepStats::default(),
        "the DC set-up runs no transient"
    );

    let energies = [
        m.store(&groups).unwrap().energy.value(),
        m.shutdown(&groups, true).unwrap().energy.value(),
        m.hold(20e-9).unwrap().energy.value(),
        m.restore(&groups).unwrap().energy.value(),
    ];
    let kept = (0..4)
        .flat_map(|r| (0..4).map(move |c| (r, c)))
        .filter(|&(r, c)| m.data(r, c) == bits[r][c])
        .count();
    assert_eq!(kept, 16, "bits lost through the 4×4 power cycle");
    (m, energies)
}

/// Pins the sparse 4×4 cycle to its exact phase energies and step
/// counts, in every profile. Assembly and bookkeeping speed-ups such as
/// slot-bound stamping and deferred post-step stamps must leave every
/// answer bit where it was; one that moves a bit fails here. The sparse
/// path runs no SIMD kernel, so the pin also holds under
/// `NVPG_SIMD=scalar`.
///
/// Re-recording rule: a change that moves these bits on purpose (a new
/// device Jacobian, a different step policy) must first pass the
/// transient accuracy reference gate
/// (`four_square_production_energies_track_the_accuracy_reference`, below)
/// at its parent and at the change, then re-record every value below in
/// the same change, and CHANGES.md must list each old → new value with
/// the reason. A failure prints the new values as the left-hand side, in
/// the form they are written here. Never re-record to make an unexplained
/// move pass.
#[test]
fn four_square_macro_cycle_is_bit_exact() {
    let (m, energies) = four_square_cycle(false);
    let hex = energies.map(|e| format!("{:016x}", e.to_bits()));
    assert_eq!(
        hex,
        [
            "3d999855eb95a213",
            "bcd1490e2a52b672",
            "3ce9f566ea4c701d",
            "3d75a9746a3de7d9",
        ],
        "phase energies (store, shutdown, hold, restore) moved: {energies:?}"
    );

    let s = *m.step_stats();
    let counts = [
        ("accepted_steps", s.accepted_steps),
        ("rejected_newton", s.rejected_newton),
        ("rejected_lte", s.rejected_lte),
        ("newton_iterations", s.newton_iterations),
        ("newton_solves", s.newton_solves),
        ("jacobian_refactorizations", s.jacobian_refactorizations),
        ("refactorizations_avoided", s.refactorizations_avoided),
        ("device_evals", s.device_evals),
        ("device_bypasses", s.device_bypasses),
    ];
    assert_eq!(
        counts,
        [
            ("accepted_steps", 2162),
            ("rejected_newton", 0),
            ("rejected_lte", 139),
            ("newton_iterations", 4536),
            ("newton_solves", 2301),
            ("jacobian_refactorizations", 1779),
            ("refactorizations_avoided", 2757),
            ("device_evals", 566772),
            ("device_bypasses", 449292),
        ],
        "step counts moved"
    );
    assert_eq!(
        format!("{:#018x}", s.max_lte_ratio.to_bits()),
        "0x3fefebcd0814466a",
        "largest accepted LTE ratio moved: {}",
        s.max_lte_ratio
    );
}

/// The transient accuracy reference gate. The pinned 4×4 cycle under
/// [`StepPolicy::Reference`](nvpg_cells::StepPolicy::Reference) (LTE
/// 1e-4 relative / 1e-7 V absolute, at most 50 ps per step, the same
/// sparse backend and 1 µV device bypass) must reproduce the committed
/// reference energies within 1e-8 relative, and the production array
/// policy (1e-3 / 1e-6, at most 200 ps) must stay within a measured bound
/// of each.
///
/// Measured gaps (production / reference − 1), the same to three digits
/// before and after the closed-form FinFET Jacobian: store −3.23e-4,
/// shutdown +2.67e-3, hold +5.21e-4, restore +3.68e-5. The bounds are
/// ~2–3× each gap: 1e-3, 5e-3, 1e-3 and 1e-4. A change that crosses one
/// has made the production transient less accurate; never move a bound
/// to fit a change.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only gate: cargo test --release")]
fn four_square_production_energies_track_the_accuracy_reference() {
    const PHASES: [&str; 4] = ["store", "shutdown", "hold", "restore"];
    const REFERENCE: [f64; 4] = [
        5.821521850869346e-12,
        -9.569731276603597e-16,
        2.8804829833606296e-15,
        1.231292991423241e-12,
    ];
    const BOUND: [f64; 4] = [1e-3, 5e-3, 1e-3, 1e-4];

    let (_, reference) = four_square_cycle(true);
    for ((phase, e), golden) in PHASES.iter().zip(reference).zip(REFERENCE) {
        let drift = e / golden - 1.0;
        assert!(
            drift.abs() <= 1e-8,
            "{phase}: reference energy {e:e} J is {drift:+.3e} off its golden {golden:e} J"
        );
    }

    let (_, production) = four_square_cycle(false);
    for (((phase, e), golden), bound) in PHASES.iter().zip(production).zip(REFERENCE).zip(BOUND) {
        let gap = e / golden - 1.0;
        assert!(
            gap.abs() <= bound,
            "{phase}: production energy {e:e} J is {gap:+.3e} off the reference {golden:e} J \
             (bound {bound:e})"
        );
    }
}

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
