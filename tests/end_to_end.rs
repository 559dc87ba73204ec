//! Cross-crate end-to-end tests: device models → circuit simulator →
//! cell operations → architecture analysis, exercised as one stack.

use nvpg::cells::bench::CellBench;
use nvpg::cells::cell::{CellKind, MtjConfig};
use nvpg::cells::design::CellDesign;
use nvpg::core::sequence::{run_sequence, SequenceParams};
use nvpg::core::Architecture;
use nvpg::devices::mtj::MtjState;

/// Nonvolatile data survival: both data values survive a full
/// store → power-off → restore cycle, starting from *opposite* MTJ
/// patterns (so every junction must genuinely switch).
#[test]
fn data_survives_power_cycle_both_values() {
    for data in [true, false] {
        let design = CellDesign::table1();
        let mut bench = CellBench::new(design, CellKind::NvSram, data, MtjConfig::stored(!data))
            .expect("cell builds");
        bench.store().expect("store");
        assert_eq!(
            bench.mtj_states(),
            Some(match data {
                true => (MtjState::AntiParallel, MtjState::Parallel),
                false => (MtjState::Parallel, MtjState::AntiParallel),
            }),
            "MTJ pattern after storing data = {data}"
        );
        bench.shutdown_enter(true, 3e-9).expect("shutdown");
        bench.idle(400e-9).expect("collapse");
        let (q, qb) = bench.storage_voltages();
        assert!(
            q < 0.2 && qb < 0.2,
            "volatile state must collapse: q = {q}, qb = {qb}"
        );
        bench.restore().expect("restore");
        assert_eq!(bench.data(), data, "restored data must equal stored data");
    }
}

/// Failure injection: an under-driven store (V_SR far below design)
/// leaves the MTJs unswitched, and the subsequent restore brings back
/// the *old* (stale) contents — exactly the failure a designer must
/// guard against when shaving the store margin.
#[test]
fn underdriven_store_fails_and_restores_stale_data() {
    let mut design = CellDesign::table1();
    design.conditions.v_sr = 0.30; // ≈ 0.25×I_C drive: cannot switch
                                   // Cell holds Q = 1 but the MTJs hold the *old* Q = 0 pattern.
    let mut bench = CellBench::new(design, CellKind::NvSram, true, MtjConfig::stored(false))
        .expect("cell builds");
    bench.store().expect("store transient converges");
    // The junctions must NOT have switched.
    assert_eq!(
        bench.mtj_states(),
        Some((MtjState::Parallel, MtjState::AntiParallel)),
        "under-driven store must leave MTJs unswitched"
    );
    bench.shutdown_enter(true, 3e-9).expect("shutdown");
    bench.idle(400e-9).expect("collapse");
    bench.restore().expect("restore");
    assert!(!bench.data(), "restore recovers the stale (old) data");
}

/// The volatile 6T cell cannot survive a power-off: after the rail
/// collapses and returns, the state is whatever the power-up race gives
/// — there is no mechanism tying it to the old data. (We assert only
/// that the stored charge is really gone at the collapsed point.)
#[test]
fn volatile_cell_loses_state_on_power_off() {
    let design = CellDesign::table1();
    let mut bench = CellBench::new(design, CellKind::Volatile6T, true, MtjConfig::stored(true))
        .expect("cell builds");
    assert!(bench.data());
    bench.shutdown_enter(true, 3e-9).expect("shutdown");
    bench.idle(500e-9).expect("collapse");
    let (q, qb) = bench.storage_voltages();
    assert!(q < 0.2 && qb < 0.2, "no retention without MTJs: {q}, {qb}");
}

/// Consistency between the two evaluation paths: the closed-form
/// composition and the actual cell-level transient sequence must agree
/// on the energy of a small NVPG benchmark (single-cell domain), within
/// the tolerance set by mode-transition energies that the composition
/// deliberately folds away.
#[test]
fn composition_agrees_with_simulated_sequence() {
    use nvpg::core::{BenchmarkParams, EnergyModel, PowerDomain};

    let design = CellDesign::table1();
    let ch = nvpg::cells::characterize::characterize(&design).expect("characterise");
    let model = EnergyModel::new(ch);

    let seq = SequenceParams {
        n_rw: 2,
        t_sl: 50e-9,
        t_sd: 100e-9,
    };
    let run = run_sequence(&design, Architecture::Nvpg, &seq).expect("sequence");

    let params = BenchmarkParams {
        n_rw: 2,
        t_sl: 50e-9,
        t_sd: 100e-9,
        domain: PowerDomain::new(1, 1), // single cell: no serial waits
        reads_per_write: 1,
        store_free: false,
    };
    let composed = model.e_cyc(Architecture::Nvpg, &params).0;
    let simulated = run.energy.0;
    let ratio = simulated / composed;
    assert!(
        (0.6..1.8).contains(&ratio),
        "simulated {simulated:e} vs composed {composed:e} (ratio {ratio:.2})"
    );
}

/// The NOF sequence's measured energy exceeds NVPG's for the same work,
/// and both exceed OSR's (which does no store at all) — the Fig. 6
/// ordering, from real transients.
#[test]
fn sequence_energy_ordering_matches_fig6() {
    let p = SequenceParams {
        n_rw: 2,
        t_sl: 20e-9,
        t_sd: 50e-9,
    };
    let design = CellDesign::table1();
    let osr = run_sequence(&design, Architecture::Osr, &p).expect("OSR");
    let nvpg = run_sequence(&design, Architecture::Nvpg, &p).expect("NVPG");
    let nof = run_sequence(&design, Architecture::Nof, &p).expect("NOF");
    assert!(
        nof.energy.0 > nvpg.energy.0,
        "NOF {} vs NVPG {}",
        nof.energy,
        nvpg.energy
    );
    assert!(
        nvpg.energy.0 > osr.energy.0,
        "short-shutdown NVPG {} must exceed OSR {} (below BET)",
        nvpg.energy,
        osr.energy
    );
}
