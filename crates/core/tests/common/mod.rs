//! The workload shared by the solver-counter and tracing-overhead gates.

use nvpg_cells::cell::{build_cell, CellKind, MtjConfig};
use nvpg_cells::design::CellDesign;
use nvpg_circuit::dc::{operating_point, DcOptions};
use nvpg_circuit::transient::{transient, TransientOptions};
use nvpg_circuit::{Circuit, StepStats};

/// The 100 ns hold transient of the Table I NV-SRAM cell storing `1`,
/// from its own DC operating point, with the knobs `CellBench::phase`
/// runs production figures with.
pub fn nvsram_hold_transient() -> StepStats {
    let design = CellDesign::table1();
    let mut ckt = Circuit::new();
    let nodes = build_cell(&mut ckt, &design, CellKind::NvSram, MtjConfig::stored(true)).unwrap();
    let dc_opts = DcOptions::default()
        .with_nodeset(nodes.q, 0.9)
        .with_nodeset(nodes.qb, 0.0)
        .with_nodeset(nodes.vvdd, 0.9)
        .with_nodeset(nodes.bl, 0.9)
        .with_nodeset(nodes.blb, 0.9);
    let op = operating_point(&mut ckt, &dc_opts).unwrap();
    let topts = TransientOptions {
        t_stop: 100e-9,
        dt_max: 2e-9,
        dt_init: 1e-12,
        device_bypass_tol: 1e-6,
        ..TransientOptions::default()
    };
    transient(&mut ckt, &topts, &op).unwrap().steps
}
