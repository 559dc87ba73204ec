//! The workload shared by the solver-counter and tracing-overhead gates.

use nvpg_cells::cell::{build_cell, CellKind, MtjConfig};
use nvpg_cells::design::CellDesign;
use nvpg_cells::engine::StepPolicy;
use nvpg_circuit::dc::operating_point;
use nvpg_circuit::transient::transient;
use nvpg_circuit::{Circuit, StepStats};

/// The 100 ns hold transient of the Table I NV-SRAM cell storing `1`,
/// from its own DC operating point, under the cell step policy every
/// production cell phase runs with.
pub fn nvsram_hold_transient() -> StepStats {
    let design = CellDesign::table1();
    let mut ckt = Circuit::new();
    let nodes = build_cell(&mut ckt, &design, CellKind::NvSram, MtjConfig::stored(true)).unwrap();
    let op = operating_point(&mut ckt, &nodes.hold_options(design.conditions.vdd, true)).unwrap();
    transient(&mut ckt, &StepPolicy::Cell.options(100e-9), &op)
        .unwrap()
        .steps
}
