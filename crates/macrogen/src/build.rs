//! Macro netlist construction and phase sequencing.
//!
//! [`MacroBuilder::prepare`] emits the full macro netlist — cell array
//! plus periphery — on the `nvpg-cells` array layer, and
//! [`MacroBuilder::solve`] settles the normal-mode operating point,
//! yielding an [`NvMacro`]. The array layer and its phase engine supply
//! the cells, headers, probes and gating-group recipes (store,
//! power-off, restore, sleep, wake) through `Deref`; the macro adds only
//! its periphery, [`NvMacro::element_bias`] and [`NvMacro::access_read`].
//!
//! ## Netlist topology
//!
//! * **Cell array** — the array layer's cell (6T core, PS-FinFETs, retention
//!   elements via the design's
//!   [`RetentionKind`](nvpg_cells::design::RetentionKind)), each hung
//!   from its gating group's virtual rail, its wordline tap and its
//!   bitline row tap.
//! * **Headers** — one high-V_th pFinFET per gating group, sized
//!   `N_FSW × cells-in-group`, gated by a per-group `vpg{g}` source. NV
//!   groups get their own `vsr{g}`/`vctrl{g}` broadcast pair so banks
//!   store and restore independently.
//! * **Row path** — per row, a 3-inverter decoder/driver chain (input
//!   high = deselected, wordline low) feeding a distributed wordline RC
//!   ladder with one tap per column.
//! * **Column path** — per column, a distributed bitline RC ladder (one
//!   tap per row, `C_BL` per cell), precharge + equalise pFinFETs, and
//!   column-mux pass nFinFETs onto the shared sense lines.
//! * **Sense/write** — per mux group, a latch-type sense amp
//!   (cross-coupled pair behind sense-enable header/footer switches) and
//!   nFinFET write pulldowns on the sense lines.
//! * **Replica column** — a cell-less bitline ladder with its own
//!   precharge and a replica-enable pulldown, for sense-timing studies.

use std::ops::{Deref, DerefMut};

use nvpg_cells::array::{ArrayBuilder, ArrayPhase, CellArray, CellTaps};
use nvpg_circuit::{Circuit, CircuitError, NodeId, SolverChoice, Waveform};
use nvpg_devices::finfet::FinFet;

use crate::spec::MacroSpec;

/// Wordline segment resistance per cell pitch (Ω).
const R_WL_SEGMENT: f64 = 50.0;
/// Wordline segment capacitance per cell pitch (F).
const C_WL_SEGMENT: f64 = 0.2e-15;
/// Bitline segment resistance per cell pitch (Ω).
const R_BL_SEGMENT: f64 = 20.0;
/// Wordline driver (third decoder stage) fin count.
const WL_DRIVER_FINS: u32 = 2;

/// A fully-built macro netlist whose operating point has not been solved
/// yet (the array layer's [`ArrayBuilder`] plus the spec it was built
/// from).
#[derive(Debug)]
pub struct MacroBuilder {
    array: ArrayBuilder,
    spec: MacroSpec,
}

impl MacroBuilder {
    /// Builds the macro netlist and pattern-seeded DC options without
    /// solving.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] for degenerate specs (see
    /// [`MacroSpec::validate`]) or a gating group too large for its
    /// header's fin count, and otherwise propagates netlist errors.
    pub fn prepare(
        spec: MacroSpec,
        solver: SolverChoice,
        pattern: impl Fn(usize, usize) -> bool,
    ) -> Result<MacroBuilder, CircuitError> {
        spec.validate()?;
        let design = spec.design;
        let c = design.conditions;
        let gnd = Circuit::GROUND;
        let mut a = ArrayBuilder::new(design, spec.kind, spec.rows, spec.cols, solver);

        // Always-on rail powering the periphery and feeding the headers.
        let vdd_rail = a.circuit().node("vdd_rail");
        a.source("vdd", vdd_rail, c.vdd)?;

        // Per-group headers and (NV) store/restore broadcast lines.
        let mut vvdd = Vec::with_capacity(spec.groups());
        for g in 0..spec.groups() {
            let pg = a.circuit().node(&format!("pg{g}"));
            let rail = a.circuit().node(&format!("vvdd{g}"));
            a.source(&format!("vpg{g}"), pg, 0.0)?;
            let rows = spec.group_rows(g).len();
            a.header(&format!("msw{g}"), rail, pg, vdd_rail, rows, spec.cols)?;
            a.gating_group(&g.to_string())?;
            vvdd.push(rail);
        }

        // Row-select inputs: the active row (row 0) has its own source,
        // every other row shares the deselect line. Inputs are active-low
        // through the 3-stage chain (input high ⇒ wordline low).
        let rowsel = a.circuit().node("rowsel");
        let rowoff = a.circuit().node("rowoff");
        a.source("vrowsel", rowsel, c.vdd)?;
        a.source("vrowoff", rowoff, c.vdd)?;

        // Shared periphery control lines.
        let pre = a.circuit().node("pre");
        a.source("vpre", pre, 0.0)?; // active low: on
        let mut ysel = Vec::with_capacity(spec.mux);
        for j in 0..spec.mux {
            let y = a.circuit().node(&format!("y{j}"));
            // Column 0 of each mux group starts selected.
            a.source(&format!("vy{j}"), y, if j == 0 { c.vdd } else { 0.0 })?;
            ysel.push(y);
        }
        let saeb = a.circuit().node("saeb");
        let sae = a.circuit().node("sae");
        a.source("vsaeb", saeb, c.vdd)?; // SA disabled
        a.source("vsae", sae, 0.0)?;
        let wd = a.circuit().node("wd");
        let wdb = a.circuit().node("wdb");
        a.source("vwd", wd, 0.0)?;
        a.source("vwdb", wdb, 0.0)?;
        let rble = a.circuit().node("rble");
        a.source("vrble", rble, 0.0)?;

        let ckt = a.circuit();
        let inv_p = design.pmos.with_fins(1);
        let inv_n = design.nmos.with_fins(1);
        let drv_p = design.pmos.with_fins(WL_DRIVER_FINS);
        let drv_n = design.nmos.with_fins(WL_DRIVER_FINS);
        let inverter = |ckt: &mut Circuit,
                        tag: &str,
                        input: NodeId,
                        out: NodeId,
                        p: nvpg_devices::finfet::FinFetParams,
                        n: nvpg_devices::finfet::FinFetParams|
         -> Result<(), CircuitError> {
            ckt.device(Box::new(FinFet::new(
                format!("mp_{tag}"),
                out,
                input,
                vdd_rail,
                p,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("mn_{tag}"),
                out,
                input,
                gnd,
                n,
            )))?;
            Ok(())
        };

        // Row decoder/driver chains and wordline ladders.
        let mut wl_taps: Vec<Vec<NodeId>> = Vec::with_capacity(spec.rows);
        for r in 0..spec.rows {
            let input = if r == 0 { rowsel } else { rowoff };
            let d1 = ckt.node(&format!("dec1_r{r}"));
            let d2 = ckt.node(&format!("dec2_r{r}"));
            let head = ckt.node(&format!("wlh_r{r}"));
            inverter(ckt, &format!("dec1_r{r}"), input, d1, inv_p, inv_n)?;
            inverter(ckt, &format!("dec2_r{r}"), d1, d2, inv_p, inv_n)?;
            inverter(ckt, &format!("wld_r{r}"), d2, head, drv_p, drv_n)?;
            let mut taps = Vec::with_capacity(spec.cols);
            let mut prev = head;
            for col in 0..spec.cols {
                let tap = ckt.node(&format!("wl_r{r}c{col}"));
                ckt.resistor(&format!("rwl_r{r}c{col}"), prev, tap, R_WL_SEGMENT)?;
                ckt.capacitor(&format!("cwl_r{r}c{col}"), tap, gnd, C_WL_SEGMENT)?;
                taps.push(tap);
                prev = tap;
            }
            wl_taps.push(taps);
        }

        // Column bitline ladders, precharge/equalise and column mux.
        let mut bl_taps: Vec<Vec<NodeId>> = Vec::with_capacity(spec.cols);
        let mut blb_taps: Vec<Vec<NodeId>> = Vec::with_capacity(spec.cols);
        let mut sa_lines = Vec::with_capacity(spec.cols / spec.mux);
        for gm in 0..spec.cols / spec.mux {
            let sa = ckt.node(&format!("sa{gm}"));
            let sab = ckt.node(&format!("sab{gm}"));
            sa_lines.push((sa, sab));
        }
        let pre_p = design.pmos.with_fins(2);
        let mux_n = design.nmos.with_fins(2);
        for col in 0..spec.cols {
            let top = ckt.node(&format!("bl_c{col}t"));
            let topb = ckt.node(&format!("blb_c{col}t"));
            ckt.device(Box::new(FinFet::new(
                format!("mpc_c{col}"),
                top,
                pre,
                vdd_rail,
                pre_p,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("mpcb_c{col}"),
                topb,
                pre,
                vdd_rail,
                pre_p,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("mpeq_c{col}"),
                top,
                pre,
                topb,
                pre_p,
            )))?;
            let (sa, sab) = sa_lines[col / spec.mux];
            let y = ysel[col % spec.mux];
            ckt.device(Box::new(FinFet::new(
                format!("mmux_c{col}"),
                top,
                y,
                sa,
                mux_n,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("mmuxb_c{col}"),
                topb,
                y,
                sab,
                mux_n,
            )))?;
            let mut taps = Vec::with_capacity(spec.rows);
            let mut tapsb = Vec::with_capacity(spec.rows);
            let (mut prev, mut prevb) = (top, topb);
            for r in 0..spec.rows {
                let t = ckt.node(&format!("bl_c{col}r{r}"));
                let tb = ckt.node(&format!("blb_c{col}r{r}"));
                ckt.resistor(&format!("rbl_c{col}r{r}"), prev, t, R_BL_SEGMENT)?;
                ckt.resistor(&format!("rblb_c{col}r{r}"), prevb, tb, R_BL_SEGMENT)?;
                ckt.capacitor(&format!("cbl_c{col}r{r}"), t, gnd, design.c_bitline)?;
                ckt.capacitor(&format!("cblb_c{col}r{r}"), tb, gnd, design.c_bitline)?;
                taps.push(t);
                tapsb.push(tb);
                prev = t;
                prevb = tb;
            }
            bl_taps.push(taps);
            blb_taps.push(tapsb);
        }

        // Sense amps and write drivers, one per mux group.
        for (gm, &(sa, sab)) in sa_lines.iter().enumerate() {
            let sap = ckt.node(&format!("sap{gm}"));
            let san = ckt.node(&format!("san{gm}"));
            ckt.device(Box::new(FinFet::new(
                format!("msah_{gm}"),
                sap,
                saeb,
                vdd_rail,
                pre_p,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("msaf_{gm}"),
                san,
                sae,
                gnd,
                mux_n,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("msapl_{gm}"),
                sa,
                sab,
                sap,
                inv_p,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("msapr_{gm}"),
                sab,
                sa,
                sap,
                inv_p,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("msanl_{gm}"),
                sa,
                sab,
                san,
                inv_n,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("msanr_{gm}"),
                sab,
                sa,
                san,
                inv_n,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("mwd_{gm}"),
                sa,
                wd,
                gnd,
                mux_n,
            )))?;
            ckt.device(Box::new(FinFet::new(
                format!("mwdb_{gm}"),
                sab,
                wdb,
                gnd,
                mux_n,
            )))?;
        }

        // Replica-timing bitline: a cell-less ladder with full column
        // loading, its own precharge, and a replica-enable pulldown at the
        // far end.
        let rbl_top = ckt.node("rbl_t");
        ckt.device(Box::new(FinFet::new(
            "mpc_rbl", rbl_top, pre, vdd_rail, pre_p,
        )))?;
        let mut prev = rbl_top;
        for r in 0..spec.rows {
            let t = ckt.node(&format!("rbl_r{r}"));
            ckt.resistor(&format!("rrbl_r{r}"), prev, t, R_BL_SEGMENT)?;
            ckt.capacitor(&format!("crbl_r{r}"), t, gnd, design.c_bitline)?;
            prev = t;
        }
        ckt.device(Box::new(FinFet::new("mrble", prev, rble, gnd, mux_n)))?;

        a.cells(
            |row, col| {
                let g = spec.group_of_row(row);
                CellTaps {
                    rail: vvdd[g],
                    wl: wl_taps[row][col],
                    bl: bl_taps[col][row],
                    blb: blb_taps[col][row],
                    group: g,
                }
            },
            pattern,
        )?;

        // Operating-point seeding beyond the cells' pattern: rails up,
        // bitlines and sense lines precharged (wordlines start low).
        for &rail in &vvdd {
            a.nodeset(rail, c.vdd);
        }
        for (taps, tapsb) in bl_taps.iter().zip(&blb_taps) {
            for (&t, &tb) in taps.iter().zip(tapsb) {
                a.nodeset(t, c.vdd);
                a.nodeset(tb, c.vdd);
            }
        }
        for &(sa, sab) in &sa_lines {
            a.nodeset(sa, c.vdd);
            a.nodeset(sab, c.vdd);
        }
        Ok(MacroBuilder { array: a, spec })
    }

    /// Consumes the builder, returning the bare netlist (registry decks).
    pub fn into_circuit(self) -> Circuit {
        self.array.into_circuit()
    }

    /// Solves the operating point serially and finishes the macro.
    ///
    /// # Errors
    ///
    /// Propagates DC non-convergence.
    pub fn solve(self) -> Result<NvMacro, CircuitError> {
        let spec = self.spec;
        self.array.solve().map(|array| NvMacro { array, spec })
    }

    /// Consumes the builder, returning the array layer's prepared netlist —
    /// for [`ArrayBuilder::solve_batch`], which settles many same-topology
    /// macros on one shared Newton workspace.
    pub fn into_array(self) -> ArrayBuilder {
        self.array
    }
}

/// A solved macro: cell array + periphery. Every [`CellArray`] probe,
/// phase and gating-group recipe is available through `Deref`.
#[derive(Debug)]
pub struct NvMacro {
    array: CellArray,
    spec: MacroSpec,
}

impl Deref for NvMacro {
    type Target = CellArray;

    fn deref(&self) -> &CellArray {
        &self.array
    }
}

impl DerefMut for NvMacro {
    fn deref_mut(&mut self) -> &mut CellArray {
        &mut self.array
    }
}

impl NvMacro {
    /// Builds and solves a macro holding `pattern(r, c)` with the default
    /// (`Auto`) solver choice.
    ///
    /// # Errors
    ///
    /// Propagates spec-validation, netlist and DC-convergence errors.
    pub fn new(
        spec: MacroSpec,
        pattern: impl Fn(usize, usize) -> bool,
    ) -> Result<Self, CircuitError> {
        MacroBuilder::prepare(spec, SolverChoice::Auto, pattern)?.solve()
    }

    /// Builds and solves with an explicit solver choice.
    ///
    /// # Errors
    ///
    /// Propagates spec-validation, netlist and DC-convergence errors.
    pub fn with_solver(
        spec: MacroSpec,
        solver: SolverChoice,
        pattern: impl Fn(usize, usize) -> bool,
    ) -> Result<Self, CircuitError> {
        MacroBuilder::prepare(spec, solver, pattern)?.solve()
    }

    /// The macro specification.
    pub fn spec(&self) -> &MacroSpec {
        &self.spec
    }

    /// Terminal bias (V) across cell `(row, col)`'s Q-side retention
    /// element in the current state, `v(ctrl) − v(ml)` — the disturb
    /// drive the technology's retention model takes.
    pub fn element_bias(&self, row: usize, col: usize) -> Option<f64> {
        if !self.spec.kind.is_nonvolatile() {
            return None;
        }
        let g = self.spec.group_of_row(row);
        let ctrl = self.circuit().find_node(&format!("ctrl{g}"))?;
        let ml = self.circuit().find_node(&format!("ml_r{row}c{col}"))?;
        Some(self.state().voltage(ctrl) - self.state().voltage(ml))
    }

    /// Pulses the selected row's wordline (a read access): row select
    /// drops, sense amps fire, then everything returns to normal-mode
    /// levels. Returns the access energy — the wake-on-access cost input
    /// for partial-shutdown policies.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn access_read(&mut self) -> Result<ArrayPhase, CircuitError> {
        let c = self.spec.design.conditions;
        let t = c.cycle_time();
        let e = c.edge_time;
        // Row select is active-low into the 3-stage chain.
        let sel = Waveform::Pwl(vec![
            (0.0, c.vdd),
            (e, 0.0),
            (0.6 * t, 0.0),
            (0.6 * t + e, c.vdd),
        ]);
        // Precharge releases while the wordline is up, sense amp fires in
        // the second half of the cycle.
        let pre = Waveform::Pwl(vec![
            (0.0, 0.0),
            (e, c.vdd),
            (0.7 * t, c.vdd),
            (0.7 * t + e, 0.0),
        ]);
        let sae = Waveform::Pwl(vec![
            (0.4 * t, 0.0),
            (0.4 * t + e, c.vdd),
            (0.7 * t, c.vdd),
            (0.7 * t + e, 0.0),
        ]);
        let saeb = Waveform::Pwl(vec![
            (0.4 * t, c.vdd),
            (0.4 * t + e, 0.0),
            (0.7 * t, 0.0),
            (0.7 * t + e, c.vdd),
        ]);
        let rble = Waveform::Pwl(vec![
            (0.0, 0.0),
            (e, c.vdd),
            (0.7 * t, c.vdd),
            (0.7 * t + e, 0.0),
        ]);
        self.phase(
            "read",
            t,
            &[
                ("vrowsel", sel),
                ("vpre", pre),
                ("vsae", sae),
                ("vsaeb", saeb),
                ("vrble", rble),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Granularity;
    use nvpg_cells::array::checkerboard;

    #[test]
    fn small_macro_builds_and_holds_pattern() {
        let spec = MacroSpec::new(4, 4, 2).with_granularity(Granularity::PerRow);
        let m = NvMacro::new(spec, checkerboard).unwrap();
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(m.data(r, c), checkerboard(r, c), "cell ({r},{c})");
            }
        }
        assert!(m.min_storage_margin() > 0.5);
        assert!(m.static_power() > 0.0);
        // Cells + periphery: comfortably more unknowns than the bare
        // 4×4 DomainArray (~70).
        assert!(m.unknown_count() > 150, "unknowns = {}", m.unknown_count());
    }

    #[test]
    fn degenerate_specs_error_out() {
        let err = NvMacro::new(MacroSpec::new(0, 4, 2), checkerboard).unwrap_err();
        assert!(matches!(err, CircuitError::InvalidValue { .. }));
        // A group whose header fin count would overflow the u32 width
        // model (7 fins/cell × 2^31 cells) is refused before any cell is
        // stamped, not wrapped into a weak switch.
        let spec = MacroSpec::new(1 << 16, 1 << 15, 1);
        match MacroBuilder::prepare(spec, SolverChoice::Auto, checkerboard).unwrap_err() {
            CircuitError::InvalidValue { element, reason } => {
                assert_eq!(element, "msw");
                assert!(reason.contains("header fins"), "{reason}");
            }
            other => panic!("expected InvalidValue, got {other:?}"),
        }
    }

    #[test]
    fn row_serialised_store_costs_the_characterised_cell_energy() {
        // The per-cell composition's premise: storing and gating a
        // per-row macro one row at a time costs each cell about the
        // characterised single-cell store (the waiting rows' static power
        // is small here).
        let spec = MacroSpec::new(2, 2, 1).with_granularity(Granularity::PerRow);
        let ch = nvpg_cells::characterize::characterize(&spec.design).unwrap();
        let mut m = NvMacro::new(spec, |_, _| true).unwrap();
        let mut energy = 0.0;
        for g in 0..spec.groups() {
            energy += m.store(&[g]).unwrap().energy.value();
            energy += m.shutdown(&[g], true).unwrap().energy.value();
        }
        let ratio = energy / m.cell_count() as f64 / ch.e_store;
        assert!(
            (0.3..3.0).contains(&ratio),
            "macro per-cell store vs single-cell {:e} (ratio {ratio:.3})",
            ch.e_store
        );
    }

    #[test]
    #[should_panic(expected = "gating group 5 out of range")]
    fn group_recipes_bounds_check_the_group() {
        let spec = MacroSpec::new(2, 2, 1).with_granularity(Granularity::PerRow);
        let mut m = NvMacro::new(spec, checkerboard).unwrap();
        let _ = m.store(&[5]);
    }

    #[test]
    fn partial_bank_power_cycle_preserves_both_halves() {
        // 4×4, two banks: gate bank 0 only; bank 1 stays up. After
        // restore, both banks hold the original pattern.
        let spec = MacroSpec::new(4, 4, 2).with_granularity(Granularity::PerBank(2));
        let mut m = NvMacro::new(spec, checkerboard).unwrap();
        m.store(&[0]).unwrap();
        m.shutdown(&[0], true).unwrap();
        m.hold(20e-9).unwrap();
        // The awake bank keeps its data while bank 0 is dark.
        for r in 2..4 {
            for c in 0..4 {
                assert_eq!(m.data(r, c), checkerboard(r, c), "awake cell ({r},{c})");
            }
        }
        m.restore(&[0]).unwrap();
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(m.data(r, c), checkerboard(r, c), "cell ({r},{c})");
            }
        }
    }

    #[test]
    fn access_read_runs_and_costs_energy() {
        let spec = MacroSpec::new(4, 4, 2);
        let mut m = NvMacro::new(spec, checkerboard).unwrap();
        let p = m.access_read().unwrap();
        assert!(p.energy.value() > 0.0);
        // The access must not corrupt any cell.
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(m.data(r, c), checkerboard(r, c), "cell ({r},{c})");
            }
        }
    }
}
