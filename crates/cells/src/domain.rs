//! Whole-domain power-gated array: `R × C` cells behind **one shared
//! power switch**.
//!
//! This is the array netlist the figures and the `/simulate` service run
//! when they compare NVPG against the OSR and NOF baselines at array
//! scale: a full power domain whose cells all hang from a single
//! virtual-V_DD rail fed through one header switch sized `N_FSW × cells`,
//! with the wordline, SR and CTRL lines broadcast across the domain and
//! lumped per-column bitlines, each behind one driver resistance and
//! carrying its full `C_BL × rows` loading. Cells and header are the
//! [`crate::array`] layer's, phase runner and recipes the
//! [`crate::engine`]'s; this module adds only the netlist and the bitline
//! discharge/precharge around power-off and restore, so store, shutdown
//! and restore act on the *whole domain at once*.
//!
//! A 64×64 NV domain is ~16 500 MNA unknowns — far beyond dense LU. The
//! analyses here inherit the [`SolverChoice`] passed at construction
//! (default `Auto`, which engages the sparse backend above
//! [`nvpg_circuit::SPARSE_THRESHOLD`] unknowns), so the same builder
//! serves both the dense-vs-sparse differential tests at small sizes and
//! the array-scale benchmarks.

use std::ops::{Deref, DerefMut};

use nvpg_circuit::{Circuit, CircuitError, SolverChoice};

use crate::array::{ArrayBuilder, ArrayPhase, CellArray, CellTaps};
use crate::design::CellDesign;

/// Which architecture the domain implements.
///
/// `Nvpg` and `Nof` share the NV-SRAM netlist (PS-FinFETs + MTJs); they
/// differ only in *when* the caller stores — NVPG stores once per shutdown
/// longer than the break-even time, NOF stores every round. `Osr` is the
/// volatile 6T baseline: it never powers off, standby is the low-voltage
/// sleep mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainKind {
    /// Nonvolatile power gating (NV-SRAM cells, store on long shutdowns).
    Nvpg,
    /// Ordinary volatile SRAM (6T cells, low-voltage sleep, never off).
    Osr,
    /// Normally-off (NV-SRAM cells, store every round).
    Nof,
}

impl DomainKind {
    /// Whether the cells carry MTJs (and hence support store/restore).
    pub fn is_nonvolatile(self) -> bool {
        !matches!(self, DomainKind::Osr)
    }
}

/// An `R × C` power domain behind a single shared power switch.
///
/// The domain is one gating group of a [`CellArray`], so every array
/// probe, phase and recipe is available through `Deref`; the
/// whole-domain [`store`](Self::store), [`shutdown`](Self::shutdown) and
/// [`restore`](Self::restore) add the lumped bitlines' discharge and
/// precharge around the phase engine's power-off and restore.
#[derive(Debug)]
pub struct DomainArray(CellArray);

impl Deref for DomainArray {
    type Target = CellArray;

    fn deref(&self) -> &CellArray {
        &self.0
    }
}

impl DerefMut for DomainArray {
    fn deref_mut(&mut self) -> &mut CellArray {
        &mut self.0
    }
}

impl DomainArray {
    /// Builds a domain holding `pattern(r, c)` with the default (`Auto`)
    /// solver choice. See [`DomainArray::with_solver`].
    ///
    /// # Errors
    ///
    /// Propagates netlist and DC-convergence errors.
    pub fn new(
        design: CellDesign,
        kind: DomainKind,
        rows: usize,
        cols: usize,
        pattern: impl Fn(usize, usize) -> bool,
    ) -> Result<Self, CircuitError> {
        Self::with_solver(design, kind, rows, cols, SolverChoice::Auto, pattern)
    }

    /// Builds a domain holding `pattern(r, c)` in each cell. For
    /// nonvolatile kinds the retention elements start in the
    /// **opposite** pattern, so a subsequent [`store`](DomainArray::store)
    /// genuinely switches every junction. Every analysis on the domain
    /// (including the initial operating point) uses `solver`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] for degenerate specs —
    /// zero `rows`/`cols`, or a domain so large that the shared header's
    /// `N_FSW × cells` fin count no longer fits the FinFET width model —
    /// and otherwise propagates netlist and DC-convergence errors.
    pub fn with_solver(
        design: CellDesign,
        kind: DomainKind,
        rows: usize,
        cols: usize,
        solver: SolverChoice,
        pattern: impl Fn(usize, usize) -> bool,
    ) -> Result<Self, CircuitError> {
        Self::prepare(design, kind, rows, cols, solver, pattern)?
            .solve()
            .map(DomainArray)
    }

    /// Builds the domain netlist and its pattern-seeded DC options
    /// without solving the operating point.
    fn prepare(
        design: CellDesign,
        kind: DomainKind,
        rows: usize,
        cols: usize,
        solver: SolverChoice,
        pattern: impl Fn(usize, usize) -> bool,
    ) -> Result<ArrayBuilder, CircuitError> {
        if rows == 0 || cols == 0 {
            return Err(CircuitError::InvalidValue {
                element: "domain".to_owned(),
                reason: format!("domain dimensions must be nonzero (got {rows}×{cols})"),
            });
        }
        let c = design.conditions;
        let mut a = ArrayBuilder::new(design, kind, rows, cols, solver);

        // Shared rails and broadcast lines.
        let vdd_rail = a.circuit().node("vdd_rail");
        let vvdd = a.circuit().node("vvdd");
        let pg = a.circuit().node("pg");
        let wl = a.circuit().node("wl");
        a.source("vdd", vdd_rail, c.vdd)?;
        a.source("vpg", pg, 0.0)?;
        a.source("vwl", wl, 0.0)?;
        a.gating_group("")?;

        // ONE header switch for the whole domain, N_FSW fins per cell.
        a.header("msw", vvdd, pg, vdd_rail, rows, cols)?;

        // Per-column bitlines: one driver source pair feeds every column
        // through its driver impedance, and each bitline carries the full
        // column loading C_BL × rows.
        let bl_drv = a.circuit().node("bl_drv");
        let blb_drv = a.circuit().node("blb_drv");
        a.source("vbl", bl_drv, c.vdd)?;
        a.source("vblb", blb_drv, c.vdd)?;
        let ckt = a.circuit();
        let gnd = Circuit::GROUND;
        let mut bitlines = Vec::with_capacity(cols);
        for col in 0..cols {
            let b = ckt.node(&format!("bl{col}"));
            let bb = ckt.node(&format!("blb{col}"));
            ckt.resistor(&format!("rbl{col}"), bl_drv, b, design.r_bitline_driver)?;
            ckt.resistor(&format!("rblb{col}"), blb_drv, bb, design.r_bitline_driver)?;
            let c_col = design.c_bitline * rows as f64;
            ckt.capacitor(&format!("cbl{col}"), b, gnd, c_col)?;
            ckt.capacitor(&format!("cblb{col}"), bb, gnd, c_col)?;
            bitlines.push((b, bb));
        }

        a.cells(
            |_, col| CellTaps {
                rail: vvdd,
                wl,
                bl: bitlines[col].0,
                blb: bitlines[col].1,
                group: 0,
            },
            pattern,
        )?;
        a.nodeset(vvdd, c.vdd);
        for &(b, bb) in &bitlines {
            a.nodeset(b, c.vdd);
            a.nodeset(bb, c.vdd);
        }
        Ok(a)
    }

    /// Two-step store of the **whole domain at once**
    /// ([`CellArray::store`]).
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    ///
    /// # Panics
    ///
    /// Panics on an OSR domain (no retention elements to store).
    pub fn store(&mut self) -> Result<ArrayPhase, CircuitError> {
        self.0.store(&[0])
    }

    /// Powers the domain off through the shared switch (super cutoff when
    /// `super_cutoff`) and discharges the bitlines.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    ///
    /// # Panics
    ///
    /// Panics on an OSR domain: per the paper's architecture semantics
    /// the volatile baseline never powers off — use
    /// [`sleep`](CellArray::sleep).
    pub fn shutdown(&mut self, super_cutoff: bool) -> Result<ArrayPhase, CircuitError> {
        let mut total = self.0.shutdown(&[0], super_cutoff)?;
        let discharge = [self.ramp("vbl", 0.0), self.ramp("vblb", 0.0)];
        total += self.phase("discharge", 2e-9, &discharge)?;
        Ok(total)
    }

    /// Whole-domain restore: bitlines precharge, then every cell recovers
    /// its data from the MTJ resistance imbalance at once
    /// ([`CellArray::restore`]).
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    ///
    /// # Panics
    ///
    /// Panics on an OSR domain.
    pub fn restore(&mut self) -> Result<ArrayPhase, CircuitError> {
        self.assert_nv("restore");
        let vdd = self.conditions().vdd;
        let precharge = [self.ramp("vbl", vdd), self.ramp("vblb", vdd)];
        let mut total = self.phase("precharge", 2e-9, &precharge)?;
        total += self.0.restore(&[0])?;
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::checkerboard;
    use nvpg_devices::mtj::MtjState;

    #[test]
    fn nv_domain_builds_and_holds_pattern() {
        let d =
            DomainArray::new(CellDesign::table1(), DomainKind::Nvpg, 2, 2, checkerboard).unwrap();
        assert_eq!(d.dims(), (2, 2));
        assert_eq!(d.cell_count(), 4);
        assert!(d.kind().is_nonvolatile());
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(d.data(r, c), checkerboard(r, c), "cell ({r},{c})");
            }
        }
        // One shared switch, no per-cell ammeters: 4 unknowns per cell
        // plus the shared lines and a handful of source branches.
        assert!(d.unknown_count() < 40, "unknowns = {}", d.unknown_count());
    }

    #[test]
    fn degenerate_specs_surface_typed_errors() {
        for (rows, cols) in [(0, 4), (4, 0), (0, 0)] {
            let err = DomainArray::new(
                CellDesign::table1(),
                DomainKind::Nvpg,
                rows,
                cols,
                checkerboard,
            )
            .unwrap_err();
            match err {
                CircuitError::InvalidValue { element, reason } => {
                    assert_eq!(element, "domain");
                    assert!(reason.contains("nonzero"), "{reason}");
                }
                other => panic!("expected InvalidValue, got {other:?}"),
            }
        }
        // A domain whose header fin count would overflow the u32 width
        // model must error out rather than silently wrap into a weak
        // switch (7 fins/cell × 2^31 cells > u32::MAX).
        let err = DomainArray::prepare(
            CellDesign::table1(),
            DomainKind::Nvpg,
            1 << 16,
            1 << 15,
            SolverChoice::Auto,
            checkerboard,
        )
        .unwrap_err();
        match err {
            CircuitError::InvalidValue { element, reason } => {
                assert_eq!(element, "msw");
                assert!(reason.contains("header fins"), "{reason}");
            }
            other => panic!("expected InvalidValue, got {other:?}"),
        }
    }

    #[test]
    fn osr_domain_has_no_mtj_nodes() {
        let d =
            DomainArray::new(CellDesign::table1(), DomainKind::Osr, 2, 2, checkerboard).unwrap();
        assert!(d.mtj_states(0, 0).is_none());
        assert!(!d.kind().is_nonvolatile());
    }

    #[test]
    fn whole_domain_store_flips_every_mtj() {
        let mut d =
            DomainArray::new(CellDesign::table1(), DomainKind::Nvpg, 2, 2, checkerboard).unwrap();
        d.store().unwrap();
        for r in 0..2 {
            for c in 0..2 {
                let expect = if checkerboard(r, c) {
                    (MtjState::AntiParallel, MtjState::Parallel)
                } else {
                    (MtjState::Parallel, MtjState::AntiParallel)
                };
                assert_eq!(d.mtj_states(r, c), Some(expect), "cell ({r},{c})");
            }
        }
    }

    #[test]
    fn checkerboard_survives_domain_power_cycle() {
        let mut d =
            DomainArray::new(CellDesign::table1(), DomainKind::Nvpg, 2, 2, checkerboard).unwrap();
        let store = d.store().unwrap();
        assert!(store.energy.0 > 0.0);
        d.shutdown(true).unwrap();
        d.hold(100e-9).unwrap();
        d.restore().unwrap();
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(
                    d.data(r, c),
                    checkerboard(r, c),
                    "cell ({r},{c}) after power cycle"
                );
            }
        }
    }

    #[test]
    fn osr_domain_retains_data_through_sleep() {
        let mut d =
            DomainArray::new(CellDesign::table1(), DomainKind::Osr, 2, 2, checkerboard).unwrap();
        d.sleep().unwrap();
        d.hold(50e-9).unwrap();
        d.wake().unwrap();
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(
                    d.data(r, c),
                    checkerboard(r, c),
                    "cell ({r},{c}) after sleep"
                );
            }
        }
    }

    #[test]
    fn sparse_solver_reaches_the_same_pattern() {
        let dense = DomainArray::with_solver(
            CellDesign::table1(),
            DomainKind::Nvpg,
            2,
            2,
            SolverChoice::Dense,
            checkerboard,
        )
        .unwrap();
        let sparse = DomainArray::with_solver(
            CellDesign::table1(),
            DomainKind::Nvpg,
            2,
            2,
            SolverChoice::Sparse,
            checkerboard,
        )
        .unwrap();
        assert_eq!(dense.pattern(), sparse.pattern());
    }

    #[test]
    #[should_panic(expected = "no retention elements to store")]
    fn store_on_osr_panics() {
        let mut d =
            DomainArray::new(CellDesign::table1(), DomainKind::Osr, 2, 2, checkerboard).unwrap();
        let _ = d.store();
    }
}
