//! The array layer every simulated NV-SRAM array is built on.
//!
//! A netlist builder — the whole-domain
//! [`DomainArray`](crate::domain::DomainArray) or the periphery-complete
//! macro of `nvpg-macro` — lays out its own rails, wordlines, bitlines
//! and periphery on an [`ArrayBuilder`], stamps its headers and gating
//! groups, and places every cell with [`ArrayBuilder::cells`]. The solved
//! [`CellArray`] runs on the same [`crate::engine`] phase engine as the
//! single cell and the flip-flop, under the array step policy: store,
//! power-off and restore address the engine's **gating groups** (one
//! header and, for the nonvolatile kinds, one SR/CTRL pair per group), and
//! every phase is folded into an [`ArrayPhase`] as it finishes, so an
//! array never holds two phase traces at once.

use std::ops::AddAssign;

use nvpg_circuit::dc::{operating_point, DcOptions};
use nvpg_circuit::{Circuit, CircuitError, DcSolution, NodeId, SolverChoice, StepStats, Waveform};
use nvpg_devices::finfet::FinFet;
use nvpg_devices::mtj::MtjState;
use nvpg_units::{Joules, Seconds};

use crate::design::{CellDesign, OperatingConditions};
use crate::domain::DomainKind;
use crate::engine::{GatingGroup, PhaseEngine, PhaseResult, StepPolicy};

/// Energy and duration of one phase, or of an operation's phases summed:
/// the trace-free result of array and flip-flop operations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ArrayPhase {
    /// Total energy delivered by every source during the phase.
    pub energy: Joules,
    /// Phase duration.
    pub duration: Seconds,
}

impl AddAssign for ArrayPhase {
    fn add_assign(&mut self, other: ArrayPhase) {
        self.energy += other.energy;
        self.duration += other.duration;
    }
}

impl From<PhaseResult> for ArrayPhase {
    fn from(phase: PhaseResult) -> Self {
        ArrayPhase {
            energy: phase.energy,
            duration: phase.duration,
        }
    }
}

impl Extend<PhaseResult> for ArrayPhase {
    fn extend<I: IntoIterator<Item = PhaseResult>>(&mut self, phases: I) {
        for phase in phases {
            *self += phase.into();
        }
    }
}

/// The seed data pattern of the array scans, tests and benchmarks: a
/// checkerboard, so both cell polarities and both retention states
/// appear.
pub fn checkerboard(r: usize, c: usize) -> bool {
    (r + c).is_multiple_of(2)
}

/// The nodes one cell hangs from in its builder's netlist.
#[derive(Debug, Clone, Copy)]
pub struct CellTaps {
    /// Virtual-V_DD rail behind the cell's gating-group header.
    pub rail: NodeId,
    /// Wordline tap driving both access transistors.
    pub wl: NodeId,
    /// Q-side bitline tap.
    pub bl: NodeId,
    /// QB-side bitline tap.
    pub blb: NodeId,
    /// Gating group whose SR/CTRL pair drives the cell's retention path.
    pub group: usize,
}

/// Storage-node handles of one cell.
#[derive(Debug, Clone, Copy)]
struct Latch {
    q: NodeId,
    qb: NodeId,
}

/// An array netlist under construction and, once its cells are placed,
/// the prepared netlist whose operating point is not solved yet.
///
/// A builder creates its own nodes and periphery through
/// [`circuit`](Self::circuit) and registers every source a phase may
/// drive with [`source`](Self::source); the supply must be the source
/// named `vdd`. Headers, gating groups and cells are stamped in whatever
/// order the builder's netlist needs: node and device order fix the MNA
/// layout, so they are part of each builder's answer.
///
/// [`solve`](Self::solve) settles the operating point and finishes the
/// array.
#[derive(Debug)]
pub struct ArrayBuilder {
    ckt: Circuit,
    opts: DcOptions,
    design: CellDesign,
    kind: DomainKind,
    rows: usize,
    cols: usize,
    groups: Vec<GatingGroup>,
    cells: Vec<Vec<Latch>>,
    sources: Vec<String>,
}

impl ArrayBuilder {
    /// Starts an empty netlist for `rows × cols` cells of `kind`; every
    /// analysis on the array, the initial operating point included, uses
    /// `solver`.
    pub fn new(
        design: CellDesign,
        kind: DomainKind,
        rows: usize,
        cols: usize,
        solver: SolverChoice,
    ) -> Self {
        ArrayBuilder {
            ckt: Circuit::new(),
            opts: DcOptions {
                solver,
                ..DcOptions::default()
            },
            design,
            kind,
            rows,
            cols,
            groups: Vec::new(),
            cells: Vec::new(),
            sources: Vec::new(),
        }
    }

    /// The circuit under construction, for the builder's own lines and
    /// periphery.
    pub fn circuit(&mut self) -> &mut Circuit {
        &mut self.ckt
    }

    /// Adds a DC voltage source from `node` to ground at `level`, tracked
    /// for phase continuity and energy accounting.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors (duplicate name).
    pub fn source(&mut self, name: &str, node: NodeId, level: f64) -> Result<(), CircuitError> {
        self.ckt.vsource(name, node, Circuit::GROUND, level)?;
        self.sources.push(name.to_owned());
        Ok(())
    }

    /// Stamps a gating-group header: one high-V_th pFinFET from `supply`
    /// to `rail`, gated by `gate`, with `N_FSW` fins per cell of the
    /// `rows × cols` block it powers.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidValue`] on element `msw` when the block is
    /// so large that the header's fin count no longer fits the FinFET
    /// width model (it would otherwise wrap into a *weaker* switch than a
    /// single cell's); netlist errors otherwise.
    pub fn header(
        &mut self,
        name: &str,
        rail: NodeId,
        gate: NodeId,
        supply: NodeId,
        rows: usize,
        cols: usize,
    ) -> Result<(), CircuitError> {
        let n_fsw = self.design.fins_power_switch;
        let cells = rows
            .checked_mul(cols)
            .filter(|&n| n <= (u32::MAX / n_fsw.max(1)) as usize)
            .ok_or_else(|| CircuitError::InvalidValue {
                element: "msw".to_owned(),
                reason: format!(
                    "{rows}×{cols} cells need more than u32::MAX header fins at N_FSW = {n_fsw}"
                ),
            })?;
        let mut sw = self.design.pmos.with_fins(n_fsw * cells as u32);
        sw.vth0 += self.design.power_switch_vth_boost;
        self.ckt
            .device(Box::new(FinFet::new(name, rail, gate, supply, sw)))
    }

    /// Registers the next gating group (groups are numbered in
    /// registration order). Its header gate must be driven by
    /// the source `vpg{suffix}`; on the nonvolatile kinds this also
    /// stamps the group's SR/CTRL broadcast pair — nodes
    /// `sr{suffix}`/`ctrl{suffix}` driven by `vsr{suffix}` (low) and
    /// `vctrl{suffix}` (normal-mode bias).
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn gating_group(&mut self, suffix: &str) -> Result<(), CircuitError> {
        let lines = if self.kind.is_nonvolatile() {
            let sr = self.ckt.node(&format!("sr{suffix}"));
            let ctrl = self.ckt.node(&format!("ctrl{suffix}"));
            self.source(&format!("vsr{suffix}"), sr, 0.0)?;
            let v_ctrl = self.design.conditions.v_ctrl_normal;
            self.source(&format!("vctrl{suffix}"), ctrl, v_ctrl)?;
            Some((sr, ctrl))
        } else {
            None
        };
        self.groups.push(GatingGroup {
            suffix: suffix.to_owned(),
            lines,
        });
        Ok(())
    }

    /// Stamps every cell, row-major, on the nodes `taps(row, col)` names:
    /// the 6T core and, for the nonvolatile kinds, the PS-FinFETs and two
    /// retention elements (pinned side toward the cell, free side on the
    /// group's CTRL). The elements start in the **opposite** of
    /// `pattern`, so a store genuinely switches every one; the DC
    /// nodesets seed the latches to `pattern`. No per-cell ammeters: they
    /// would add a branch unknown per element for a current the
    /// array-level energy accounting does not need.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn cells(
        &mut self,
        taps: impl Fn(usize, usize) -> CellTaps,
        pattern: impl Fn(usize, usize) -> bool,
    ) -> Result<(), CircuitError> {
        let d = self.design;
        let (vdd, gnd) = (d.conditions.vdd, Circuit::GROUND);
        let pu = d.pmos.with_fins(d.fins_load);
        let pd = d.nmos.with_fins(d.fins_driver);
        let pa = d.nmos.with_fins(d.fins_access);
        let ps = d.nmos.with_fins(d.fins_ps);
        let nvdev = d.retention_device();
        let ckt = &mut self.ckt;
        for row in 0..self.rows {
            let mut latches = Vec::with_capacity(self.cols);
            for col in 0..self.cols {
                let t = taps(row, col);
                let bit = pattern(row, col);
                let tag = format!("r{row}c{col}");
                let q = ckt.node(&format!("q_{tag}"));
                let qb = ckt.node(&format!("qb_{tag}"));
                let core = [
                    ("mpul", q, qb, t.rail, pu),
                    ("mpur", qb, q, t.rail, pu),
                    ("mpdl", q, qb, gnd, pd),
                    ("mpdr", qb, q, gnd, pd),
                    ("mpgl", t.bl, t.wl, q, pa),
                    ("mpgr", t.blb, t.wl, qb, pa),
                ];
                for (name, drain, gate, source, params) in core {
                    let name = format!("{name}_{tag}");
                    ckt.device(Box::new(FinFet::new(name, drain, gate, source, params)))?;
                }
                if let Some((sr, ctrl)) = self.groups[t.group].lines {
                    let ml = ckt.node(&format!("ml_{tag}"));
                    let mr = ckt.node(&format!("mr_{tag}"));
                    ckt.device(Box::new(FinFet::new(format!("mpsl_{tag}"), q, sr, ml, ps)))?;
                    ckt.device(Box::new(FinFet::new(format!("mpsr_{tag}"), qb, sr, mr, ps)))?;
                    let (l0, r0) = if bit {
                        (MtjState::Parallel, MtjState::AntiParallel)
                    } else {
                        (MtjState::AntiParallel, MtjState::Parallel)
                    };
                    nvdev.attach(ckt, &format!("xl_{tag}"), ctrl, ml, l0.into())?;
                    nvdev.attach(ckt, &format!("xr_{tag}"), ctrl, mr, r0.into())?;
                }
                let (vq, vqb) = if bit { (vdd, 0.0) } else { (0.0, vdd) };
                self.opts.nodesets.insert(q, vq);
                self.opts.nodesets.insert(qb, vqb);
                latches.push(Latch { q, qb });
            }
            self.cells.push(latches);
        }
        Ok(())
    }

    /// Adds a DC nodeset (initial guess) for one of the builder's nodes.
    pub fn nodeset(&mut self, node: NodeId, volts: f64) {
        self.opts.nodesets.insert(node, volts);
    }

    /// Consumes the builder, returning the bare netlist.
    pub fn into_circuit(self) -> Circuit {
        self.ckt
    }

    /// Solves the operating point and finishes the array.
    ///
    /// # Errors
    ///
    /// Propagates DC non-convergence.
    pub fn solve(mut self) -> Result<CellArray, CircuitError> {
        let state = operating_point(&mut self.ckt, &self.opts)?;
        let engine = PhaseEngine::new(
            self.ckt,
            state,
            self.design.conditions,
            StepPolicy::Array(self.opts.solver),
            self.sources,
            self.groups,
        );
        Ok(CellArray {
            engine,
            kind: self.kind,
            rows: self.rows,
            cols: self.cols,
            cells: self.cells,
        })
    }
}

/// A solved array: its cells' state probes on the phase engine, and the
/// engine's gating-group recipes folded into [`ArrayPhase`]s.
#[derive(Debug)]
pub struct CellArray {
    engine: PhaseEngine,
    kind: DomainKind,
    rows: usize,
    cols: usize,
    cells: Vec<Vec<Latch>>,
}

impl CellArray {
    /// Array dimensions `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.rows * self.cols
    }

    /// The architecture kind the array was built as.
    pub fn kind(&self) -> DomainKind {
        self.kind
    }

    /// The operating conditions the recipes drive the array with.
    pub(crate) fn conditions(&self) -> &OperatingConditions {
        self.engine.conditions()
    }

    /// MNA unknown count of the netlist.
    pub fn unknown_count(&self) -> usize {
        self.engine.circuit().unknown_count()
    }

    /// The netlist.
    pub fn circuit(&self) -> &Circuit {
        self.engine.circuit()
    }

    /// The current DC state.
    pub fn state(&self) -> &DcSolution {
        self.engine.state()
    }

    /// Total static power delivered by every source in the current DC
    /// state (W) — the array's leakage in whatever mode it sits in.
    pub fn static_power(&self) -> f64 {
        self.engine.static_power()
    }

    /// Smallest `|V(Q) − V(QB)|` over all cells (V): the worst per-cell
    /// storage margin in the current state.
    pub fn min_storage_margin(&self) -> f64 {
        let state = self.engine.state();
        self.cells
            .iter()
            .flatten()
            .map(|cell| (state.voltage(cell.q) - state.voltage(cell.qb)).abs())
            .fold(f64::INFINITY, f64::min)
    }

    /// Step/solver telemetry accumulated over every phase run so far
    /// (store, shutdown, sleep, wake, hold, restore, accesses). Benchmarks
    /// read this after a sequence; [`reset_step_stats`](Self::reset_step_stats)
    /// starts a fresh window.
    pub fn step_stats(&self) -> &StepStats {
        self.engine.step_stats()
    }

    /// Clears the accumulated step telemetry.
    pub fn reset_step_stats(&mut self) {
        self.engine.reset_step_stats();
    }

    /// Runs every later phase under the transient accuracy reference,
    /// [`StepPolicy::Reference`], on the array's own backend. It exists to
    /// gate the production array policy's energies; its phases take ~3×
    /// the steps.
    pub fn use_reference_steps(&mut self) {
        self.engine.use_reference_steps();
    }

    /// The latched data of cell `(row, col)` in the current state.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn data(&self, row: usize, col: usize) -> bool {
        let cell = &self.cells[row][col];
        let state = self.engine.state();
        state.voltage(cell.q) > state.voltage(cell.qb)
    }

    /// The whole data pattern.
    pub fn pattern(&self) -> Vec<Vec<bool>> {
        (0..self.rows)
            .map(|r| (0..self.cols).map(|c| self.data(r, c)).collect())
            .collect()
    }

    /// Retention-element states of cell `(row, col)` as `(Q side, QB
    /// side)`, decoded the same way for every
    /// [`RetentionKind`](crate::design::RetentionKind); `None` for
    /// volatile (OSR) arrays.
    pub fn mtj_states(&self, row: usize, col: usize) -> Option<(MtjState, MtjState)> {
        Some((
            self.engine.retention_state(&format!("xl_r{row}c{col}"))?,
            self.engine.retention_state(&format!("xr_r{row}c{col}"))?,
        ))
    }

    /// A `(source, wave)` override ramping source `name` from its
    /// current level to `to` over one edge time.
    pub(crate) fn ramp<'a>(&self, name: &'a str, to: f64) -> (&'a str, Waveform) {
        (name, self.engine.ramp(name, to))
    }

    /// Runs the phase `name` of `duration` with waveform overrides,
    /// continuing from the current state: every overridden source freezes
    /// at its end value afterwards, and the energy integrates over every
    /// tracked source.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    ///
    /// # Panics
    ///
    /// Panics if a waveform names an untracked source.
    pub fn phase(
        &mut self,
        name: &str,
        duration: f64,
        waves: &[(&str, Waveform)],
    ) -> Result<ArrayPhase, CircuitError> {
        Ok(self.engine.run(name, duration, waves)?.into())
    }

    /// Panics unless the array has retention elements to `what`.
    pub(crate) fn assert_nv(&self, what: &str) {
        assert!(
            self.kind.is_nonvolatile(),
            "OSR arrays have no retention elements to {what}"
        );
    }

    /// Two-step store of the listed gating groups: SR up with CTRL low
    /// (H-store), then CTRL at its store level (L-store), then both lines
    /// back down.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    ///
    /// # Panics
    ///
    /// Panics on an OSR array or an out-of-range group index.
    pub fn store(&mut self, groups: &[usize]) -> Result<ArrayPhase, CircuitError> {
        self.engine.store(groups)
    }

    /// Powers the listed gating groups off through their headers (super
    /// cutoff when `super_cutoff`) for 2 ns. Bitlines are left to the
    /// builder — a macro's awake banks keep using them. Per the paper's
    /// architecture semantics the volatile baseline never powers off — it
    /// [`sleep`](Self::sleep)s.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    ///
    /// # Panics
    ///
    /// Panics on an OSR array or an out-of-range group index.
    pub fn shutdown(
        &mut self,
        groups: &[usize],
        super_cutoff: bool,
    ) -> Result<ArrayPhase, CircuitError> {
        self.assert_nv("power off");
        Ok(self.engine.power_off(groups, super_cutoff, 2e-9)?.into())
    }

    /// Restores the listed gating groups (SR on, slow header turn-on, SR
    /// off, CTRL back to normal): every cell of the groups recovers its
    /// data from the retention elements' resistance imbalance at once.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    ///
    /// # Panics
    ///
    /// Panics on an OSR array or an out-of-range group index.
    pub fn restore(&mut self, groups: &[usize]) -> Result<ArrayPhase, CircuitError> {
        Ok(self.engine.restore(groups)?.into())
    }

    /// Enters the low-voltage retention mode array-wide over 2 ns: the
    /// supply drops to `vdd_sleep` (and every group's CTRL to its sleep
    /// bias on the nonvolatile kinds). Data is retained — this is the OSR
    /// standby state.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn sleep(&mut self) -> Result<ArrayPhase, CircuitError> {
        Ok(self.engine.sleep(2e-9)?.into())
    }

    /// Returns from sleep to the normal operating mode array-wide.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn wake(&mut self) -> Result<ArrayPhase, CircuitError> {
        Ok(self.engine.wake()?.into())
    }

    /// Lets the array sit for `duration` in its current mode.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn hold(&mut self, duration: f64) -> Result<ArrayPhase, CircuitError> {
        Ok(self.engine.hold(duration)?.into())
    }
}
