//! The array engine every simulated NV-SRAM array runs on.
//!
//! OSR, NVPG and NOF differ only in *when* the same cells store, power
//! off and restore (§III), so the cell, its power-switch header and the
//! store → shutdown → restore recipes are written once, here. A netlist
//! builder — the whole-domain [`DomainArray`](crate::domain::DomainArray)
//! or the periphery-complete macro of `nvpg-macro` — lays out its own
//! rails, wordlines, bitlines and periphery on an [`ArrayBuilder`], stamps
//! its headers and gating groups, and places every cell with
//! [`ArrayBuilder::cells`]. The solved [`CellArray`] runs each phase
//! through one runner (sources freeze at their end levels, energy
//! integrates `p(source)` over every tracked source) and addresses store,
//! power-off and restore by **gating group**: one header and, for the
//! nonvolatile kinds, one SR/CTRL pair per group.

use std::ops::AddAssign;

use nvpg_circuit::dc::{operating_point, operating_points, DcOptions};
use nvpg_circuit::transient::{transient, TransientOptions};
use nvpg_circuit::{Circuit, CircuitError, DcSolution, NodeId, SolverChoice, StepStats, Waveform};
use nvpg_devices::finfet::FinFet;
use nvpg_devices::mtj::MtjState;
use nvpg_units::{Joules, Seconds};

use crate::design::CellDesign;
use crate::domain::DomainKind;

/// Energy and duration of one array phase, or of a recipe's phases
/// summed.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// One gating group. Its control sources are `vpg{suffix}` and, on the
/// nonvolatile kinds, `vsr{suffix}`/`vctrl{suffix}`.
#[derive(Debug, Clone)]
struct Group {
    suffix: String,
    /// `(SR, CTRL)` broadcast nodes; `None` for the volatile kind.
    lines: Option<(NodeId, NodeId)>,
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
/// [`solve`](Self::solve) settles one operating point;
/// [`solve_batch`](Self::solve_batch) settles many same-topology
/// builders — one per parameter point — on one shared Newton workspace
/// ([`operating_points`]).
#[derive(Debug)]
pub struct ArrayBuilder {
    ckt: Circuit,
    opts: DcOptions,
    design: CellDesign,
    kind: DomainKind,
    rows: usize,
    cols: usize,
    groups: Vec<Group>,
    cells: Vec<Vec<Latch>>,
    sources: Vec<String>,
    levels: Vec<f64>,
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
            levels: Vec::new(),
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
        self.levels.push(level);
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
        self.groups.push(Group {
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

    /// Solves the operating point serially and finishes the array.
    ///
    /// # Errors
    ///
    /// Propagates DC non-convergence.
    pub fn solve(mut self) -> Result<CellArray, CircuitError> {
        let state = operating_point(&mut self.ckt, &self.opts)?;
        Ok(self.finish(state))
    }

    fn finish(self, state: DcSolution) -> CellArray {
        CellArray {
            ckt: self.ckt,
            design: self.design,
            kind: self.kind,
            rows: self.rows,
            cols: self.cols,
            solver: self.opts.solver,
            groups: self.groups,
            cells: self.cells,
            state,
            sources: self.sources,
            levels: self.levels,
            stats: StepStats::default(),
        }
    }

    /// Solves a batch of prepared arrays on one shared Newton workspace
    /// ([`operating_points`]), returning per-array results in input order.
    ///
    /// All builders must share one topology *and one seed pattern*: the
    /// DC nodesets of the first builder drive every point. Only device
    /// parameter values may differ, which is exactly the
    /// Monte-Carlo/thermal-scan shape. A builder whose unknown count
    /// differs is solved on a workspace of its own, so the call is always
    /// safe.
    pub fn solve_batch(builders: Vec<ArrayBuilder>) -> Vec<Result<CellArray, CircuitError>> {
        let Some(opts) = builders.first().map(|b| b.opts.clone()) else {
            return Vec::new();
        };
        let (mut circuits, seeds): (Vec<Circuit>, Vec<ArrayBuilder>) = builders
            .into_iter()
            .map(|mut b| (std::mem::replace(&mut b.ckt, Circuit::new()), b))
            .unzip();
        let results = operating_points(&mut circuits, &opts);
        circuits
            .into_iter()
            .zip(seeds)
            .zip(results)
            .map(|((ckt, mut seed), res)| {
                seed.ckt = ckt;
                res.map(|(state, _stats)| seed.finish(state))
            })
            .collect()
    }
}

/// A solved array: the engine's state probes, phase runner and
/// gating-group recipes.
#[derive(Debug)]
pub struct CellArray {
    ckt: Circuit,
    design: CellDesign,
    kind: DomainKind,
    rows: usize,
    cols: usize,
    solver: SolverChoice,
    groups: Vec<Group>,
    cells: Vec<Vec<Latch>>,
    state: DcSolution,
    sources: Vec<String>,
    /// Current DC level of every source (phase continuity).
    levels: Vec<f64>,
    /// Step/solver telemetry accumulated across every phase run so far.
    stats: StepStats,
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

    /// The cell design point.
    pub(crate) fn design(&self) -> &CellDesign {
        &self.design
    }

    /// MNA unknown count of the netlist.
    pub fn unknown_count(&self) -> usize {
        self.ckt.unknown_count()
    }

    /// The netlist.
    pub fn circuit(&self) -> &Circuit {
        &self.ckt
    }

    /// The current DC state.
    pub fn state(&self) -> &DcSolution {
        &self.state
    }

    /// Total static power delivered by every source in the current DC
    /// state (W) — the array's leakage in whatever mode it sits in.
    pub fn static_power(&self) -> f64 {
        self.sources
            .iter()
            .zip(&self.levels)
            .map(|(n, &v)| self.state.source_power(n, v).unwrap_or(0.0))
            .sum()
    }

    /// Smallest `|V(Q) − V(QB)|` over all cells (V): the worst per-cell
    /// storage margin in the current state.
    pub fn min_storage_margin(&self) -> f64 {
        self.cells
            .iter()
            .flatten()
            .map(|cell| (self.state.voltage(cell.q) - self.state.voltage(cell.qb)).abs())
            .fold(f64::INFINITY, f64::min)
    }

    /// Step/solver telemetry accumulated over every phase run so far
    /// (store, shutdown, sleep, wake, hold, restore, accesses). Benchmarks
    /// read this after a sequence; [`reset_step_stats`](Self::reset_step_stats)
    /// starts a fresh window.
    pub fn step_stats(&self) -> &StepStats {
        &self.stats
    }

    /// Clears the accumulated step telemetry.
    pub fn reset_step_stats(&mut self) {
        self.stats = StepStats::default();
    }

    /// The latched data of cell `(row, col)` in the current state.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn data(&self, row: usize, col: usize) -> bool {
        let cell = &self.cells[row][col];
        self.state.voltage(cell.q) > self.state.voltage(cell.qb)
    }

    /// The whole data pattern.
    pub fn pattern(&self) -> Vec<Vec<bool>> {
        (0..self.rows)
            .map(|r| (0..self.cols).map(|c| self.data(r, c)).collect())
            .collect()
    }

    /// Retention-element states of cell `(row, col)` as `(Q side, QB
    /// side)`, decoded through the shared `"state"` signal convention
    /// (high-resistance ⇒ `AntiParallel`), so the same decode works for
    /// every [`RetentionKind`](crate::design::RetentionKind); `None` for
    /// volatile (OSR) arrays.
    pub fn mtj_states(&self, row: usize, col: usize) -> Option<(MtjState, MtjState)> {
        let decode = |name: String| -> Option<MtjState> {
            let st = self.ckt.device_state(&name)?;
            let v = st.iter().find(|(l, _)| l == "state")?.1;
            Some(if v > 0.5 {
                MtjState::AntiParallel
            } else {
                MtjState::Parallel
            })
        };
        Some((
            decode(format!("xl_r{row}c{col}"))?,
            decode(format!("xr_r{row}c{col}"))?,
        ))
    }

    fn source_index(&self, name: &str) -> usize {
        self.sources
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("unknown source {name}"))
    }

    /// An edge-time ramp of source `name` from its current level to `to`.
    pub(crate) fn ramp(&self, name: &str, to: f64) -> (String, Waveform) {
        let from = self.levels[self.source_index(name)];
        let e = self.design.conditions.edge_time;
        (name.to_owned(), Waveform::Pwl(vec![(0.0, from), (e, to)]))
    }

    /// Ramps of the listed `(line, target)` control lines (`"pg"`,
    /// `"sr"`, `"ctrl"`) of every listed gating group.
    fn group_ramps(&self, groups: &[usize], lines: &[(&str, f64)]) -> Vec<(String, Waveform)> {
        groups
            .iter()
            .flat_map(|&g| {
                let suffix = &self.groups[g].suffix;
                lines
                    .iter()
                    .map(move |&(line, to)| self.ramp(&format!("v{line}{suffix}"), to))
            })
            .collect()
    }

    /// Runs a phase of `duration` with waveform overrides, continuing
    /// from the current state: every overridden source freezes at its end
    /// value afterwards, and the returned energy integrates over every
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
        duration: f64,
        waves: &[(String, Waveform)],
    ) -> Result<ArrayPhase, CircuitError> {
        for (src, wave) in waves {
            self.ckt.set_source(src, wave.clone())?;
        }
        let opts = TransientOptions {
            t_stop: duration,
            dt_max: (duration / 100.0).clamp(1e-12, 200e-12),
            dt_init: 1e-12,
            // Array-scale performance levers: keep the LU across quiescent
            // steps and skip re-evaluating devices whose terminals barely
            // moved — most of the array is idle in any given phase.
            device_bypass_tol: 1e-6,
            solver: self.solver,
            ..TransientOptions::default()
        };
        let result = transient(&mut self.ckt, &opts, &self.state)?;
        self.stats += result.steps;
        self.state = result.final_state;
        for (src, wave) in waves {
            let end = wave.value(duration);
            self.ckt.set_source(src, end)?;
            let idx = self.source_index(src);
            self.levels[idx] = end;
        }
        let mut energy = 0.0;
        for name in &self.sources {
            energy += result
                .trace
                .integral(&format!("p({name})"))
                .expect("power signal recorded");
        }
        Ok(ArrayPhase {
            energy: Joules(energy),
            duration: Seconds(duration),
        })
    }

    /// Panics unless the array has retention elements to `what`.
    pub(crate) fn assert_nv(&self, what: &str) {
        assert!(
            self.kind.is_nonvolatile(),
            "OSR arrays have no retention elements to {what}"
        );
    }

    fn assert_groups(&self, groups: &[usize]) {
        let n = self.groups.len();
        for &g in groups {
            assert!(g < n, "gating group {g} out of range (array has {n})");
        }
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
        self.assert_nv("store");
        self.assert_groups(groups);
        let c = self.design.conditions;
        let t = c.store_duration;
        // Each phase's ramps must read the *current* source levels, so
        // every wave list is built just before its phase runs.
        let w = self.group_ramps(groups, &[("sr", c.v_sr), ("ctrl", 0.0)]);
        let mut total = self.phase(t, &w)?;
        let w = self.group_ramps(groups, &[("ctrl", c.v_ctrl_store)]);
        total += self.phase(t, &w)?;
        let w = self.group_ramps(groups, &[("sr", 0.0), ("ctrl", 0.0)]);
        total += self.phase(1e-9, &w)?;
        Ok(total)
    }

    /// Powers the listed gating groups off through their headers (super
    /// cutoff when `super_cutoff`). Bitlines are left to the builder — a
    /// macro's awake banks keep using them. Per the paper's architecture
    /// semantics the volatile baseline never powers off — it
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
        self.assert_groups(groups);
        let c = self.design.conditions;
        let v_pg = if super_cutoff {
            c.v_pg_super
        } else {
            c.v_pg_off
        };
        let w = self.group_ramps(groups, &[("pg", v_pg)]);
        self.phase(2e-9, &w)
    }

    /// Restores the listed gating groups: SR on, slow header turn-on, SR
    /// off, CTRL back to normal — every cell of the groups recovers its
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
        self.assert_nv("restore");
        self.assert_groups(groups);
        let c = self.design.conditions;
        let dur = c.restore_duration;
        let e = c.edge_time;
        let mut waves = Vec::with_capacity(3 * groups.len());
        for &g in groups {
            let s = &self.groups[g].suffix;
            let (sr, pg, ctrl) = (format!("vsr{s}"), format!("vpg{s}"), format!("vctrl{s}"));
            let level = |name: &str| self.levels[self.source_index(name)];
            let sr_wave = Waveform::Pwl(vec![
                (0.0, level(&sr)),
                (e, c.v_sr),
                (0.7 * dur, c.v_sr),
                (0.7 * dur + e, 0.0),
            ]);
            let pg_wave = Waveform::Pwl(vec![
                (0.0, level(&pg)),
                (0.05 * dur, level(&pg)),
                (0.45 * dur, 0.0),
            ]);
            let ctrl_wave = Waveform::Pwl(vec![
                (0.0, level(&ctrl)),
                (0.7 * dur, level(&ctrl)),
                (0.7 * dur + e, c.v_ctrl_normal),
            ]);
            waves.extend([(sr, sr_wave), (pg, pg_wave), (ctrl, ctrl_wave)]);
        }
        self.phase(dur, &waves)
    }

    /// Enters the low-voltage retention mode array-wide: the supply drops
    /// to `vdd_sleep` (and every group's CTRL to its sleep bias on the
    /// nonvolatile kinds). Data is retained — this is the OSR standby
    /// state.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn sleep(&mut self) -> Result<ArrayPhase, CircuitError> {
        let c = self.design.conditions;
        self.supply_mode(c.vdd_sleep, c.v_ctrl_sleep)
    }

    /// Returns from sleep to the normal operating mode array-wide.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn wake(&mut self) -> Result<ArrayPhase, CircuitError> {
        let c = self.design.conditions;
        self.supply_mode(c.vdd, c.v_ctrl_normal)
    }

    fn supply_mode(&mut self, vdd: f64, v_ctrl: f64) -> Result<ArrayPhase, CircuitError> {
        let mut waves = vec![self.ramp("vdd", vdd)];
        if self.kind.is_nonvolatile() {
            let all: Vec<usize> = (0..self.groups.len()).collect();
            waves.extend(self.group_ramps(&all, &[("ctrl", v_ctrl)]));
        }
        self.phase(2e-9, &waves)
    }

    /// Lets the array sit for `duration` in its current mode.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn hold(&mut self, duration: f64) -> Result<ArrayPhase, CircuitError> {
        self.phase(duration, &[])
    }
}
