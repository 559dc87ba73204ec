//! The phase engine every simulated cell, flip-flop and array runs on.
//!
//! OSR, NVPG and NOF differ only in *when* the same store → shutdown →
//! restore operations run (§III), and the NV flip-flop backs up and
//! restores its slave latch as the NV-SRAM cell does, so those recipes are
//! written once, here. A `PhaseEngine` holds a solved netlist and its
//! present state, the sources a phase may drive and the netlist's gating
//! groups, and runs every phase through one runner (`PhaseEngine::run`).
//! [`CellBench`](crate::bench::CellBench) and
//! [`NvFlipFlop`](crate::nvff::NvFlipFlop) are one gating group with the
//! empty suffix, a [`CellArray`](crate::array::CellArray) has one per
//! header; each keeps only its netlist and its own operations.

use nvpg_circuit::dc::{operating_point_from, DcOptions};
use nvpg_circuit::transient::{transient, TransientOptions};
use nvpg_circuit::{Circuit, CircuitError, DcSolution, NodeId, SolverChoice, StepStats};
use nvpg_circuit::{Trace, Waveform};
use nvpg_devices::mtj::MtjState;
use nvpg_devices::retention::decode_state;
use nvpg_units::{Joules, Seconds};

use crate::design::OperatingConditions;

/// Result of one simulated phase.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Phase label (e.g. `"read"`, `"store-H"`).
    pub name: String,
    /// Phase duration.
    pub duration: Seconds,
    /// Total energy delivered by all tracked sources during the phase.
    pub energy: Joules,
    /// Recorded waveforms (phase-local time axis starting at 0).
    pub trace: Trace,
    /// Step-control and solver-reuse telemetry for the phase transient.
    pub steps: StepStats,
}

/// How the engine steps its transients. The policy is fixed by the
/// netlist family, not chosen per call; only an accuracy gate switches an
/// array to [`StepPolicy::Reference`]
/// ([`CellArray::use_reference_steps`](crate::array::CellArray::use_reference_steps)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepPolicy {
    /// Single cells and flip-flops: the LTE controller owns accuracy, so
    /// the step cap only bounds the trace sampling interval (≥ 50 samples
    /// per phase, at most 2 ns per step), at 3 mV per 0.9 V swing — far
    /// inside the few-percent agreement the paper figures are compared
    /// at, and ~√3 fewer steps than the 1 mV default through the
    /// switching edges.
    Cell,
    /// Arrays: at most 200 ps and ≥ 100 samples per phase, on the array's
    /// linear-solver backend.
    Array(SolverChoice),
    /// The transient accuracy reference for arrays: the array policy's
    /// backend and device bypass at a tenth of the default LTE tolerances
    /// (1e-4 relative, 1e-7 V absolute), at most 50 ps and ≥ 100 samples
    /// per phase. Tests gate the production policy's phase energies
    /// against it; nothing else runs it.
    Reference(SolverChoice),
}

impl StepPolicy {
    /// The transient options of one phase of `duration` seconds. Every
    /// policy reuses FinFET/MTJ stamps while no terminal moved more than
    /// 1 µV (the induced current error is bounded by g·1 µV, orders below
    /// the femtojoule energies the figures resolve) and keeps the LU
    /// across quiescent steps.
    pub fn options(self, duration: f64) -> TransientOptions {
        let common = TransientOptions {
            t_stop: duration,
            dt_init: 1e-12,
            device_bypass_tol: 1e-6,
            ..TransientOptions::default()
        };
        match self {
            StepPolicy::Cell => TransientOptions {
                dt_max: (duration / 50.0).clamp(1e-12, 2e-9),
                lte_reltol: 3e-3,
                lte_abstol: 3e-6,
                ..common
            },
            StepPolicy::Array(solver) => TransientOptions {
                dt_max: (duration / 100.0).clamp(1e-12, 200e-12),
                solver,
                ..common
            },
            StepPolicy::Reference(solver) => TransientOptions {
                dt_max: (duration / 100.0).clamp(1e-12, 50e-12),
                lte_reltol: 1e-4,
                lte_abstol: 1e-7,
                solver,
                ..common
            },
        }
    }

    fn solver(self) -> SolverChoice {
        match self {
            StepPolicy::Cell => SolverChoice::Auto,
            StepPolicy::Array(solver) | StepPolicy::Reference(solver) => solver,
        }
    }
}

/// One gating group: the header gate source `vpg{suffix}` and, when the
/// group has retention elements, the SR/CTRL broadcast lines driven by
/// `vsr{suffix}` (low) and `vctrl{suffix}` (normal-mode bias).
#[derive(Debug, Clone)]
pub(crate) struct GatingGroup {
    pub(crate) suffix: String,
    /// `(SR, CTRL)` nodes; `None` for a volatile group.
    pub(crate) lines: Option<(NodeId, NodeId)>,
}

/// A solved netlist plus the phase runner and gating-group recipes that
/// drive it.
///
/// Between phases every source is at a constant level, so a source's
/// present level is read from the netlist itself and every recipe ramps
/// from it: no phase makes a source jump.
#[derive(Debug)]
pub(crate) struct PhaseEngine {
    ckt: Circuit,
    state: DcSolution,
    conditions: OperatingConditions,
    policy: StepPolicy,
    /// Every source a phase may drive, in energy-summation order.
    sources: Vec<String>,
    groups: Vec<GatingGroup>,
    /// Step/solver telemetry accumulated across every phase run so far.
    stats: StepStats,
}

impl PhaseEngine {
    pub(crate) fn new(
        ckt: Circuit,
        state: DcSolution,
        conditions: OperatingConditions,
        policy: StepPolicy,
        sources: Vec<String>,
        groups: Vec<GatingGroup>,
    ) -> Self {
        PhaseEngine {
            ckt,
            state,
            conditions,
            policy,
            sources,
            groups,
            stats: StepStats::default(),
        }
    }

    /// The netlist.
    pub fn circuit(&self) -> &Circuit {
        &self.ckt
    }

    pub(crate) fn circuit_mut(&mut self) -> &mut Circuit {
        &mut self.ckt
    }

    /// Runs every later phase under the accuracy reference, on the present
    /// policy's backend.
    pub(crate) fn use_reference_steps(&mut self) {
        self.policy = StepPolicy::Reference(self.policy.solver());
    }

    /// The current DC/transient-final state.
    pub fn state(&self) -> &DcSolution {
        &self.state
    }

    /// The operating conditions the recipes drive the netlist with.
    pub fn conditions(&self) -> &OperatingConditions {
        &self.conditions
    }

    /// Step/solver telemetry accumulated over every phase run so far.
    pub fn step_stats(&self) -> &StepStats {
        &self.stats
    }

    /// Clears the accumulated step telemetry.
    pub fn reset_step_stats(&mut self) {
        self.stats = StepStats::default();
    }

    /// The present level of source `name`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has no such source.
    pub fn level(&self, name: &str) -> f64 {
        self.ckt
            .source_wave(name)
            .unwrap_or_else(|| panic!("unknown source {name}"))
            .value(0.0)
    }

    /// An edge-time ramp of source `name` from its present level to `to`.
    pub fn ramp(&self, name: &str, to: f64) -> Waveform {
        let e = self.conditions.edge_time;
        Waveform::Pwl(vec![(0.0, self.level(name)), (e, to)])
    }

    /// Total static power delivered by every tracked source in the
    /// current state (W).
    pub fn static_power(&self) -> f64 {
        self.sources
            .iter()
            .map(|n| self.state.source_power(n, self.level(n)).unwrap_or(0.0))
            .sum()
    }

    /// State of the retention element `name`, decoded through the shared
    /// `"state"` signal (high resistance ⇒ `AntiParallel`), so one decode
    /// serves every retention technology; `None` if there is no such
    /// element.
    pub fn retention_state(&self, name: &str) -> Option<MtjState> {
        decode_state(&self.ckt.device_state(name)?).map(MtjState::from)
    }

    /// Sets the listed sources to constant levels and re-settles the DC
    /// operating point, warm-started from the present state.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors and DC non-convergence.
    pub fn settle(&mut self, levels: &[(&str, f64)]) -> Result<(), CircuitError> {
        for &(name, v) in levels {
            self.ckt.set_source(name, v)?;
        }
        let opts = DcOptions {
            solver: self.policy.solver(),
            ..DcOptions::default()
        };
        let x0 = self.state.as_slice().to_vec();
        self.state = operating_point_from(&mut self.ckt, &opts, &x0)?;
        Ok(())
    }

    /// Runs the phase `name` of `duration` inside a `phase` span: sets the
    /// waveform overrides, runs the transient from the current state under
    /// the netlist family's [`StepPolicy`], freezes every overridden source
    /// at its end value, and integrates `p(source)` over every tracked
    /// source into the phase energy.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    ///
    /// # Panics
    ///
    /// Panics if a waveform names an untracked source (its energy would
    /// go uncounted).
    pub fn run<S: AsRef<str>>(
        &mut self,
        name: &str,
        duration: f64,
        waves: &[(S, Waveform)],
    ) -> Result<PhaseResult, CircuitError> {
        let _span = nvpg_obs::span_labeled("phase", name);
        for (src, wave) in waves {
            let src = src.as_ref();
            assert!(
                self.sources.iter().any(|s| s == src),
                "untracked source {src}"
            );
            self.ckt.set_source(src, wave.clone())?;
        }
        let result = transient(&mut self.ckt, &self.policy.options(duration), &self.state)?;
        self.stats += result.steps;
        self.state = result.final_state;
        for (src, wave) in waves {
            self.ckt.set_source(src.as_ref(), wave.value(duration))?;
        }
        let mut energy = 0.0;
        for src in &self.sources {
            energy += result
                .trace
                .integral(&format!("p({src})"))
                .expect("power signal recorded");
        }
        Ok(PhaseResult {
            name: name.to_owned(),
            duration: Seconds(duration),
            energy: Joules(energy),
            trace: result.trace,
            steps: result.steps,
        })
    }

    fn assert_groups(&self, groups: &[usize], retention: Option<&str>) {
        let n = self.groups.len();
        for &g in groups {
            assert!(g < n, "gating group {g} out of range (netlist has {n})");
            if let Some(what) = retention {
                assert!(
                    self.groups[g].lines.is_some(),
                    "gating group {g} has no retention elements to {what}"
                );
            }
        }
    }

    /// Edge ramps of the listed `(line, target)` control lines (`"pg"`,
    /// `"sr"`, `"ctrl"`) of every listed gating group.
    fn group_ramps(&self, groups: &[usize], lines: &[(&str, f64)]) -> Vec<(String, Waveform)> {
        groups
            .iter()
            .flat_map(|&g| {
                let suffix = &self.groups[g].suffix;
                lines.iter().map(move |&(line, to)| {
                    let name = format!("v{line}{suffix}");
                    let wave = self.ramp(&name, to);
                    (name, wave)
                })
            })
            .collect()
    }

    /// Two-step store of the listed gating groups (§III): SR up with CTRL
    /// low (H-store), then CTRL at its store level (L-store), each for
    /// the design store duration, then both lines back down. The phases
    /// `store-H`, `store-L` and `store-end` are folded into `S` one by
    /// one, as each finishes.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range group or one without retention elements.
    pub fn store<S: Default + Extend<PhaseResult>>(
        &mut self,
        groups: &[usize],
    ) -> Result<S, CircuitError> {
        self.assert_groups(groups, Some("store"));
        let c = self.conditions;
        let t = c.store_duration;
        let mut phases = S::default();
        // Each phase's ramps must read the *current* source levels, so
        // every wave list is built just before its phase runs.
        let w = self.group_ramps(groups, &[("sr", c.v_sr), ("ctrl", 0.0)]);
        phases.extend([self.run("store-H", t, &w)?]);
        let w = self.group_ramps(groups, &[("ctrl", c.v_ctrl_store)]);
        phases.extend([self.run("store-L", t, &w)?]);
        let w = self.group_ramps(groups, &[("sr", 0.0), ("ctrl", 0.0)]);
        phases.extend([self.run("store-end", 1e-9, &w)?]);
        Ok(phases)
    }

    /// Turns the listed groups' headers off (super cutoff when
    /// `super_cutoff`) and lets their rails collapse for `duration`:
    /// phase `shutdown`. Volatile groups may power off too — they simply
    /// lose their data.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range group.
    pub fn power_off(
        &mut self,
        groups: &[usize],
        super_cutoff: bool,
        duration: f64,
    ) -> Result<PhaseResult, CircuitError> {
        self.assert_groups(groups, None);
        let c = self.conditions;
        let v_pg = if super_cutoff {
            c.v_pg_super
        } else {
            c.v_pg_off
        };
        let w = self.group_ramps(groups, &[("pg", v_pg)]);
        self.run("shutdown", duration, &w)
    }

    /// Restores the listed gating groups: phase `restore`. SR rises
    /// immediately; the header gate then falls *slowly* (a staged
    /// turn-on, as real power gating uses to limit rush current), so the
    /// virtual rail sweeps through the regenerative region over
    /// nanoseconds and the retention elements' resistance imbalance has
    /// time to resolve the latch before it regenerates. SR drops at 70 %
    /// of the phase, CTRL returns to its normal bias, and the tail lets
    /// the latched state harden.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range group or one without retention elements.
    pub fn restore(&mut self, groups: &[usize]) -> Result<PhaseResult, CircuitError> {
        self.assert_groups(groups, Some("restore"));
        let c = self.conditions;
        let dur = c.restore_duration;
        let e = c.edge_time;
        let mut waves = Vec::with_capacity(3 * groups.len());
        for &g in groups {
            let s = &self.groups[g].suffix;
            let (sr, pg, ctrl) = (format!("vsr{s}"), format!("vpg{s}"), format!("vctrl{s}"));
            let sr_wave = Waveform::Pwl(vec![
                (0.0, self.level(&sr)),
                (e, c.v_sr),
                (0.7 * dur, c.v_sr),
                (0.7 * dur + e, 0.0),
            ]);
            let pg_wave = Waveform::Pwl(vec![
                (0.0, self.level(&pg)),
                (0.05 * dur, self.level(&pg)),
                (0.45 * dur, 0.0),
            ]);
            let ctrl_wave = Waveform::Pwl(vec![
                (0.0, self.level(&ctrl)),
                (0.7 * dur, self.level(&ctrl)),
                (0.7 * dur + e, c.v_ctrl_normal),
            ]);
            waves.extend([(sr, sr_wave), (pg, pg_wave), (ctrl, ctrl_wave)]);
        }
        self.run("restore", dur, &waves)
    }

    /// Enters the low-voltage retention mode netlist-wide and holds it
    /// for `duration`: phase `sleep`. The supply drops to `vdd_sleep` and
    /// every nonvolatile group's CTRL to its sleep bias; data is retained.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn sleep(&mut self, duration: f64) -> Result<PhaseResult, CircuitError> {
        let c = self.conditions;
        self.supply_mode("sleep", duration, c.vdd_sleep, c.v_ctrl_sleep)
    }

    /// Returns from sleep (or from a restore) to the normal operating
    /// mode netlist-wide: phase `wake`, 2 ns.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn wake(&mut self) -> Result<PhaseResult, CircuitError> {
        let c = self.conditions;
        self.supply_mode("wake", 2e-9, c.vdd, c.v_ctrl_normal)
    }

    fn supply_mode(
        &mut self,
        name: &str,
        duration: f64,
        vdd: f64,
        v_ctrl: f64,
    ) -> Result<PhaseResult, CircuitError> {
        let nonvolatile: Vec<usize> = (0..self.groups.len())
            .filter(|&g| self.groups[g].lines.is_some())
            .collect();
        let mut waves = vec![("vdd".to_owned(), self.ramp("vdd", vdd))];
        waves.extend(self.group_ramps(&nonvolatile, &[("ctrl", v_ctrl)]));
        self.run(name, duration, &waves)
    }

    /// Lets the netlist sit for `duration` in its current mode: phase
    /// `hold`.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn hold(&mut self, duration: f64) -> Result<PhaseResult, CircuitError> {
        self.run::<&str>("hold", duration, &[])
    }
}
