//! The cell test bench: a built cell plus phase-sequenced simulation.
//!
//! [`CellBench`] owns one cell netlist and chains transient phases through
//! it on the [`crate::engine`] phase engine, mirroring how the paper drives
//! a cell through the Fig. 5 benchmark sequences. Each phase reprograms the
//! drive waveforms (always starting from the previous DC level, so nothing
//! jumps), runs a transient continuing from the previous final state, and
//! reports the energy all sources delivered during the phase. The bench
//! adds only the cell's own operations — read, write and the per-mode
//! static power — to the engine's sleep, wake, store, power-off and
//! restore recipes.

use nvpg_circuit::dc::operating_point;
use nvpg_circuit::{Circuit, CircuitError, DcSolution, Waveform};
use nvpg_devices::mtj::MtjState;

use crate::cell::{build_cell, sources, CellKind, CellNodes, MtjConfig};
use crate::design::{CellDesign, OperatingConditions};
use crate::engine::{GatingGroup, PhaseEngine, PhaseResult, StepPolicy};

/// Operating modes used for static (DC) characterisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Normal SRAM operation: full V_DD, switch on, SR off,
    /// CTRL = 0.07 V.
    Normal,
    /// Low-voltage retention: V_DD lowered to 0.7 V, CTRL = 0.04 V.
    Sleep,
    /// Power switch off.
    Shutdown {
        /// Drive the header gate above V_DD (super cutoff \[20\]).
        super_cutoff: bool,
    },
}

/// The read/write wordline pulse at `v`: up from `0.1·T` to `0.7·T` of
/// the cycle.
fn wordline_pulse(c: &OperatingConditions, v: f64) -> Waveform {
    let (t, e) = (c.cycle_time(), c.edge_time);
    Waveform::Pwl(vec![
        (0.0, 0.0),
        (0.1 * t, 0.0),
        (0.1 * t + e, v),
        (0.7 * t, v),
        (0.7 * t + e, 0.0),
    ])
}

/// A built cell plus the simulation state to run operations against it.
#[derive(Debug)]
pub struct CellBench {
    engine: PhaseEngine,
    nodes: CellNodes,
    design: CellDesign,
    kind: CellKind,
}

impl CellBench {
    /// Builds a cell of the given kind, initialises the MTJs to `mtjs`,
    /// and settles the normal-mode operating point with `Q = data_q`.
    ///
    /// # Errors
    ///
    /// Propagates netlist or DC-convergence errors.
    pub fn new(
        design: CellDesign,
        kind: CellKind,
        data_q: bool,
        mtjs: MtjConfig,
    ) -> Result<Self, CircuitError> {
        let mut ckt = Circuit::new();
        let nodes = build_cell(&mut ckt, &design, kind, mtjs)?;
        let c = design.conditions;
        let state = operating_point(&mut ckt, &nodes.hold_options(c.vdd, data_q))?;
        let mut tracked = vec![
            sources::VDD,
            sources::VPG,
            sources::VWL,
            sources::VBL,
            sources::VBLB,
        ];
        if nodes.nv.is_some() {
            tracked.extend([sources::VSR, sources::VCTRL]);
        }
        let group = GatingGroup {
            suffix: String::new(),
            lines: nodes.nv.map(|nv| (nv.sr, nv.ctrl)),
        };
        let engine = PhaseEngine::new(
            ckt,
            state,
            c,
            StepPolicy::Cell,
            tracked.into_iter().map(String::from).collect(),
            vec![group],
        );
        Ok(CellBench {
            engine,
            nodes,
            design,
            kind,
        })
    }

    /// The cell's node handles.
    pub fn nodes(&self) -> &CellNodes {
        &self.nodes
    }

    /// The design point.
    pub fn design(&self) -> &CellDesign {
        &self.design
    }

    /// The cell kind.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// Storage-node voltages `(v(Q), v(QB))` in the current state.
    pub fn storage_voltages(&self) -> (f64, f64) {
        let state = self.engine.state();
        (state.voltage(self.nodes.q), state.voltage(self.nodes.qb))
    }

    /// The currently latched data, judged by `v(Q) > v(QB)`.
    pub fn data(&self) -> bool {
        let (q, qb) = self.storage_voltages();
        q > qb
    }

    /// Current MTJ states `(Q side, QB side)` (NV cells only).
    pub fn mtj_states(&self) -> Option<(MtjState, MtjState)> {
        Some((
            self.engine.retention_state("xl")?,
            self.engine.retention_state("xr")?,
        ))
    }

    /// Holds the present bias point for `duration` (idle phase).
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn idle(&mut self, duration: f64) -> Result<PhaseResult, CircuitError> {
        self.engine.run::<&str>("idle", duration, &[])
    }

    /// One read cycle at the design frequency: wordline pulse with both
    /// bitlines precharged/held at V_DD.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn read(&mut self) -> Result<PhaseResult, CircuitError> {
        let c = self.design.conditions;
        // Wordline underdrive (read assist): a weaker access transistor
        // disturbs the cell less during reads.
        let wl = wordline_pulse(&c, c.vdd - c.wl_underdrive);
        let bl = self.engine.ramp(sources::VBL, c.vdd);
        let blb = self.engine.ramp(sources::VBLB, c.vdd);
        self.engine.run(
            "read",
            c.cycle_time(),
            &[(sources::VWL, wl), (sources::VBL, bl), (sources::VBLB, blb)],
        )
    }

    /// One write cycle at the design frequency: bitlines driven to the
    /// data value under a wordline pulse, then returned to the precharge
    /// level.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn write(&mut self, data_q: bool) -> Result<PhaseResult, CircuitError> {
        let c = self.design.conditions;
        let t = c.cycle_time();
        let e = c.edge_time;
        let (bl_target, blb_target) = if data_q { (c.vdd, 0.0) } else { (0.0, c.vdd) };
        let drive = |from: f64, target: f64| {
            Waveform::Pwl(vec![
                (0.0, from),
                (0.05 * t, from),
                (0.05 * t + e, target),
                (0.8 * t, target),
                (0.8 * t + e, c.vdd),
            ])
        };
        let wl = wordline_pulse(&c, c.vdd);
        let bl = drive(self.engine.level(sources::VBL), bl_target);
        let blb = drive(self.engine.level(sources::VBLB), blb_target);
        self.engine.run(
            "write",
            t,
            &[(sources::VWL, wl), (sources::VBL, bl), (sources::VBLB, blb)],
        )
    }

    /// Enters the sleep (low-voltage retention) mode and holds it for
    /// `duration`: supply at 0.7 V, CTRL at its sleep bias.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn sleep(&mut self, duration: f64) -> Result<PhaseResult, CircuitError> {
        self.engine.sleep(duration)
    }

    /// Returns from sleep or a restore to the normal operating point:
    /// full V_DD, CTRL at its normal bias.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn wake_normal(&mut self) -> Result<PhaseResult, CircuitError> {
        self.engine.wake()
    }

    /// The two-step store (§III): the phases `store-H` (SR on, CTRL low),
    /// `store-L` (CTRL at its store level) and `store-end`.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    ///
    /// # Panics
    ///
    /// Panics if called on a volatile 6T cell.
    pub fn store(&mut self) -> Result<Vec<PhaseResult>, CircuitError> {
        self.engine.store(&[0])
    }

    /// Turns the power switch off (optionally with super cutoff) and lets
    /// the virtual rail collapse for `settle` seconds.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn shutdown_enter(
        &mut self,
        super_cutoff: bool,
        settle: f64,
    ) -> Result<PhaseResult, CircuitError> {
        self.engine.power_off(&[0], super_cutoff, settle)
    }

    /// Restores the data from the MTJs: SR on, staged power-switch
    /// turn-on, SR off, CTRL back to its normal bias.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    ///
    /// # Panics
    ///
    /// Panics if called on a volatile 6T cell.
    pub fn restore(&mut self) -> Result<PhaseResult, CircuitError> {
        self.engine.restore(&[0])
    }

    /// Re-settles a DC operating point in the given mode and returns the
    /// total static power drawn from all sources.
    ///
    /// The bench's state and source levels are updated to the new mode.
    ///
    /// # Errors
    ///
    /// Propagates DC non-convergence.
    pub fn static_power(&mut self, mode: Mode) -> Result<f64, CircuitError> {
        let c = self.design.conditions;
        // In shutdown the whole power domain is off: the bitlines are
        // discharged as well, so the only leakage path left is the header
        // switch itself (this is what super cutoff then suppresses).
        let (vdd, vpg, vctrl, vbl) = match mode {
            Mode::Normal => (c.vdd, 0.0, c.v_ctrl_normal, c.vdd),
            Mode::Sleep => (c.vdd_sleep, 0.0, c.v_ctrl_sleep, c.vdd),
            Mode::Shutdown { super_cutoff } => (
                c.vdd,
                if super_cutoff {
                    c.v_pg_super
                } else {
                    c.v_pg_off
                },
                0.0,
                0.0,
            ),
        };
        let mut levels = vec![
            (sources::VDD, vdd),
            (sources::VPG, vpg),
            (sources::VBL, vbl),
            (sources::VBLB, vbl),
        ];
        if self.nodes.nv.is_some() {
            levels.push((sources::VCTRL, vctrl));
        }
        self.engine.settle(&levels)?;
        Ok(self.engine.static_power())
    }

    /// Direct access to the underlying circuit (e.g. to reprogram a
    /// source for a custom experiment).
    pub fn circuit_mut(&mut self) -> &mut Circuit {
        self.engine.circuit_mut()
    }

    /// The current DC/transient-final state.
    pub fn state(&self) -> &DcSolution {
        self.engine.state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nv_bench(data: bool) -> CellBench {
        CellBench::new(
            CellDesign::table1(),
            CellKind::NvSram,
            data,
            MtjConfig::stored(data),
        )
        .expect("cell builds")
    }

    #[test]
    fn initial_state_latches_requested_data() {
        for data in [true, false] {
            let b = nv_bench(data);
            assert_eq!(b.data(), data);
            let (q, qb) = b.storage_voltages();
            if data {
                assert!(q > 0.8 && qb < 0.1, "q={q}, qb={qb}");
            } else {
                assert!(q < 0.1 && qb > 0.8);
            }
        }
    }

    #[test]
    fn read_does_not_disturb_the_cell() {
        // The (1,1,1,1) design must be read-stable at nominal conditions.
        for data in [true, false] {
            let mut b = nv_bench(data);
            for _ in 0..3 {
                b.read().expect("read");
                assert_eq!(b.data(), data, "read disturb with data = {data}");
            }
        }
    }

    #[test]
    fn write_flips_and_rewrites() {
        let mut b = nv_bench(true);
        b.write(false).expect("write 0");
        assert!(!b.data());
        b.write(true).expect("write 1");
        assert!(b.data());
        // Writing the already-held value is a no-op on the state.
        b.write(true).expect("write 1 again");
        assert!(b.data());
    }

    #[test]
    fn sleep_and_wake_retain_data() {
        for data in [true, false] {
            let mut b = nv_bench(data);
            b.sleep(100e-9).expect("sleep");
            // Retention voltage: cell still holds (possibly at 0.7 V).
            assert_eq!(b.data(), data, "during sleep");
            b.wake_normal().expect("wake");
            assert_eq!(b.data(), data, "after wake");
            let (q, qb) = b.storage_voltages();
            assert!((q.max(qb) - 0.9).abs() < 0.02, "full rail after wake");
        }
    }

    #[test]
    fn volatile_cell_reports_no_mtj_states() {
        let b = CellBench::new(
            CellDesign::table1(),
            CellKind::Volatile6T,
            true,
            MtjConfig::stored(true),
        )
        .unwrap();
        assert_eq!(b.mtj_states(), None);
        assert_eq!(b.kind(), CellKind::Volatile6T);
        assert_eq!(b.design().fins_power_switch, 7);
    }

    #[test]
    fn phase_energy_is_positive_and_duration_exact() {
        let mut b = nv_bench(true);
        let idle = b.idle(10e-9).expect("idle");
        assert_eq!(idle.duration.0, 10e-9);
        assert!(idle.energy.0 > 0.0, "leakage during idle");
        assert_eq!(idle.name, "idle");
        // Idle energy ≈ static power × duration.
        let approx = 7.5e-9 * 10e-9;
        assert!(
            (idle.energy.0 - approx).abs() < approx,
            "idle energy {:e}",
            idle.energy.0
        );
    }

    #[test]
    fn mode_cycle_via_static_power_keeps_layout() {
        let mut b = nv_bench(true);
        let p_norm = b.static_power(Mode::Normal).unwrap();
        let p_sleep = b.static_power(Mode::Sleep).unwrap();
        let p_sd = b
            .static_power(Mode::Shutdown { super_cutoff: true })
            .unwrap();
        assert!(p_norm > p_sleep && p_sleep > p_sd);
        // The bench still produces valid transients afterwards.
        b.idle(1e-9).expect("idle after mode cycling");
    }
}
