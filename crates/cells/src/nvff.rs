//! Nonvolatile D flip-flop (NV-FF) with PS-FinFET/MTJ retention.
//!
//! The NVPG architecture covers not just caches but *all* bistable state:
//! the paper's companion circuits are the NV-FF of refs. \[5, 6\], where a
//! master–slave D flip-flop carries a PS-FinFET + MTJ pair on its slave
//! latch. This module builds that flip-flop at transistor level:
//!
//! * master latch: input transmission gate (transparent while `CK = 0`),
//!   inverter, feedback inverter + transmission gate (closed while
//!   `CK = 1`);
//! * slave latch: transfer gate (transparent while `CK = 1`), inverter,
//!   feedback inverter + gate (closed while `CK = 0`) — a rising-edge
//!   D-FF with `Q` on the slave's inverted node;
//! * retention: PS-FinFETs from both slave nodes through MTJs to the
//!   CTRL line, gated by SR — the same two-step store and
//!   ramp-up restore as the NV-SRAM cell;
//! * a header power switch for shutdown.
//!
//! The store/restore flow and Table I biases are shared with the SRAM
//! cell: the flip-flop runs on the [`crate::engine`] phase engine, whose
//! recipes it reuses, and adds only its clocking.

use nvpg_circuit::dc::{operating_point, DcOptions};
use nvpg_circuit::{Circuit, CircuitError, NodeId, Waveform};
use nvpg_devices::finfet::{FinFet, FinFetParams};
use nvpg_devices::mtj::{Mtj, MtjState};

use crate::array::ArrayPhase;
use crate::design::CellDesign;
use crate::engine::{GatingGroup, PhaseEngine, StepPolicy};

/// A nonvolatile D flip-flop bench.
#[derive(Debug)]
pub struct NvFlipFlop {
    engine: PhaseEngine,
    design: CellDesign,
    s: NodeId,
    sb: NodeId,
}

const SOURCES: [&str; 7] = ["vdd", "vd", "vck", "vckb", "vsr", "vctrl", "vpg"];

fn inverter(
    ckt: &mut Circuit,
    tag: &str,
    input: NodeId,
    output: NodeId,
    vvdd: NodeId,
    nmos: FinFetParams,
    pmos: FinFetParams,
) -> Result<(), CircuitError> {
    ckt.device(Box::new(FinFet::new(
        format!("mp_{tag}"),
        output,
        input,
        vvdd,
        pmos,
    )))?;
    ckt.device(Box::new(FinFet::new(
        format!("mn_{tag}"),
        output,
        input,
        Circuit::GROUND,
        nmos,
    )))?;
    Ok(())
}

/// Transmission gate between `a` and `b`: NMOS gated by `on_high`, PMOS
/// gated by `on_low` (drive them complementarily).
#[allow(clippy::too_many_arguments)] // netlist helper mirrors the schematic
fn transmission_gate(
    ckt: &mut Circuit,
    tag: &str,
    a: NodeId,
    b: NodeId,
    on_high: NodeId,
    on_low: NodeId,
    nmos: FinFetParams,
    pmos: FinFetParams,
) -> Result<(), CircuitError> {
    ckt.device(Box::new(FinFet::new(
        format!("tn_{tag}"),
        a,
        on_high,
        b,
        nmos,
    )))?;
    ckt.device(Box::new(FinFet::new(
        format!("tp_{tag}"),
        a,
        on_low,
        b,
        pmos,
    )))?;
    Ok(())
}

impl NvFlipFlop {
    /// Builds the flip-flop with `Q = q_init` latched and the MTJs in the
    /// pattern produced by storing `mtj_data`.
    ///
    /// # Errors
    ///
    /// Propagates netlist and DC-convergence errors.
    pub fn new(design: CellDesign, q_init: bool, mtj_data: bool) -> Result<Self, CircuitError> {
        let c = design.conditions;
        let gnd = Circuit::GROUND;
        let mut ckt = Circuit::new();

        let vdd_rail = ckt.node("vdd_rail");
        let vvdd = ckt.node("vvdd");
        let d = ckt.node("d");
        let ck = ckt.node("ck");
        let ckb = ckt.node("ckb");
        let m = ckt.node("m");
        let mb = ckt.node("mb");
        let fbm = ckt.node("fbm");
        let s = ckt.node("s");
        let sb = ckt.node("sb");
        let fbs = ckt.node("fbs");
        let sr = ckt.node("sr");
        let ctrl = ckt.node("ctrl");
        let ml = ckt.node("ml");
        let mr = ckt.node("mr");
        let pg = ckt.node("pg");

        // Q = sb; with CK = 0 the master is transparent (D flows to m) and
        // the slave holds. Initial D equals q_init so the settled latch is
        // consistent.
        let d0 = if q_init { c.vdd } else { 0.0 };
        ckt.vsource("vdd", vdd_rail, gnd, c.vdd)?;
        ckt.vsource("vd", d, gnd, d0)?;
        ckt.vsource("vck", ck, gnd, 0.0)?;
        ckt.vsource("vckb", ckb, gnd, c.vdd)?;
        ckt.vsource("vsr", sr, gnd, 0.0)?;
        ckt.vsource("vctrl", ctrl, gnd, c.v_ctrl_normal)?;
        ckt.vsource("vpg", pg, gnd, 0.0)?;

        let mut sw = design.pmos.with_fins(design.fins_power_switch);
        sw.vth0 += design.power_switch_vth_boost;
        ckt.device(Box::new(FinFet::new("msw", vvdd, pg, vdd_rail, sw)))?;

        let n = design.nmos.with_fins(1);
        let p = design.pmos.with_fins(1);
        // Master: D → (TG, open at CK=0) → m → inv → mb; feedback
        // mb → inv → fbm → (TG, closed at CK=1) → m.
        transmission_gate(&mut ckt, "in", d, m, ckb, ck, n, p)?;
        inverter(&mut ckt, "m", m, mb, vvdd, n, p)?;
        inverter(&mut ckt, "fbm", mb, fbm, vvdd, n, p)?;
        transmission_gate(&mut ckt, "fbm", fbm, m, ck, ckb, n, p)?;
        // Slave: mb → (TG, open at CK=1) → s → inv → sb (= Q); feedback
        // sb → inv → fbs → (TG, closed at CK=0) → s.
        transmission_gate(&mut ckt, "xfer", mb, s, ck, ckb, n, p)?;
        inverter(&mut ckt, "s", s, sb, vvdd, n, p)?;
        inverter(&mut ckt, "fbs", sb, fbs, vvdd, n, p)?;
        transmission_gate(&mut ckt, "fbs", fbs, s, ckb, ck, n, p)?;

        // Retention: PS-FinFETs from both slave nodes through MTJs to
        // CTRL (pinned layer toward the latch, free layer on CTRL — same
        // orientation as the NV-SRAM cell). The H-side junction ends up
        // antiparallel after a store.
        let ps = design.nmos.with_fins(design.fins_ps);
        ckt.device(Box::new(FinFet::new("mpsl", s, sr, ml, ps)))?;
        ckt.device(Box::new(FinFet::new("mpsr", sb, sr, mr, ps)))?;
        // Q = sb; stored data refers to Q, and s = ¬Q.
        let (l0, r0) = if mtj_data {
            (MtjState::Parallel, MtjState::AntiParallel)
        } else {
            (MtjState::AntiParallel, MtjState::Parallel)
        };
        ckt.device(Box::new(Mtj::new("xl", ctrl, ml, design.mtj, l0)))?;
        ckt.device(Box::new(Mtj::new("xr", ctrl, mr, design.mtj, r0)))?;

        // Settle: with CK = 0, m follows D and the slave is seeded to the
        // consistent state (s = ¬Q, sb = Q).
        let (vs, vsb) = if q_init { (0.0, c.vdd) } else { (c.vdd, 0.0) };
        let opts = DcOptions::default()
            .with_nodeset(vvdd, c.vdd)
            .with_nodeset(m, d0)
            .with_nodeset(mb, c.vdd - d0)
            .with_nodeset(s, vs)
            .with_nodeset(sb, vsb);
        let state = operating_point(&mut ckt, &opts)?;
        let group = GatingGroup {
            suffix: String::new(),
            lines: Some((sr, ctrl)),
        };
        let engine = PhaseEngine::new(
            ckt,
            state,
            c,
            StepPolicy::Cell,
            SOURCES.map(String::from).to_vec(),
            vec![group],
        );
        Ok(NvFlipFlop {
            engine,
            design,
            s,
            sb,
        })
    }

    /// The flip-flop output `Q` in the current state.
    pub fn q(&self) -> bool {
        let state = self.engine.state();
        state.voltage(self.sb) > state.voltage(self.s)
    }

    /// Current MTJ states `(s side, sb side)`.
    pub fn mtj_states(&self) -> Option<(MtjState, MtjState)> {
        Some((
            self.engine.retention_state("xl")?,
            self.engine.retention_state("xr")?,
        ))
    }

    /// Runs one clocking phase (span label `clock`) with the given
    /// waveform overrides.
    fn phase(
        &mut self,
        duration: f64,
        waves: &[(&str, Waveform)],
    ) -> Result<ArrayPhase, CircuitError> {
        Ok(self.engine.run("clock", duration, waves)?.into())
    }

    /// Applies `d` and issues one rising clock edge (positive-edge
    /// triggered: `Q` becomes `d`), then returns the clock low.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn clock_in(&mut self, d: bool) -> Result<ArrayPhase, CircuitError> {
        let c = self.design.conditions;
        let e = c.edge_time;
        let dv = if d { c.vdd } else { 0.0 };
        // Phase 1: settle D with CK low (master samples).
        let d0 = self.engine.level("vd");
        let dw = Waveform::Pwl(vec![(0.0, d0), (0.1e-9, d0), (0.1e-9 + e, dv)]);
        let mut total = self.phase(1e-9, &[("vd", dw)])?;
        // Phase 2: CK rising edge (slave captures), hold, falling edge;
        // CKB mirrors it.
        let clock = |rest: f64, active: f64| {
            Waveform::Pwl(vec![
                (0.0, rest),
                (0.1e-9, rest),
                (0.1e-9 + e, active),
                (1.4e-9, active),
                (1.4e-9 + e, rest),
            ])
        };
        let waves = [("vck", clock(0.0, c.vdd)), ("vckb", clock(c.vdd, 0.0))];
        total += self.phase(2e-9, &waves)?;
        Ok(total)
    }

    /// Two-step store of `Q` into the MTJs (clock held low: the slave is
    /// regenerating and drives the store current).
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn store(&mut self) -> Result<ArrayPhase, CircuitError> {
        self.engine.store(&[0])
    }

    /// Powers the flip-flop off (super cutoff) and holds it dark for
    /// `hold` seconds.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn shutdown(&mut self, hold: f64) -> Result<ArrayPhase, CircuitError> {
        let mut total = ArrayPhase::from(self.engine.power_off(&[0], true, 2e-9)?);
        total += self.engine.hold(hold)?.into();
        Ok(total)
    }

    /// Restore: SR on, staged power-switch turn-on, SR off — the slave
    /// latch resolves from the MTJ imbalance; the clock stays low so the
    /// master re-samples `D` afterwards without disturbing `Q`.
    ///
    /// # Errors
    ///
    /// Propagates transient non-convergence.
    pub fn restore(&mut self) -> Result<ArrayPhase, CircuitError> {
        Ok(self.engine.restore(&[0])?.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_with_both_initial_states() {
        for q in [true, false] {
            let ff = NvFlipFlop::new(CellDesign::table1(), q, q).unwrap();
            assert_eq!(ff.q(), q, "initial Q = {q}");
        }
    }

    #[test]
    fn clocks_data_through() {
        let mut ff = NvFlipFlop::new(CellDesign::table1(), false, false).unwrap();
        ff.clock_in(true).unwrap();
        assert!(ff.q(), "Q should be 1 after clocking in 1");
        ff.clock_in(false).unwrap();
        assert!(!ff.q(), "Q should be 0 after clocking in 0");
        ff.clock_in(true).unwrap();
        ff.clock_in(true).unwrap();
        assert!(ff.q());
    }

    #[test]
    fn d_changes_without_clock_do_not_affect_q() {
        let mut ff = NvFlipFlop::new(CellDesign::table1(), true, true).unwrap();
        // Wiggle D with the clock held low: the slave must hold.
        let dv = ff.design.conditions.vdd;
        let _ = dv;
        ff.phase(
            1e-9,
            &[("vd", Waveform::Pwl(vec![(0.0, 0.9), (0.2e-9, 0.0)]))],
        )
        .unwrap();
        assert!(ff.q(), "Q must hold without a clock edge");
    }

    #[test]
    fn store_flips_mtjs_to_match_q() {
        let mut ff = NvFlipFlop::new(CellDesign::table1(), true, false).unwrap();
        ff.store().unwrap();
        // Q = 1 ⇒ sb high (H-store side: right junction → AP), s low
        // (L-store side: left junction → P).
        assert_eq!(
            ff.mtj_states(),
            Some((MtjState::Parallel, MtjState::AntiParallel))
        );
    }

    #[test]
    fn q_survives_power_cycle() {
        for q in [true, false] {
            let mut ff = NvFlipFlop::new(CellDesign::table1(), q, !q).unwrap();
            ff.store().unwrap();
            ff.shutdown(400e-9).unwrap();
            ff.restore().unwrap();
            assert_eq!(ff.q(), q, "Q = {q} must survive the power cycle");
        }
    }

    #[test]
    fn store_energy_is_comparable_to_sram_cell() {
        let design = CellDesign::table1();
        let mut ff = NvFlipFlop::new(design, true, false).unwrap();
        let store = ff.store().unwrap();
        // Two MTJ writes at ~1.5×I_C for 10 ns each: hundreds of fJ.
        assert!(
            (50e-15..5e-12).contains(&store.energy.0),
            "NV-FF store energy = {:e}",
            store.energy.0
        );
    }
}
