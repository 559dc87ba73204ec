//! Pluggable nonvolatile retention elements.
//!
//! The paper's NV-SRAM hangs one two-terminal retention element per
//! storage node between the cell-side PS-FinFET and the shared CTRL
//! line. PR 10 generalises that seam: [`RetentionDevice`] abstracts the
//! element so the cell, domain and macro builders — and the BET
//! comparison on top of them — are written once and parameterised by
//! technology:
//!
//! * [`MtjRetention`] — the paper's spin-transfer-torque MTJ
//!   ([`crate::mtj`]), attached **exactly** as the pre-trait code path
//!   did (same device, same construction), so MTJ results through the
//!   trait are bit-identical to the historical ones;
//! * [`FefetRetention`] — a ferroelectric-FET retention cell following
//!   the FeFET-based 6T NV-SRAM demonstration (arXiv:2603.26439):
//!   polarisation switches when the terminal bias exceeds the coercive
//!   voltage, so the store is voltage-driven and draws orders of
//!   magnitude less current than CIMS;
//! * [`NandSpinRetention`] — a NAND-SPIN element (arXiv:1912.06986):
//!   electrically an MTJ whose effective critical current and switching
//!   time are reduced by the spin–orbit-torque assist, enabling a much
//!   shorter (hence cheaper) store pulse.
//!
//! All three share one terminal convention (inherited from the MTJ
//! macromodel): terminals are **(free, pinned)**, the pinned side faces
//! the cell, and every implementation reports a `"state"` device signal
//! where `> 0.5` means the high-resistance state — so state decode is a
//! single shared function, [`decode_state`].

use nvpg_circuit::{Circuit, CircuitError, DeviceStamp, NodeId, NonlinearDevice};

use crate::mtj::{Mtj, MtjParams, MtjState};

/// Technology-neutral retention state: every supported element is a
/// two-state resistive device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetentionState {
    /// Low-resistance state (the MTJ's parallel state).
    LowR,
    /// High-resistance state (the MTJ's antiparallel state).
    HighR,
}

impl RetentionState {
    /// The opposite state.
    pub fn flipped(self) -> RetentionState {
        match self {
            RetentionState::LowR => RetentionState::HighR,
            RetentionState::HighR => RetentionState::LowR,
        }
    }
}

impl From<MtjState> for RetentionState {
    fn from(s: MtjState) -> Self {
        match s {
            MtjState::Parallel => RetentionState::LowR,
            MtjState::AntiParallel => RetentionState::HighR,
        }
    }
}

impl From<RetentionState> for MtjState {
    fn from(s: RetentionState) -> Self {
        match s {
            RetentionState::LowR => MtjState::Parallel,
            RetentionState::HighR => MtjState::AntiParallel,
        }
    }
}

/// Decodes the shared `"state"` device signal (`> 0.5` = high
/// resistance) emitted by every retention implementation.
pub fn decode_state(signals: &[(String, f64)]) -> Option<RetentionState> {
    let v = signals.iter().find(|(label, _)| label == "state")?.1;
    Some(if v > 0.5 {
        RetentionState::HighR
    } else {
        RetentionState::LowR
    })
}

/// A pluggable two-terminal nonvolatile retention element.
///
/// Implementations attach their device between a *free* terminal (the
/// CTRL line) and a *pinned* terminal (the cell side), mirroring the MTJ
/// orientation of the paper's Fig. 2, and share the drive convention the
/// cell sequencing relies on:
///
/// * cell → CTRL drive (H-store) switches **low-R → high-R**;
/// * CTRL → cell drive (L-store) switches **high-R → low-R**.
pub trait RetentionDevice {
    /// Stable lowercase technology label (`"mtj"`, `"fefet"`,
    /// `"nand_spin"`) — doubles as the request-schema value in the
    /// serving layer.
    fn technology(&self) -> &'static str;

    /// Builds the element named `name` between `free` (CTRL side) and
    /// `pinned` (cell side), starting in `state`.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors (duplicate names).
    fn attach(
        &self,
        ckt: &mut Circuit,
        name: &str,
        free: NodeId,
        pinned: NodeId,
        state: RetentionState,
    ) -> Result<(), CircuitError>;

    /// Low-state (parallel-analog) resistance at zero bias (Ω).
    fn low_resistance(&self) -> f64;

    /// High-state (antiparallel-analog) resistance at zero bias (Ω).
    fn high_resistance(&self) -> f64;

    /// Zero-disturb retention time (s).
    fn retention_time(&self) -> f64;

    /// Write-error rate for a drive of magnitude `drive` applied for
    /// `pulse` seconds. The drive unit is the technology's natural
    /// switching variable: amperes for current-switched elements (MTJ,
    /// NAND-SPIN), volts for the voltage-switched FeFET.
    fn write_error_rate(&self, drive: f64, pulse: f64) -> f64;

    /// Retention time under a sustained disturb of magnitude `drive`
    /// (same unit as [`write_error_rate`](Self::write_error_rate)) — the
    /// quantity the macro-level read/write-disturb checks compare
    /// against access times.
    fn disturb_retention_time(&self, drive: f64) -> f64;
}

// ---------------------------------------------------------------------
// MTJ (the paper's baseline technology)
// ---------------------------------------------------------------------

/// The paper's STT-MTJ as a [`RetentionDevice`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MtjRetention {
    /// Macromodel parameters (Table I by default).
    pub params: MtjParams,
}

impl MtjRetention {
    /// Wraps a parameter set.
    pub fn new(params: MtjParams) -> Self {
        MtjRetention { params }
    }
}

impl RetentionDevice for MtjRetention {
    fn technology(&self) -> &'static str {
        "mtj"
    }

    fn attach(
        &self,
        ckt: &mut Circuit,
        name: &str,
        free: NodeId,
        pinned: NodeId,
        state: RetentionState,
    ) -> Result<(), CircuitError> {
        // Exactly the pre-trait construction: same device, same argument
        // order — MTJ results through the trait stay bit-identical.
        ckt.device(Box::new(Mtj::new(
            name,
            free,
            pinned,
            self.params,
            state.into(),
        )))
    }

    fn low_resistance(&self) -> f64 {
        self.params.r_parallel()
    }

    fn high_resistance(&self) -> f64 {
        self.params.r_antiparallel()
    }

    fn retention_time(&self) -> f64 {
        self.params.retention_time()
    }

    fn write_error_rate(&self, drive: f64, pulse: f64) -> f64 {
        self.params.write_error_rate(drive, pulse)
    }

    fn disturb_retention_time(&self, drive: f64) -> f64 {
        self.params.retention_time_under_bias(drive)
    }
}

// ---------------------------------------------------------------------
// FeFET retention cell (arXiv:2603.26439)
// ---------------------------------------------------------------------

/// FeFET retention-cell parameters.
///
/// The element is reduced to its terminal behaviour: a two-state
/// resistor whose ferroelectric polarisation flips when the terminal
/// bias exceeds the coercive voltage for long enough (nucleation-limited
/// switching, linearised to the same progress-integrator form the MTJ
/// uses). The resistances are chosen so the PS-FinFET source-follower
/// still develops well over the coercive voltage across the element
/// during the paper's store waveforms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FefetParams {
    /// Low-resistance (program) state resistance (Ω).
    pub r_low: f64,
    /// High-resistance (erase) state resistance (Ω).
    pub r_high: f64,
    /// Coercive voltage: below this magnitude no polarisation switching
    /// occurs (V).
    pub v_coercive: f64,
    /// Characteristic switching time scale: a bias of `2·V_c` switches
    /// in `tau_switch` (s).
    pub tau_switch: f64,
    /// Zero-disturb polarisation retention time (s).
    pub retention: f64,
}

impl FefetParams {
    /// Defaults following the FeFET 6T NV-SRAM demonstration
    /// (arXiv:2603.26439): ~100× resistance window, 10-year-class
    /// retention, and a coercive voltage low enough that the element —
    /// not the series PS-FinFET, which current-limits the low-R path to
    /// a ~0.25 V IR drop — controls switching under the paper's 0.65 V
    /// SR / 0.5 V CTRL store waveforms, within the 10 ns store pulse.
    pub fn demo() -> Self {
        FefetParams {
            r_low: 100e3,
            r_high: 10e6,
            v_coercive: 0.15,
            tau_switch: 2e-9,
            retention: 3.2e8, // ≈ 10 years
        }
    }

    /// Switching time at bias `v`: `τ_s / (|v|/V_c − 1)` above the
    /// coercive voltage, infinite below it.
    pub fn switching_time(&self, v: f64) -> f64 {
        let over = v.abs() / self.v_coercive - 1.0;
        if over <= 0.0 {
            f64::INFINITY
        } else {
            self.tau_switch / over
        }
    }
}

/// A ferroelectric-FET retention cell as a circuit device.
#[derive(Debug, Clone)]
pub struct Fefet {
    name: String,
    nodes: [NodeId; 2],
    params: FefetParams,
    state: RetentionState,
    progress: f64,
    flips: u32,
}

impl Fefet {
    /// Creates a FeFET retention element named `name` between `free`
    /// (CTRL side) and `pinned` (cell side), starting in `state`.
    pub fn new(
        name: impl Into<String>,
        free: NodeId,
        pinned: NodeId,
        params: FefetParams,
        state: RetentionState,
    ) -> Self {
        Fefet {
            name: name.into(),
            nodes: [free, pinned],
            params,
            state,
            progress: 0.0,
            flips: 0,
        }
    }

    /// Current polarisation state.
    pub fn retention_state(&self) -> RetentionState {
        self.state
    }

    /// Completed polarisation reversals.
    pub fn flips(&self) -> u32 {
        self.flips
    }

    fn resistance(&self) -> f64 {
        match self.state {
            RetentionState::LowR => self.params.r_low,
            RetentionState::HighR => self.params.r_high,
        }
    }

    /// `true` if bias `v` = v(free) − v(pinned) drives a switch out of
    /// the current state. Matches the MTJ drive convention: cell → CTRL
    /// drive (negative bias) writes low-R → high-R.
    fn drives_switch(&self, v: f64) -> bool {
        match self.state {
            RetentionState::LowR => v < 0.0,
            RetentionState::HighR => v > 0.0,
        }
    }
}

impl NonlinearDevice for Fefet {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    fn load(&self, v: &[f64], stamp: &mut DeviceStamp) {
        let g = 1.0 / self.resistance();
        let i = (v[0] - v[1]) * g;
        stamp.current[0] = i;
        stamp.current[1] = -i;
        stamp.conductance[0][0] = g;
        stamp.conductance[0][1] = -g;
        stamp.conductance[1][0] = -g;
        stamp.conductance[1][1] = g;
    }

    fn charge(&self, _v: &[f64], q: &mut [f64]) {
        q.fill(0.0);
    }

    fn accept_step(&mut self, v: &[f64], _t: f64, dt: f64) {
        let bias = v[0] - v[1];
        if self.drives_switch(bias) && bias.abs() > self.params.v_coercive {
            let rate = (bias.abs() / self.params.v_coercive - 1.0) / self.params.tau_switch;
            self.progress += rate * dt;
            if self.progress >= 1.0 {
                self.state = self.state.flipped();
                self.progress = 0.0;
                self.flips += 1;
            }
        } else {
            self.progress = (self.progress - dt / self.params.tau_switch).max(0.0);
        }
    }

    fn state(&self) -> Vec<(String, f64)> {
        vec![
            (
                "state".to_owned(),
                match self.state {
                    RetentionState::LowR => 0.0,
                    RetentionState::HighR => 1.0,
                },
            ),
            ("progress".to_owned(), self.progress),
        ]
    }

    fn bypass_tolerance_scale(&self) -> f64 {
        // A polarisation reversal in flight changes the resistance by
        // ~100×; force full re-evaluation until the integrator settles.
        if self.progress > 0.0 {
            0.0
        } else {
            1.0
        }
    }
}

/// The FeFET retention cell as a [`RetentionDevice`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FefetRetention {
    /// Element parameters.
    pub params: FefetParams,
}

impl FefetRetention {
    /// Wraps a parameter set.
    pub fn new(params: FefetParams) -> Self {
        FefetRetention { params }
    }
}

impl RetentionDevice for FefetRetention {
    fn technology(&self) -> &'static str {
        "fefet"
    }

    fn attach(
        &self,
        ckt: &mut Circuit,
        name: &str,
        free: NodeId,
        pinned: NodeId,
        state: RetentionState,
    ) -> Result<(), CircuitError> {
        ckt.device(Box::new(Fefet::new(name, free, pinned, self.params, state)))
    }

    fn low_resistance(&self) -> f64 {
        self.params.r_low
    }

    fn high_resistance(&self) -> f64 {
        self.params.r_high
    }

    fn retention_time(&self) -> f64 {
        self.params.retention
    }

    fn write_error_rate(&self, drive: f64, pulse: f64) -> f64 {
        let tau = self.params.switching_time(drive);
        if tau.is_infinite() {
            1.0
        } else {
            (-pulse / tau).exp()
        }
    }

    fn disturb_retention_time(&self, drive: f64) -> f64 {
        // Sub-coercive disturb barely erodes the polarisation barrier;
        // model the same linear barrier reduction the MTJ uses, with the
        // coercive voltage as the collapse point.
        let reduction = (1.0 - drive.abs() / self.params.v_coercive).max(0.0);
        // retention = attempt · exp(Δ_eff): recover an effective Δ from
        // the zero-bias retention against a 1 ns attempt time.
        let attempt = 1e-9;
        let delta = (self.params.retention / attempt).ln();
        attempt * (delta * reduction).exp()
    }
}

// ---------------------------------------------------------------------
// NAND-SPIN element (arXiv:1912.06986)
// ---------------------------------------------------------------------

/// NAND-SPIN element parameters: an MTJ whose write path is assisted by
/// spin–orbit torque, lowering the effective critical current and the
/// switching time constant by `assist`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NandSpinParams {
    /// The underlying junction (read path is a plain MTJ).
    pub mtj: MtjParams,
    /// SOT write-assist factor (> 1): the effective CIMS critical
    /// current density and τ_D are both divided by this.
    pub assist: f64,
}

impl NandSpinParams {
    /// Defaults following the NAND-SPIN nonvolatile-flip-flop work
    /// (arXiv:1912.06986): Table I junction with a 4× write assist.
    pub fn demo() -> Self {
        NandSpinParams {
            mtj: MtjParams::table1(),
            assist: 4.0,
        }
    }

    /// The effective junction the write path sees: `J_C` and `τ_D`
    /// scaled down by the assist factor.
    pub fn effective(&self) -> MtjParams {
        MtjParams {
            jc: self.mtj.jc / self.assist,
            tau_d: self.mtj.tau_d / self.assist,
            ..self.mtj
        }
    }
}

/// The NAND-SPIN element as a [`RetentionDevice`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NandSpinRetention {
    /// Element parameters.
    pub params: NandSpinParams,
}

impl NandSpinRetention {
    /// Wraps a parameter set.
    pub fn new(params: NandSpinParams) -> Self {
        NandSpinRetention { params }
    }
}

impl RetentionDevice for NandSpinRetention {
    fn technology(&self) -> &'static str {
        "nand_spin"
    }

    fn attach(
        &self,
        ckt: &mut Circuit,
        name: &str,
        free: NodeId,
        pinned: NodeId,
        state: RetentionState,
    ) -> Result<(), CircuitError> {
        // Electrically an MTJ with the SOT-assisted effective parameters.
        ckt.device(Box::new(Mtj::new(
            name,
            free,
            pinned,
            self.params.effective(),
            state.into(),
        )))
    }

    fn low_resistance(&self) -> f64 {
        self.params.effective().r_parallel()
    }

    fn high_resistance(&self) -> f64 {
        self.params.effective().r_antiparallel()
    }

    fn retention_time(&self) -> f64 {
        self.params.effective().retention_time()
    }

    fn write_error_rate(&self, drive: f64, pulse: f64) -> f64 {
        self.params.effective().write_error_rate(drive, pulse)
    }

    fn disturb_retention_time(&self, drive: f64) -> f64 {
        self.params.effective().retention_time_under_bias(drive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpg_circuit::dc::operating_point;

    #[test]
    fn state_conversions_round_trip() {
        for s in [RetentionState::LowR, RetentionState::HighR] {
            assert_eq!(RetentionState::from(MtjState::from(s)), s);
            assert_eq!(s.flipped().flipped(), s);
        }
        assert_eq!(
            RetentionState::from(MtjState::Parallel),
            RetentionState::LowR
        );
        assert_eq!(
            MtjState::from(RetentionState::HighR),
            MtjState::AntiParallel
        );
    }

    #[test]
    fn decode_state_reads_the_shared_signal() {
        let sig = vec![("state".to_owned(), 1.0), ("progress".to_owned(), 0.0)];
        assert_eq!(decode_state(&sig), Some(RetentionState::HighR));
        let sig = vec![("state".to_owned(), 0.0)];
        assert_eq!(decode_state(&sig), Some(RetentionState::LowR));
        assert_eq!(decode_state(&[]), None);
    }

    #[test]
    fn mtj_retention_attaches_the_exact_legacy_device() {
        // The bit-identity contract: attaching through the trait and
        // constructing the Mtj directly must produce identical circuits.
        let p = MtjParams::table1();
        let build = |via_trait: bool| {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            let b = ckt.node("b");
            ckt.vsource("v1", a, Circuit::GROUND, 0.3).unwrap();
            ckt.resistor("r1", b, Circuit::GROUND, 1e3).unwrap();
            if via_trait {
                MtjRetention::new(p)
                    .attach(&mut ckt, "x1", a, b, RetentionState::HighR)
                    .unwrap();
            } else {
                ckt.device(Box::new(Mtj::new("x1", a, b, p, MtjState::AntiParallel)))
                    .unwrap();
            }
            let op = operating_point(&mut ckt, &Default::default()).unwrap();
            op.as_slice().to_vec()
        };
        let via_trait = build(true);
        let direct = build(false);
        for (x, y) in via_trait.iter().zip(&direct) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn fefet_switches_on_over_coercive_bias_only() {
        let p = FefetParams::demo();
        let mut f = Fefet::new(
            "f1",
            NodeId::GROUND,
            NodeId::GROUND,
            p,
            RetentionState::LowR,
        );
        // Sub-coercive bias: no switch, ever.
        for k in 0..1000 {
            f.accept_step(&[-0.10, 0.0], k as f64 * 0.1e-9, 0.1e-9);
        }
        assert_eq!(f.retention_state(), RetentionState::LowR);
        // Wrong-direction bias: no switch.
        for k in 0..1000 {
            f.accept_step(&[0.4, 0.0], k as f64 * 0.1e-9, 0.1e-9);
        }
        assert_eq!(f.retention_state(), RetentionState::LowR);
        // −0.4 V (cell → CTRL direction) for 10 ns: switches low → high.
        for k in 0..100 {
            f.accept_step(&[-0.4, 0.0], k as f64 * 0.1e-9, 0.1e-9);
        }
        assert_eq!(f.retention_state(), RetentionState::HighR);
        assert_eq!(f.flips(), 1);
        // And back with the opposite polarity.
        for k in 0..100 {
            f.accept_step(&[0.4, 0.0], k as f64 * 0.1e-9, 0.1e-9);
        }
        assert_eq!(f.retention_state(), RetentionState::LowR);
    }

    #[test]
    fn fefet_resistances_and_stamp() {
        let p = FefetParams::demo();
        let f = Fefet::new(
            "f1",
            NodeId::GROUND,
            NodeId::GROUND,
            p,
            RetentionState::HighR,
        );
        let mut s = DeviceStamp::new(2);
        f.load(&[0.4, 0.1], &mut s);
        assert!((s.current[0] - 0.3 / p.r_high).abs() < 1e-15);
        assert!((s.current[0] + s.current[1]).abs() < 1e-18);
        let ratio = p.r_high / p.r_low;
        assert!(ratio > 50.0, "FeFET window should be large: {ratio}");
    }

    #[test]
    fn fefet_switching_time_law() {
        let p = FefetParams::demo();
        assert_eq!(p.switching_time(0.1), f64::INFINITY);
        assert_eq!(p.switching_time(p.v_coercive), f64::INFINITY);
        // 2×V_c → τ_switch.
        assert!((p.switching_time(2.0 * p.v_coercive) - p.tau_switch).abs() < 1e-15);
    }

    #[test]
    fn technology_labels_are_stable() {
        assert_eq!(MtjRetention::new(MtjParams::table1()).technology(), "mtj");
        assert_eq!(
            FefetRetention::new(FefetParams::demo()).technology(),
            "fefet"
        );
        assert_eq!(
            NandSpinRetention::new(NandSpinParams::demo()).technology(),
            "nand_spin"
        );
    }

    #[test]
    fn nand_spin_assist_lowers_write_cost() {
        let ns = NandSpinParams::demo();
        let eff = ns.effective();
        let base = ns.mtj;
        assert!((eff.i_critical() - base.i_critical() / 4.0).abs() < 1e-12);
        assert!(eff.tau_d < base.tau_d);
        // The same drive current writes with a far lower error rate.
        let i = 1.5 * base.i_critical();
        let dev = NandSpinRetention::new(ns);
        let mtj = MtjRetention::new(base);
        assert!(dev.write_error_rate(i, 10e-9) < mtj.write_error_rate(i, 10e-9));
        // Read-path resistances are unchanged (same RA product).
        assert_eq!(dev.low_resistance(), mtj.low_resistance());
    }

    #[test]
    fn retention_and_disturb_models_are_sane() {
        let devices: Vec<Box<dyn RetentionDevice>> = vec![
            Box::new(MtjRetention::new(MtjParams::table1())),
            Box::new(FefetRetention::new(FefetParams::demo())),
            Box::new(NandSpinRetention::new(NandSpinParams::demo())),
        ];
        for dev in &devices {
            // Ten-year-class retention at zero disturb.
            assert!(
                dev.retention_time() >= 3.2e8,
                "{}: retention {:e}",
                dev.technology(),
                dev.retention_time()
            );
            let undisturbed = dev.disturb_retention_time(0.0);
            let rel = (undisturbed - dev.retention_time()).abs() / dev.retention_time();
            assert!(
                rel < 1e-9,
                "{}: zero-disturb mismatch {rel:e}",
                dev.technology()
            );
            assert!(dev.high_resistance() > dev.low_resistance());
        }
        // A half-threshold disturb erodes retention by many decades.
        let mtj = MtjRetention::new(MtjParams::table1());
        let half = 0.5 * MtjParams::table1().i_critical();
        assert!(mtj.disturb_retention_time(half) < mtj.retention_time() / 1e10);
        let fefet = FefetRetention::new(FefetParams::demo());
        assert!(
            fefet.disturb_retention_time(0.11) < fefet.retention_time() / 1e3,
            "sub-coercive disturb should erode FeFET retention"
        );
    }
}
