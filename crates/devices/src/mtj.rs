//! Spin-transfer-torque MTJ macromodel.
//!
//! Reproduces the terminal behaviour pinned down by the paper's Table I
//! (perpendicular CoFeB/MgO/CoFeB junctions per \[18, 19\]):
//!
//! | parameter | value |
//! |---|---|
//! | TMR(0) | 100 % |
//! | RA product (P) | 2 Ω·µm² |
//! | V at half-max TMR, `V_h` | 0.5 V |
//! | CIMS critical current density `J_C` | 5×10⁶ A/cm² |
//! | diameter φ | 20 nm |
//! | `I_C` | 15.7 µA |
//! | `R_P(0)` | 6.36 kΩ |
//! | `R_AP(0)` | 12.7 kΩ |
//!
//! **Resistance**: `R_P` is bias-independent, `R_AP(V) = R_P·(1 +
//! TMR(V))` with the standard Lorentzian roll-off `TMR(V) = TMR₀ / (1 +
//! (V/V_h)²)` that fits measured junctions to ~1.5 %.
//!
//! **Switching (CIMS)**: current-induced magnetisation switching with the
//! Sun precessional-regime model — an over-critical current `I > I_C`
//! switches in `τ(I) = τ_D / (I/I_C − 1)`, implemented as a progress
//! integrator so that partial pulses accumulate and under-critical pulses
//! genuinely fail (exercised by the failure-injection tests). The sign
//! convention follows the usual STT rule:
//!
//! * current flowing **free → pinned** (electrons pinned → free) switches
//!   **AP → P**;
//! * current flowing **pinned → free** switches **P → AP**.
//!
//! Terminal order is **(free, pinned)**; positive terminal current flows
//! into the device at that terminal.

use nvpg_circuit::{DeviceStamp, NodeId, NonlinearDevice};

/// Magnetisation state of the free layer relative to the pinned layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MtjState {
    /// Parallel: low resistance, logic convention "1" in this workspace.
    Parallel,
    /// Antiparallel: high resistance.
    AntiParallel,
}

impl MtjState {
    /// The opposite state.
    pub fn flipped(self) -> MtjState {
        match self {
            MtjState::Parallel => MtjState::AntiParallel,
            MtjState::AntiParallel => MtjState::Parallel,
        }
    }
}

/// MTJ macromodel parameters (defaults = Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MtjParams {
    /// Zero-bias tunnelling magnetoresistance ratio (1.0 = 100 %).
    pub tmr0: f64,
    /// Resistance–area product in the parallel state (Ω·m²).
    pub ra_product: f64,
    /// Bias voltage at which TMR halves (V).
    pub v_half: f64,
    /// Critical current density for CIMS (A/m²).
    pub jc: f64,
    /// Junction diameter (m).
    pub diameter: f64,
    /// Characteristic switching time scale `τ_D` (s): an over-drive of
    /// `I = 2·I_C` switches in `τ_D`.
    pub tau_d: f64,
    /// Thermal stability factor `Δ = E_b / k_B T` (≈ 60 for the sub-20 nm
    /// perpendicular junctions of refs. \[18, 19\]).
    pub thermal_stability: f64,
    /// Attempt time `τ_0` of the thermal-activation (Néel–Brown) model
    /// (s), conventionally 1 ns.
    pub attempt_time: f64,
}

impl MtjParams {
    /// Table I values: TMR = 100 %, RA = 2 Ω µm², V_h = 0.5 V,
    /// J_C = 5×10⁶ A/cm², φ = 20 nm, τ_D = 2.5 ns (so the paper's
    /// 1.5×I_C, 10 ns store pulse completes with 2× margin).
    pub fn table1() -> Self {
        MtjParams {
            tmr0: 1.0,
            ra_product: 2.0e-12, // 2 Ω·µm² = 2e-12 Ω·m²
            v_half: 0.5,
            jc: 5e10, // 5e6 A/cm² = 5e10 A/m²
            diameter: 20e-9,
            tau_d: 2.5e-9,
            thermal_stability: 60.0,
            attempt_time: 1e-9,
        }
    }

    /// The Fig. 9(b) technology point: `J_C = 1×10⁶ A/cm²`.
    pub fn table1_low_jc() -> Self {
        MtjParams {
            jc: 1e10,
            ..MtjParams::table1()
        }
    }

    /// Junction area (m²).
    pub fn area(&self) -> f64 {
        let r = self.diameter / 2.0;
        std::f64::consts::PI * r * r
    }

    /// Parallel-state resistance at zero bias: `RA / A`.
    pub fn r_parallel(&self) -> f64 {
        self.ra_product / self.area()
    }

    /// Antiparallel-state resistance at zero bias.
    pub fn r_antiparallel(&self) -> f64 {
        self.r_parallel() * (1.0 + self.tmr0)
    }

    /// Bias-dependent TMR ratio.
    pub fn tmr(&self, v: f64) -> f64 {
        self.tmr0 / (1.0 + (v / self.v_half).powi(2))
    }

    /// CIMS critical current `I_C = J_C · A`.
    pub fn i_critical(&self) -> f64 {
        self.jc * self.area()
    }

    /// Sun-model switching time for a constant drive current `i` (A);
    /// `f64::INFINITY` at or below the critical current.
    pub fn switching_time(&self, i: f64) -> f64 {
        let over = i.abs() / self.i_critical() - 1.0;
        if over <= 0.0 {
            f64::INFINITY
        } else {
            self.tau_d / over
        }
    }

    /// Zero-bias retention time from the Néel–Brown thermal-activation
    /// model: `τ_ret = τ_0 · exp(Δ)`. With the default `Δ = 60` this is
    /// ≈ 3.6 × 10¹⁷ s — the "ten-year nonvolatility" class the paper's
    /// retention technology relies on.
    pub fn retention_time(&self) -> f64 {
        self.attempt_time * self.thermal_stability.exp().min(f64::MAX)
    }

    /// Retention time under a sub-critical disturb current `i`: the
    /// barrier is reduced to `Δ·(1 − |i|/I_C)` (thermally-assisted
    /// switching regime). At or above `I_C` this collapses to the attempt
    /// time.
    pub fn retention_time_under_bias(&self, i: f64) -> f64 {
        let reduction = (1.0 - i.abs() / self.i_critical()).max(0.0);
        self.attempt_time * (self.thermal_stability * reduction).exp()
    }

    /// Write-error rate for a drive `i` applied for `pulse` seconds:
    /// `WER = exp(−pulse/τ(i))`, with `τ` from the Sun model above `I_C`
    /// and from thermal activation below it. This is the simple
    /// exponential-tail model behind the paper's remark that "a shorter
    /// store time needs a higher store current" to keep the error rate
    /// down.
    pub fn write_error_rate(&self, i: f64, pulse: f64) -> f64 {
        let tau = if i.abs() > self.i_critical() {
            self.switching_time(i)
        } else {
            self.retention_time_under_bias(i)
        };
        if tau.is_infinite() {
            1.0
        } else {
            (-pulse / tau).exp()
        }
    }
}

/// An MTJ instance with its switching state.
///
/// Terminals: **(free layer, pinned layer)**.
#[derive(Debug, Clone)]
pub struct Mtj {
    name: String,
    nodes: [NodeId; 2],
    params: MtjParams,
    state: MtjState,
    /// Switching-progress integrator in [0, 1).
    progress: f64,
    /// Completed switching events (diagnostics).
    flips: u32,
}

impl Mtj {
    /// Creates an MTJ named `name` between `free` and `pinned`, starting
    /// in `state`.
    pub fn new(
        name: impl Into<String>,
        free: NodeId,
        pinned: NodeId,
        params: MtjParams,
        state: MtjState,
    ) -> Self {
        Mtj {
            name: name.into(),
            nodes: [free, pinned],
            params,
            state,
            progress: 0.0,
            flips: 0,
        }
    }

    /// Current magnetisation state.
    pub fn mtj_state(&self) -> MtjState {
        self.state
    }

    /// Forces the state (used when (re)initialising a stored pattern).
    pub fn set_state(&mut self, state: MtjState) {
        self.state = state;
        self.progress = 0.0;
    }

    /// Number of completed switching events so far.
    pub fn flips(&self) -> u32 {
        self.flips
    }

    /// The model parameters.
    pub fn params(&self) -> &MtjParams {
        &self.params
    }

    /// Junction resistance at bias `v` (free minus pinned) in the current
    /// state.
    pub fn resistance(&self, v: f64) -> f64 {
        match self.state {
            MtjState::Parallel => self.params.r_parallel(),
            MtjState::AntiParallel => self.params.r_parallel() * (1.0 + self.params.tmr(v)),
        }
    }

    /// Junction current for a bias `v` = v(free) − v(pinned): positive
    /// current flows free → pinned inside the device.
    pub fn current(&self, v: f64) -> f64 {
        v / self.resistance(v)
    }

    fn conductance(&self, v: f64) -> f64 {
        // d(i)/d(v) with i = v / R(v).
        match self.state {
            MtjState::Parallel => 1.0 / self.params.r_parallel(),
            MtjState::AntiParallel => {
                // i = v·G_ap(v), G_ap = G_p / (1 + tmr(v)).
                let gp = 1.0 / self.params.r_parallel();
                let tmr = self.params.tmr(v);
                let g = gp / (1.0 + tmr);
                // d tmr/dv = −tmr0 · 2v/V_h² / (1+(v/Vh)²)²
                let vh2 = self.params.v_half * self.params.v_half;
                let denom = 1.0 + v * v / vh2;
                let dtmr = -self.params.tmr0 * 2.0 * v / vh2 / (denom * denom);
                // dG/dv = −gp·dtmr/(1+tmr)².
                let dg = -gp * dtmr / ((1.0 + tmr) * (1.0 + tmr));
                g + v * dg
            }
        }
    }

    /// `true` if current `i` (free → pinned positive) drives a switch out
    /// of the current state.
    fn drives_switch(&self, i: f64) -> bool {
        match self.state {
            // AP → P needs free → pinned current (positive).
            MtjState::AntiParallel => i > 0.0,
            // P → AP needs pinned → free current (negative).
            MtjState::Parallel => i < 0.0,
        }
    }
}

impl NonlinearDevice for Mtj {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    fn load(&self, v: &[f64], stamp: &mut DeviceStamp) {
        let bias = v[0] - v[1];
        let i = self.current(bias);
        let g = self.conductance(bias);
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
        let i = self.current(bias);
        let ic = self.params.i_critical();
        if self.drives_switch(i) && i.abs() > ic {
            // Progress at rate 1/τ(I): τ_D/(I/I_C − 1).
            let rate = (i.abs() / ic - 1.0) / self.params.tau_d;
            self.progress += rate * dt;
            if self.progress >= 1.0 {
                self.state = self.state.flipped();
                self.progress = 0.0;
                self.flips += 1;
            }
        } else {
            // Sub-critical or wrong-direction drive: the precessional
            // build-up decays quickly (≈ the same time scale).
            self.progress = (self.progress - dt / self.params.tau_d).max(0.0);
        }
    }

    fn state(&self) -> Vec<(String, f64)> {
        vec![
            (
                "state".to_owned(),
                match self.state {
                    MtjState::Parallel => 0.0,
                    MtjState::AntiParallel => 1.0,
                },
            ),
            ("progress".to_owned(), self.progress),
        ]
    }

    fn bypass_tolerance_scale(&self) -> f64 {
        // While a switching event is in flight the next accept_step may
        // flip the state and change the resistance by ~2×; force a full
        // re-evaluation every iteration until the integrator settles.
        if self.progress > 0.0 {
            0.0
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mtj(state: MtjState) -> Mtj {
        Mtj::new(
            "x1",
            NodeId::GROUND,
            NodeId::GROUND,
            MtjParams::table1(),
            state,
        )
    }

    #[test]
    fn table1_derived_quantities() {
        let p = MtjParams::table1();
        assert!(
            (p.r_parallel() - 6.366e3).abs() < 50.0,
            "R_P = {}",
            p.r_parallel()
        );
        assert!(
            (p.r_antiparallel() - 12.73e3).abs() < 100.0,
            "R_AP = {}",
            p.r_antiparallel()
        );
        assert!(
            (p.i_critical() - 15.7e-6).abs() < 0.2e-6,
            "I_C = {}",
            p.i_critical()
        );
        assert!((p.area() - 3.1416e-16).abs() < 1e-19);
    }

    #[test]
    fn tmr_bias_rolloff() {
        let p = MtjParams::table1();
        assert_eq!(p.tmr(0.0), 1.0);
        assert!((p.tmr(0.5) - 0.5).abs() < 1e-12); // half at V_h
        assert!(p.tmr(1.0) < 0.21);
    }

    #[test]
    fn resistance_by_state_and_bias() {
        let m_p = mtj(MtjState::Parallel);
        let m_ap = mtj(MtjState::AntiParallel);
        assert!(m_ap.resistance(0.0) / m_p.resistance(0.0) > 1.99);
        // P-state resistance is bias-independent; AP-state drops with bias.
        assert_eq!(m_p.resistance(0.5), m_p.resistance(0.0));
        assert!(m_ap.resistance(0.5) < m_ap.resistance(0.0));
    }

    #[test]
    fn conductance_matches_numeric_derivative() {
        let m = mtj(MtjState::AntiParallel);
        for v in [-0.6, -0.2, 0.0, 0.1, 0.45, 0.9] {
            let h = 1e-7;
            let num = (m.current(v + h) - m.current(v - h)) / (2.0 * h);
            let ana = m.conductance(v);
            assert!(
                (num - ana).abs() < 1e-6 * num.abs().max(1e-6),
                "v={v}: {num:e} vs {ana:e}"
            );
        }
    }

    #[test]
    fn switching_time_model() {
        let p = MtjParams::table1();
        let ic = p.i_critical();
        assert_eq!(p.switching_time(0.5 * ic), f64::INFINITY);
        assert_eq!(p.switching_time(ic), f64::INFINITY);
        // 1.5×I_C → τ_D / 0.5 = 5 ns.
        assert!((p.switching_time(1.5 * ic) - 5e-9).abs() < 1e-12);
        // 2×I_C → τ_D.
        assert!((p.switching_time(2.0 * ic) - 2.5e-9).abs() < 1e-12);
    }

    #[test]
    fn overdriven_pulse_switches_ap_to_p() {
        let mut m = mtj(MtjState::AntiParallel);
        let i = 1.5 * m.params().i_critical();
        // Positive bias so current flows free → pinned; drive for 10 ns in
        // 0.1 ns steps (the paper's store pulse).
        let v_needed = i * m.resistance(0.0); // approx; direction is what matters
        let mut t = 0.0;
        for _ in 0..100 {
            let dt = 0.1e-9;
            m.accept_step(&[v_needed, 0.0], t, dt);
            t += dt;
        }
        assert_eq!(m.mtj_state(), MtjState::Parallel);
        assert_eq!(m.flips(), 1);
    }

    #[test]
    fn subcritical_pulse_fails_to_switch() {
        let mut m = mtj(MtjState::AntiParallel);
        let v = 0.9 * m.params().i_critical() * m.resistance(0.0);
        for k in 0..1000 {
            m.accept_step(&[v, 0.0], k as f64 * 0.1e-9, 0.1e-9);
        }
        assert_eq!(m.mtj_state(), MtjState::AntiParallel);
        assert_eq!(m.flips(), 0);
    }

    #[test]
    fn wrong_direction_current_does_not_switch() {
        let mut m = mtj(MtjState::AntiParallel);
        // Negative bias: current pinned → free, which drives P → AP, not
        // AP → P.
        let v = -2.0 * m.params().i_critical() * m.resistance(-0.5);
        for k in 0..1000 {
            m.accept_step(&[v, 0.0], k as f64 * 0.1e-9, 0.1e-9);
        }
        assert_eq!(m.mtj_state(), MtjState::AntiParallel);
    }

    #[test]
    fn too_short_pulse_fails_then_progress_decays() {
        let mut m = mtj(MtjState::AntiParallel);
        let ic = m.params().i_critical();
        // Pick the bias that actually delivers 1.5×I_C through the
        // bias-thinned AP resistance (fixed point of v = I·R_AP(v)).
        let mut v = 1.5 * ic * m.resistance(0.0);
        for _ in 0..50 {
            v = 1.5 * ic * m.resistance(v);
        }
        assert!((m.current(v) - 1.5 * ic).abs() < 1e-3 * ic);
        // 2 ns at 1.5×I_C: τ_sw = 5 ns, so no switch.
        for k in 0..20 {
            m.accept_step(&[v, 0.0], k as f64 * 0.1e-9, 0.1e-9);
        }
        assert_eq!(m.mtj_state(), MtjState::AntiParallel);
        // Long idle: progress decays to zero, so a fresh 4 ns pulse still
        // fails (no stale accumulation) ...
        for k in 0..100 {
            m.accept_step(&[0.0, 0.0], 2e-9 + k as f64 * 0.1e-9, 0.1e-9);
        }
        for k in 0..40 {
            m.accept_step(&[v, 0.0], 12e-9 + k as f64 * 0.1e-9, 0.1e-9);
        }
        assert_eq!(m.mtj_state(), MtjState::AntiParallel);
        // ... but continuing the drive past the 5 ns switching time flips.
        for k in 0..15 {
            m.accept_step(&[v, 0.0], 16e-9 + k as f64 * 0.1e-9, 0.1e-9);
        }
        assert_eq!(m.mtj_state(), MtjState::Parallel);
    }

    #[test]
    fn p_to_ap_with_reverse_current() {
        let mut m = mtj(MtjState::Parallel);
        let ic = m.params().i_critical();
        let v = -1.5 * ic * m.params().r_parallel();
        for k in 0..100 {
            m.accept_step(&[v, 0.0], k as f64 * 0.1e-9, 0.1e-9);
        }
        assert_eq!(m.mtj_state(), MtjState::AntiParallel);
    }

    #[test]
    fn stamp_satisfies_kcl() {
        let m = mtj(MtjState::Parallel);
        let mut s = DeviceStamp::new(2);
        m.load(&[0.4, 0.1], &mut s);
        assert!((s.current[0] + s.current[1]).abs() < 1e-18);
        let expect = 0.3 / m.params().r_parallel();
        assert!((s.current[0] - expect).abs() < 1e-12);
    }

    #[test]
    fn state_signals() {
        let mut m = mtj(MtjState::AntiParallel);
        let st = NonlinearDevice::state(&m);
        assert_eq!(st[0], ("state".to_owned(), 1.0));
        m.set_state(MtjState::Parallel);
        let st = NonlinearDevice::state(&m);
        assert_eq!(st[0], ("state".to_owned(), 0.0));
        assert_eq!(st[1].0, "progress");
    }

    #[test]
    fn retention_is_astronomically_long_at_zero_bias() {
        let p = MtjParams::table1();
        // Δ = 60 ⇒ τ ≈ 1 ns · e^60 ≈ 10^17 s ≫ 10 years (3.2e8 s).
        assert!(p.retention_time() > 3.2e8 * 1e3);
        // Unbiased retention equals the biased model at i = 0.
        assert_eq!(p.retention_time(), p.retention_time_under_bias(0.0));
    }

    #[test]
    fn disturb_current_degrades_retention() {
        let p = MtjParams::table1();
        let ic = p.i_critical();
        let r0 = p.retention_time_under_bias(0.0);
        let r_half = p.retention_time_under_bias(0.5 * ic);
        let r_90 = p.retention_time_under_bias(0.9 * ic);
        assert!(r_half < r0 / 1e10);
        assert!(r_90 < r_half);
        // At the critical current the barrier is gone.
        assert!((p.retention_time_under_bias(ic) - p.attempt_time).abs() < 1e-12);
    }

    #[test]
    fn write_error_rate_tradeoff() {
        // The paper's design point: 1.5×I_C for 10 ns → τ_sw = 5 ns →
        // WER = e⁻² ≈ 0.135 under this simple tail model; raising the
        // current or lengthening the pulse both cut the error rate.
        let p = MtjParams::table1();
        let ic = p.i_critical();
        let base = p.write_error_rate(1.5 * ic, 10e-9);
        assert!((base - (-2.0_f64).exp()).abs() < 1e-6);
        assert!(p.write_error_rate(2.0 * ic, 10e-9) < base);
        assert!(p.write_error_rate(1.5 * ic, 20e-9) < base);
        // Sub-critical "write" is hopeless within a pulse.
        assert!(p.write_error_rate(0.5 * ic, 10e-9) > 0.999_999);
        // At exactly I_C the barrier vanishes and thermal activation
        // switches within a few attempt times: WER = e^{-pulse/τ0}.
        let at_ic = p.write_error_rate(ic, 10e-9);
        assert!(
            (at_ic - (-10.0_f64).exp()).abs() < 1e-7,
            "WER(I_C) = {at_ic:e}"
        );
    }

    #[test]
    fn low_jc_variant() {
        let p = MtjParams::table1_low_jc();
        assert!((p.i_critical() - 3.14e-6).abs() < 0.05e-6);
    }
}
