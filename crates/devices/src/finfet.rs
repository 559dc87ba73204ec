//! 20 nm FinFET compact model.
//!
//! A smooth single-piece model in the spirit of EKV, calibrated to the
//! headline numbers of the public 20 nm multi-gate predictive technology
//! model (PTM-MG) that the paper simulates with:
//!
//! * EKV interpolation `F(u) = ln²(1 + e^{u/2})` gives a continuous
//!   transition from exponential subthreshold conduction (slope set by the
//!   ideality factor `n`) to square-law strong inversion;
//! * drain-induced barrier lowering (DIBL) shifts the threshold with
//!   drain bias — this is what makes off-state leakage grow with `V_DS`
//!   and is essential for the Fig. 3(a) leakage-vs-`V_CTRL` shape;
//! * velocity saturation divides the long-channel current by
//!   `1 + V_ov/V_c`;
//! * channel-length modulation adds the familiar `1 + λ·V_DS` slope;
//! * width quantisation: drive scales with the **fin count**, each fin
//!   contributing `2·H_fin + W_fin` of effective width (Table I:
//!   15 nm × 28 nm fins → 71 nm per fin).
//!
//! The model is terminal-symmetric (source/drain swap for negative
//! `V_DS`) and PMOS devices are handled by mirroring all voltages.
//! Conductances for the Newton stamp are obtained by central finite
//! differences of the (cheap) current equation; gate/junction charges use
//! a constant-capacitance partition, which is sufficient for the
//! energy-shape fidelity this study needs.

use nvpg_circuit::{DeviceStamp, NodeId, NonlinearDevice};

/// N- or P-channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// N-channel (electron) device.
    Nmos,
    /// P-channel (hole) device.
    Pmos,
}

/// FinFET model parameters.
///
/// Defaults (via [`FinFetParams::nmos_20nm`] / [`FinFetParams::pmos_20nm`])
/// are calibrated so that a one-fin device at `V_DD = 0.9 V` shows
/// * on-current of order 100 µA,
/// * off-current of a few nA,
/// * subthreshold swing ≈ 75 mV/dec,
///
/// matching the 20 nm PTM-MG HP flavour closely enough for the ratios the
/// paper's figures depend on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FinFetParams {
    /// Channel polarity.
    pub polarity: Polarity,
    /// Number of parallel fins (width quantisation), ≥ 1.
    pub fins: u32,
    /// Channel length (m).
    pub l: f64,
    /// Fin width (m).
    pub fin_width: f64,
    /// Fin height (m).
    pub fin_height: f64,
    /// Zero-bias threshold voltage magnitude (V).
    pub vth0: f64,
    /// Subthreshold ideality factor `n` (SS = n·φt·ln10).
    pub n_factor: f64,
    /// Mobility–oxide-capacitance product `µ·C_ox` (A/V²); the EKV
    /// specific current is `I_s = i_spec · (W_eff/L) · n · φt²`, and
    /// `I_D = I_s·[F(u_f) − F(u_r)]`.
    pub i_spec: f64,
    /// DIBL coefficient (V of Vth shift per V of `V_DS`).
    pub dibl: f64,
    /// Velocity-saturation critical voltage (V).
    pub v_crit: f64,
    /// Channel-length-modulation coefficient (1/V).
    pub lambda: f64,
    /// Gate capacitance per fin (F).
    pub cg_per_fin: f64,
    /// Source/drain junction capacitance per fin (F).
    pub cj_per_fin: f64,
    /// Absolute temperature (K).
    pub temp: f64,
}

impl FinFetParams {
    /// 20 nm NMOS defaults (Table I geometry).
    pub fn nmos_20nm() -> Self {
        FinFetParams {
            polarity: Polarity::Nmos,
            fins: 1,
            l: 20e-9,
            fin_width: 15e-9,
            fin_height: 28e-9,
            vth0: 0.30,
            n_factor: 1.22,
            i_spec: 1.05e-3,
            dibl: 0.09,
            v_crit: 0.35,
            lambda: 0.06,
            cg_per_fin: 55e-18,
            cj_per_fin: 18e-18,
            temp: 300.0,
        }
    }

    /// 20 nm PMOS defaults (lower mobility, matched |Vth|).
    pub fn pmos_20nm() -> Self {
        FinFetParams {
            polarity: Polarity::Pmos,
            i_spec: 0.75e-3,
            ..FinFetParams::nmos_20nm()
        }
    }

    /// Returns a copy with the given fin count.
    ///
    /// # Panics
    ///
    /// Panics if `fins == 0`.
    #[must_use]
    pub fn with_fins(mut self, fins: u32) -> Self {
        assert!(fins >= 1, "a FinFET needs at least one fin");
        self.fins = fins;
        self
    }

    /// Effective electrical width: `fins · (2·H_fin + W_fin)`.
    pub fn w_eff(&self) -> f64 {
        self.fins as f64 * (2.0 * self.fin_height + self.fin_width)
    }

    /// Thermal voltage at the model temperature.
    pub fn phi_t(&self) -> f64 {
        const K_OVER_Q: f64 = 1.380_649e-23 / 1.602_176_634e-19;
        K_OVER_Q * self.temp
    }

    /// Subthreshold swing in volts/decade.
    pub fn subthreshold_swing(&self) -> f64 {
        self.n_factor * self.phi_t() * std::f64::consts::LN_10
    }
}

/// EKV interpolation function `F(u) = ln²(1 + e^{u/2})`, numerically safe
/// for large |u|.
#[inline]
fn ekv_f(u: f64) -> f64 {
    let half = 0.5 * u;
    let ln1p = if half > 40.0 {
        half // ln(1+e^x) → x
    } else if half < -40.0 {
        return 0.0; // e^{2·half} underflows anyway
    } else {
        half.exp().ln_1p()
    };
    ln1p * ln1p
}

/// A FinFET instance: three terminals in the order **drain, gate, source**
/// (body tied to source rail implicitly, as is usual for fully-depleted
/// fins).
#[derive(Debug, Clone)]
pub struct FinFet {
    name: String,
    nodes: [NodeId; 3],
    params: FinFetParams,
}

impl FinFet {
    /// Creates a FinFET named `name` on nodes `(drain, gate, source)`.
    pub fn new(
        name: impl Into<String>,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        params: FinFetParams,
    ) -> Self {
        FinFet {
            name: name.into(),
            nodes: [drain, gate, source],
            params,
        }
    }

    /// The model parameters.
    pub fn params(&self) -> &FinFetParams {
        &self.params
    }

    /// Drain current `I_D` (flowing drain → channel → source for NMOS with
    /// positive `V_DS`) as a function of absolute terminal voltages.
    ///
    /// This is the raw model equation; the circuit stamp is derived from
    /// it by finite differences.
    pub fn ids(&self, vd: f64, vg: f64, vs: f64) -> f64 {
        let p = &self.params;
        // PMOS: mirror all voltages, compute as NMOS, negate the current.
        let (vd, vg, vs, sign) = match p.polarity {
            Polarity::Nmos => (vd, vg, vs, 1.0),
            Polarity::Pmos => (-vd, -vg, -vs, -1.0),
        };
        // Source/drain symmetry: compute with the lower terminal as source.
        let (vdx, vsx, dir) = if vd >= vs {
            (vd, vs, 1.0)
        } else {
            (vs, vd, -1.0)
        };

        let phi_t = p.phi_t();
        let vds = vdx - vsx;
        let vth = p.vth0 - p.dibl * vds;
        // Pinch-off voltage referenced to the source.
        let vp = (vg - vsx - vth) / p.n_factor;
        let u_f = vp / phi_t;
        let u_r = (vp - vds) / phi_t;
        let (ff, fr) = (ekv_f(u_f), ekv_f(u_r));

        let i_s = p.i_spec * (p.w_eff() / p.l) * p.n_factor * phi_t * phi_t;
        let i_long = i_s * (ff - fr);

        // Velocity saturation: effective overdrive ≈ 2·φt·√F(u_f).
        let v_ov = 2.0 * phi_t * ff.sqrt();
        let i_vsat = i_long / (1.0 + v_ov / p.v_crit);

        // Channel-length modulation.
        let i = i_vsat * (1.0 + p.lambda * vds);
        sign * dir * i
    }
}

impl NonlinearDevice for FinFet {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    fn load(&self, v: &[f64], stamp: &mut DeviceStamp) {
        let (vd, vg, vs) = (v[0], v[1], v[2]);
        let id = self.ids(vd, vg, vs);
        // Terminal currents into the device: drain +I_D, source −I_D.
        stamp.current[0] = id;
        stamp.current[2] = -id;

        // Central-difference conductances.
        const H: f64 = 1e-6;
        let dd = (self.ids(vd + H, vg, vs) - self.ids(vd - H, vg, vs)) / (2.0 * H);
        let dg = (self.ids(vd, vg + H, vs) - self.ids(vd, vg - H, vs)) / (2.0 * H);
        let ds = (self.ids(vd, vg, vs + H) - self.ids(vd, vg, vs - H)) / (2.0 * H);
        stamp.conductance[0][0] = dd;
        stamp.conductance[0][1] = dg;
        stamp.conductance[0][2] = ds;
        stamp.conductance[2][0] = -dd;
        stamp.conductance[2][1] = -dg;
        stamp.conductance[2][2] = -ds;

        // Constant-capacitance charge partition: gate charge splits to
        // drain and source; junction caps to the local reference (ground).
        let p = &self.params;
        let cg = p.cg_per_fin * p.fins as f64;
        let cj = p.cj_per_fin * p.fins as f64;
        let half = 0.5 * cg;
        stamp.charge[1] = cg * vg - half * vd - half * vs;
        stamp.charge[0] = half * (vd - vg) + cj * vd;
        stamp.charge[2] = half * (vs - vg) + cj * vs;
        stamp.capacitance[1][1] = cg;
        stamp.capacitance[1][0] = -half;
        stamp.capacitance[1][2] = -half;
        stamp.capacitance[0][1] = -half;
        stamp.capacitance[0][0] = half + cj;
        stamp.capacitance[2][1] = -half;
        stamp.capacitance[2][2] = half + cj;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nfet() -> FinFet {
        FinFet::new(
            "m1",
            NodeId::GROUND,
            NodeId::GROUND,
            NodeId::GROUND,
            FinFetParams::nmos_20nm(),
        )
    }

    fn pfet() -> FinFet {
        FinFet::new(
            "m2",
            NodeId::GROUND,
            NodeId::GROUND,
            NodeId::GROUND,
            FinFetParams::pmos_20nm(),
        )
    }

    #[test]
    fn on_and_off_currents_in_calibrated_decades() {
        let m = nfet();
        let i_on = m.ids(0.9, 0.9, 0.0);
        let i_off = m.ids(0.9, 0.0, 0.0);
        assert!(
            (20e-6..400e-6).contains(&i_on),
            "I_on = {i_on:e} out of expected decade"
        );
        assert!(
            (0.5e-9..30e-9).contains(&i_off),
            "I_off = {i_off:e} out of expected decade"
        );
        assert!(i_on / i_off > 1e3, "on/off ratio too small");
    }

    #[test]
    fn subthreshold_slope_is_exponential() {
        let m = nfet();
        let p = m.params();
        let i1 = m.ids(0.9, 0.05, 0.0);
        let i2 = m.ids(0.9, 0.05 + p.subthreshold_swing(), 0.0);
        // One swing should be one decade, within 15 %.
        let decades = (i2 / i1).log10();
        assert!((decades - 1.0).abs() < 0.15, "decades = {decades}");
    }

    #[test]
    fn dibl_raises_leakage_with_drain_bias() {
        let m = nfet();
        let lo = m.ids(0.1, 0.0, 0.0);
        let hi = m.ids(0.9, 0.0, 0.0);
        assert!(hi > 2.0 * lo, "DIBL effect absent: {lo:e} vs {hi:e}");
    }

    #[test]
    fn negative_gate_bias_cuts_leakage_exponentially() {
        // This is the V_CTRL leakage-reduction mechanism of Fig. 3(a).
        let m = nfet();
        let at0 = m.ids(0.9, 0.0, 0.0);
        let at70mv = m.ids(0.9, 0.0, 0.07); // source raised 70 mV
        assert!(
            at0 / at70mv > 3.0,
            "source bias should cut leakage: {at0:e} vs {at70mv:e}"
        );
    }

    #[test]
    fn source_drain_symmetry() {
        let m = nfet();
        let fwd = m.ids(0.5, 0.9, 0.1);
        let rev = m.ids(0.1, 0.9, 0.5);
        assert!(
            (fwd + rev).abs() < 1e-12 * fwd.abs().max(1.0),
            "{fwd} vs {rev}"
        );
        assert_eq!(m.ids(0.3, 0.9, 0.3), 0.0);
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let n = nfet();
        let p = pfet();
        // PMOS conducting: source at 0.9, gate at 0, drain at 0.
        let ip = p.ids(0.0, 0.0, 0.9);
        assert!(ip < 0.0, "PMOS drain current should be negative: {ip:e}");
        // Same magnitude class as the NMOS scaled by mobility ratio.
        let in_ = n.ids(0.9, 0.9, 0.0);
        let ratio = -ip / in_;
        let expect = FinFetParams::pmos_20nm().i_spec / FinFetParams::nmos_20nm().i_spec;
        assert!((ratio - expect).abs() < 0.3 * expect, "ratio = {ratio}");
    }

    #[test]
    fn fin_count_scales_current() {
        let one = nfet();
        let mut params = FinFetParams::nmos_20nm().with_fins(7);
        params.temp = 300.0;
        let seven = FinFet::new("m7", NodeId::GROUND, NodeId::GROUND, NodeId::GROUND, params);
        let r = seven.ids(0.9, 0.9, 0.0) / one.ids(0.9, 0.9, 0.0);
        assert!((r - 7.0).abs() < 1e-9, "fin scaling ratio = {r}");
        assert_eq!(params.w_eff(), 7.0 * 71e-9);
    }

    #[test]
    #[should_panic(expected = "at least one fin")]
    fn zero_fins_rejected() {
        let _ = FinFetParams::nmos_20nm().with_fins(0);
    }

    /// `n` evenly spaced gate biases from 0 to 0.9 V.
    fn gate_sweep(n: usize) -> impl Iterator<Item = f64> {
        (0..n).map(move |i| 0.9 * i as f64 / (n - 1) as f64)
    }

    #[test]
    fn drain_current_is_monotone_in_the_gate() {
        // Drain at 0.9 V, source grounded. The NMOS turns on as the gate
        // rises; for the PMOS the high terminal acts as the source, so it
        // is on at V_G = 0 and turns off as the gate nears 0.9 V.
        let on: Vec<f64> = gate_sweep(91).map(|vg| nfet().ids(0.9, vg, 0.0)).collect();
        for w in on.windows(2) {
            assert!(w[1] >= w[0], "NMOS {w:?}");
        }
        let off: Vec<f64> = gate_sweep(91)
            .map(|vg| pfet().ids(0.9, vg, 0.0).abs())
            .collect();
        assert!(off[0] > 1e-6, "PMOS on at V_G = 0: {:e}", off[0]);
        assert!(off[90] < 1e-7, "PMOS off at V_G = 0.9: {:e}", off[90]);
        for w in off.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "PMOS {w:?}");
        }
    }

    #[test]
    fn max_gm_threshold_matches_the_card() {
        // The max-g_m method at low V_DS: extrapolate the tangent at the
        // peak transconductance to I_D = 0, less V_DS / 2.
        let (m, vds, h) = (nfet(), 0.05, 1e-5);
        let gm = |vg: f64| (m.ids(vds, vg + h, 0.0) - m.ids(vds, vg - h, 0.0)) / (2.0 * h);
        let vg_star = gate_sweep(401)
            .max_by(|a, b| gm(*a).total_cmp(&gm(*b)))
            .expect("non-empty sweep");
        let vth = vg_star - m.ids(vds, vg_star, 0.0) / gm(vg_star) - 0.5 * vds;
        let card = m.params().vth0;
        assert!((vth - card).abs() < 0.12, "extracted {vth} vs card {card}");
    }

    #[test]
    fn saturation_region_flattens() {
        let m = nfet();
        let i1 = m.ids(0.5, 0.9, 0.0);
        let i2 = m.ids(0.9, 0.9, 0.0);
        // Saturated: less than 25 % growth over 0.4 V of drain bias.
        assert!(i2 > i1 && i2 < 1.25 * i1, "{i1:e} -> {i2:e}");
        // Linear region: strong sensitivity at low Vds.
        let lin1 = m.ids(0.02, 0.9, 0.0);
        let lin2 = m.ids(0.04, 0.9, 0.0);
        assert!(lin2 > 1.7 * lin1);
    }

    #[test]
    fn stamp_is_consistent_with_ids() {
        let m = nfet();
        let v = [0.7, 0.9, 0.0];
        let mut stamp = DeviceStamp::new(3);
        m.load(&v, &mut stamp);
        let id = m.ids(v[0], v[1], v[2]);
        assert_eq!(stamp.current[0], id);
        assert_eq!(stamp.current[2], -id);
        assert_eq!(stamp.current[1], 0.0); // no gate leakage
                                           // KCL: currents sum to zero.
        let sum: f64 = stamp.current.iter().sum();
        assert!(sum.abs() < 1e-18);
        // Conductance rows for drain/source are opposite.
        for u in 0..3 {
            assert!((stamp.conductance[0][u] + stamp.conductance[2][u]).abs() < 1e-15);
        }
        // gm and gds positive in saturation.
        assert!(stamp.conductance[0][1] > 0.0, "gm");
        assert!(stamp.conductance[0][0] > 0.0, "gds");
    }

    #[test]
    fn charge_partition_is_charge_neutral_in_caps() {
        let m = nfet();
        let mut stamp = DeviceStamp::new(3);
        m.load(&[0.9, 0.9, 0.0], &mut stamp);
        // The gate charge capacitance row sums to zero (pure inter-terminal
        // capacitance); drain/source rows include grounded junction caps.
        let gate_row_sum: f64 = stamp.capacitance[1].iter().sum();
        assert!(gate_row_sum.abs() < 1e-24);
    }

    #[test]
    fn thermal_parameters() {
        let p = FinFetParams::nmos_20nm();
        assert!((p.phi_t() - 0.02585).abs() < 1e-4);
        let ss = p.subthreshold_swing();
        assert!((0.06..0.09).contains(&ss), "SS = {ss}");
    }
}
