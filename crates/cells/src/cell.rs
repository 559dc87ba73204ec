//! Cell netlist builders: volatile 6T-SRAM and the PS-FinFET NV-SRAM of
//! Fig. 2.
//!
//! Both cells hang from a virtual-V_DD rail fed through a header pFinFET
//! power switch (fin count `N_FSW`), exactly as the paper's Fig. 2. The
//! NV-SRAM adds, per storage node, a PS-FinFET (gate on the SR line) in
//! series with an MTJ to the CTRL line, plus a 0 V ammeter source so
//! experiments can read the exact MTJ current (`i(iaml)`, `i(iamr)`;
//! positive = cell → CTRL, the paper's H-store direction).
//!
//! MTJ orientation: the **pinned layer faces the cell**, the free layer
//! faces CTRL. H-store current (cell → CTRL) therefore switches P → AP
//! and L-store current (CTRL → cell) switches AP → P, matching the
//! paper's `I_MTJ^{P→AP}`/`I_MTJ^{AP→P}` labels in Fig. 3(b,c).
//!
//! Data/state convention: `Q = H` stored ⇒ Q-side MTJ antiparallel,
//! QB-side MTJ parallel.

use nvpg_circuit::dc::DcOptions;
use nvpg_circuit::{Circuit, CircuitError, NodeId};
use nvpg_devices::finfet::FinFet;
use nvpg_devices::mtj::MtjState;

use crate::design::CellDesign;

/// Which cell flavour to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Ordinary volatile 6T-SRAM cell (the paper's OSR baseline).
    Volatile6T,
    /// PS-FinFET NV-SRAM cell (Fig. 2).
    NvSram,
}

/// Initial magnetisation of the two MTJs `(Q side, QB side)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MtjConfig {
    /// Q-side junction.
    pub left: MtjState,
    /// QB-side junction.
    pub right: MtjState,
}

impl MtjConfig {
    /// The pattern that a store of `Q = data` produces.
    pub fn stored(data_q: bool) -> Self {
        if data_q {
            MtjConfig {
                left: MtjState::AntiParallel,
                right: MtjState::Parallel,
            }
        } else {
            MtjConfig {
                left: MtjState::Parallel,
                right: MtjState::AntiParallel,
            }
        }
    }
}

/// Node handles of a built cell.
#[derive(Debug, Clone, Copy)]
pub struct CellNodes {
    /// Always-on supply rail (source side of the power switch).
    pub vdd_rail: NodeId,
    /// Virtual V_DD (drain side of the power switch).
    pub vvdd: NodeId,
    /// Storage node Q.
    pub q: NodeId,
    /// Storage node QB.
    pub qb: NodeId,
    /// Bitline.
    pub bl: NodeId,
    /// Complement bitline.
    pub blb: NodeId,
    /// Wordline.
    pub wl: NodeId,
    /// Power-switch gate.
    pub pg: NodeId,
    /// NV-only nodes (`None` for the 6T cell).
    pub nv: Option<NvNodes>,
}

impl CellNodes {
    /// DC options that seed the normal-mode operating point holding
    /// `Q = data_q`: the storage nodes split across the `vdd` rail, the
    /// virtual rail and both bitlines at `vdd`.
    pub fn hold_options(&self, vdd: f64, data_q: bool) -> DcOptions {
        let (vq, vqb) = if data_q { (vdd, 0.0) } else { (0.0, vdd) };
        DcOptions::default()
            .with_nodeset(self.q, vq)
            .with_nodeset(self.qb, vqb)
            .with_nodeset(self.vvdd, vdd)
            .with_nodeset(self.bl, vdd)
            .with_nodeset(self.blb, vdd)
    }
}

/// NV-SRAM-specific nodes.
#[derive(Debug, Clone, Copy)]
pub struct NvNodes {
    /// SR line (PS-FinFET gates).
    pub sr: NodeId,
    /// CTRL line (MTJ far terminals).
    pub ctrl: NodeId,
    /// Q-side PS-FinFET/MTJ junction.
    pub ml: NodeId,
    /// QB-side PS-FinFET/MTJ junction.
    pub mr: NodeId,
}

/// Source names a built cell exposes (reprogram with
/// [`Circuit::set_source`]).
pub mod sources {
    /// Supply rail source.
    pub const VDD: &str = "vdd";
    /// Power-switch gate source.
    pub const VPG: &str = "vpg";
    /// Wordline source.
    pub const VWL: &str = "vwl";
    /// Bitline driver source.
    pub const VBL: &str = "vbl";
    /// Complement-bitline driver source.
    pub const VBLB: &str = "vblb";
    /// SR-line source (NV only).
    pub const VSR: &str = "vsr";
    /// CTRL-line source (NV only).
    pub const VCTRL: &str = "vctrl";
    /// Q-side MTJ ammeter (0 V source; NV only).
    pub const IAM_L: &str = "iaml";
    /// QB-side MTJ ammeter (0 V source; NV only).
    pub const IAM_R: &str = "iamr";
}

/// Builds a cell into `ckt` and returns its node handles.
///
/// All drive sources start in the **normal operation mode**: power switch
/// on, wordline low, bitlines precharged to V_DD, SR off, CTRL at its
/// normal-mode bias.
///
/// # Errors
///
/// Propagates [`CircuitError`] from netlist construction (duplicate names
/// if called twice on one circuit).
pub fn build_cell(
    ckt: &mut Circuit,
    design: &CellDesign,
    kind: CellKind,
    mtjs: MtjConfig,
) -> Result<CellNodes, CircuitError> {
    let c = &design.conditions;
    let gnd = Circuit::GROUND;

    let vdd_rail = ckt.node("vdd_rail");
    let vvdd = ckt.node("vvdd");
    let q = ckt.node("q");
    let qb = ckt.node("qb");
    let bl = ckt.node("bl");
    let blb = ckt.node("blb");
    let bl_drv = ckt.node("bl_drv");
    let blb_drv = ckt.node("blb_drv");
    let wl = ckt.node("wl");
    let pg = ckt.node("pg");

    // Drive sources (normal-mode defaults).
    ckt.vsource(sources::VDD, vdd_rail, gnd, c.vdd)?;
    ckt.vsource(sources::VPG, pg, gnd, 0.0)?;
    ckt.vsource(sources::VWL, wl, gnd, 0.0)?;
    ckt.vsource(sources::VBL, bl_drv, gnd, c.vdd)?;
    ckt.vsource(sources::VBLB, blb_drv, gnd, c.vdd)?;

    // Header power switch (high-V_th pFinFET, N_FSW fins): drain = vvdd,
    // source = rail.
    let mut sw_params = design.pmos.with_fins(design.fins_power_switch);
    sw_params.vth0 += design.power_switch_vth_boost;
    ckt.device(Box::new(FinFet::new("msw", vvdd, pg, vdd_rail, sw_params)))?;

    // 6T core.
    let pu = design.pmos.with_fins(design.fins_load);
    let pd = design.nmos.with_fins(design.fins_driver);
    let pa = design.nmos.with_fins(design.fins_access);
    ckt.device(Box::new(FinFet::new("mpul", q, qb, vvdd, pu)))?;
    ckt.device(Box::new(FinFet::new("mpur", qb, q, vvdd, pu)))?;
    ckt.device(Box::new(FinFet::new("mpdl", q, qb, gnd, pd)))?;
    ckt.device(Box::new(FinFet::new("mpdr", qb, q, gnd, pd)))?;
    ckt.device(Box::new(FinFet::new("mpgl", bl, wl, q, pa)))?;
    ckt.device(Box::new(FinFet::new("mpgr", blb, wl, qb, pa)))?;

    // Bitline loads and drivers.
    ckt.capacitor("cbl", bl, gnd, design.c_bitline)?;
    ckt.capacitor("cblb", blb, gnd, design.c_bitline)?;
    ckt.resistor("rbl", bl_drv, bl, design.r_bitline_driver)?;
    ckt.resistor("rblb", blb_drv, blb, design.r_bitline_driver)?;

    let nv = match kind {
        CellKind::Volatile6T => None,
        CellKind::NvSram => {
            let sr = ckt.node("sr");
            let ctrl = ckt.node("ctrl");
            let ml = ckt.node("ml");
            let mr = ckt.node("mr");
            let mla = ckt.node("mla");
            let mra = ckt.node("mra");

            ckt.vsource(sources::VSR, sr, gnd, 0.0)?;
            ckt.vsource(sources::VCTRL, ctrl, gnd, c.v_ctrl_normal)?;

            // PS-FinFETs: drain = storage node, gate = SR, source = MTJ.
            let ps = design.nmos.with_fins(design.fins_ps);
            ckt.device(Box::new(FinFet::new("mpsl", q, sr, ml, ps)))?;
            ckt.device(Box::new(FinFet::new("mpsr", qb, sr, mr, ps)))?;

            // Ammeters (0 V sources) in series with the MTJs; positive
            // i(iamX) = cell → CTRL current.
            ckt.vsource(sources::IAM_L, ml, mla, 0.0)?;
            ckt.vsource(sources::IAM_R, mr, mra, 0.0)?;

            // Retention elements: pinned side toward the cell (mla/mra),
            // free side on the CTRL line. Terminal order is (free, pinned).
            let nvdev = design.retention_device();
            nvdev.attach(ckt, "xl", ctrl, mla, mtjs.left.into())?;
            nvdev.attach(ckt, "xr", ctrl, mra, mtjs.right.into())?;

            Some(NvNodes { sr, ctrl, ml, mr })
        }
    };

    Ok(CellNodes {
        vdd_rail,
        vvdd,
        q,
        qb,
        bl,
        blb,
        wl,
        pg,
        nv,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpg_circuit::dc::operating_point;

    #[test]
    fn sixt_cell_holds_both_states() {
        for data in [true, false] {
            let mut ckt = Circuit::new();
            let d = CellDesign::table1();
            let n =
                build_cell(&mut ckt, &d, CellKind::Volatile6T, MtjConfig::stored(true)).unwrap();
            let op = operating_point(&mut ckt, &n.hold_options(0.9, data)).unwrap();
            let (q, qb) = (op.voltage(n.q), op.voltage(n.qb));
            if data {
                assert!(q > 0.8 && qb < 0.1, "data=1: q={q}, qb={qb}");
            } else {
                assert!(q < 0.1 && qb > 0.8, "data=0: q={q}, qb={qb}");
            }
            // Virtual VDD barely droops through the on power switch.
            assert!(op.voltage(n.vvdd) > 0.88);
        }
    }

    #[test]
    fn nvsram_cell_holds_state_with_ps_off() {
        let mut ckt = Circuit::new();
        let d = CellDesign::table1();
        let n = build_cell(&mut ckt, &d, CellKind::NvSram, MtjConfig::stored(true)).unwrap();
        let op = operating_point(&mut ckt, &n.hold_options(0.9, true)).unwrap();
        assert!(op.voltage(n.q) > 0.8, "q = {}", op.voltage(n.q));
        assert!(op.voltage(n.qb) < 0.1);
        // With SR = 0 the MTJ currents are leakage-level (≪ I_C).
        let il = op.source_current(sources::IAM_L).unwrap().abs();
        let ir = op.source_current(sources::IAM_R).unwrap().abs();
        assert!(il < 1e-6 && ir < 1e-6, "MTJ leakage: {il:e}, {ir:e}");
    }

    #[test]
    fn nv_cell_leaks_more_than_6t_but_same_order() {
        let d = CellDesign::table1();
        let mut c6 = Circuit::new();
        let n6 = build_cell(&mut c6, &d, CellKind::Volatile6T, MtjConfig::stored(true)).unwrap();
        let op6 = operating_point(&mut c6, &n6.hold_options(0.9, true)).unwrap();
        let i6 = -op6.source_current(sources::VDD).unwrap();

        let mut cn = Circuit::new();
        let nn = build_cell(&mut cn, &d, CellKind::NvSram, MtjConfig::stored(true)).unwrap();
        let opn = operating_point(&mut cn, &nn.hold_options(0.9, true)).unwrap();
        let inv = -opn.source_current(sources::VDD).unwrap();

        assert!(i6 > 0.0 && inv > 0.0);
        assert!(inv >= i6 * 0.9, "NV leakage {inv:e} vs 6T {i6:e}");
        assert!(inv < i6 * 20.0, "NV leakage should stay same order");
    }

    #[test]
    fn power_switch_off_collapses_vvdd() {
        let mut ckt = Circuit::new();
        let d = CellDesign::table1();
        let n = build_cell(&mut ckt, &d, CellKind::NvSram, MtjConfig::stored(true)).unwrap();
        ckt.set_source(sources::VPG, 0.9).unwrap(); // gate high: pFET off
        let op = operating_point(&mut ckt, &n.hold_options(0.0, true)).unwrap();
        assert!(
            op.voltage(n.vvdd) < 0.25,
            "vvdd = {} with switch off",
            op.voltage(n.vvdd)
        );
    }

    #[test]
    fn mtj_config_patterns() {
        let one = MtjConfig::stored(true);
        assert_eq!(one.left, MtjState::AntiParallel);
        assert_eq!(one.right, MtjState::Parallel);
        let zero = MtjConfig::stored(false);
        assert_eq!(zero.left, MtjState::Parallel);
        assert_eq!(zero.right, MtjState::AntiParallel);
    }

    #[test]
    fn building_twice_reports_duplicate() {
        let mut ckt = Circuit::new();
        let d = CellDesign::table1();
        build_cell(&mut ckt, &d, CellKind::Volatile6T, MtjConfig::stored(true)).unwrap();
        let err = build_cell(&mut ckt, &d, CellKind::Volatile6T, MtjConfig::stored(true));
        assert!(matches!(err, Err(CircuitError::DuplicateName { .. })));
    }
}
