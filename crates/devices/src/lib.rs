//! Compact device models for the NV-SRAM power-gating study.
//!
//! Three models, each pinned to the parameters of the paper's Table I:
//!
//! * [`finfet`] — a smooth EKV-style 20 nm FinFET (NMOS/PMOS, fin-count
//!   width quantisation, DIBL, velocity saturation), the stand-in for the
//!   20 nm PTM the paper uses;
//! * [`mtj`] — the spin-transfer-torque magnetic-tunnel-junction
//!   macromodel (bias-dependent TMR, CIMS switching with the Sun
//!   switching-time law) that implements the paper's nonvolatile element;
//! * [`llg`] — a macrospin Landau–Lifshitz–Gilbert integrator used to
//!   validate the threshold CIMS model from first principles.
//!
//! The [`retention`] module abstracts the nonvolatile element behind the
//! [`retention::RetentionDevice`] trait so cells and macros can swap the
//! MTJ for an FeFET retention cell or a NAND-SPIN element without
//! touching the netlist builders.
//!
//! All models implement [`nvpg_circuit::NonlinearDevice`] and plug
//! directly into `nvpg-circuit` netlists:
//!
//! ```
//! use nvpg_circuit::{dc, Circuit};
//! use nvpg_devices::finfet::{FinFet, FinFetParams};
//!
//! let mut ckt = Circuit::new();
//! let vdd = ckt.node("vdd");
//! let out = ckt.node("out");
//! ckt.vsource("v1", vdd, Circuit::GROUND, 0.9)?;
//! ckt.resistor("rl", out, Circuit::GROUND, 100e3)?;
//! // Diode-connected NMOS pulling `out` up toward vdd − Vth.
//! ckt.device(Box::new(FinFet::new("m1", vdd, vdd, out, FinFetParams::nmos_20nm())))?;
//! let op = dc::operating_point(&mut ckt, &Default::default())?;
//! assert!(op.voltage(out) > 0.3 && op.voltage(out) < 0.9);
//! # Ok::<(), nvpg_circuit::CircuitError>(())
//! ```

pub mod finfet;
pub mod llg;
pub mod mtj;
pub mod retention;

pub use finfet::{FinFet, FinFetParams, Polarity};
pub use llg::{Macrospin, MacrospinParams, SwitchOutcome};
pub use mtj::{Mtj, MtjParams, MtjState};
pub use retention::{
    decode_state, Fefet, FefetParams, FefetRetention, MtjRetention, NandSpinParams,
    NandSpinRetention, RetentionDevice, RetentionState,
};
