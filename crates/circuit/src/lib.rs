//! A SPICE-class analog circuit simulator.
//!
//! `nvpg-circuit` re-implements, from scratch, the slice of HSPICE that the
//! DATE 2015 NV-SRAM power-gating study depends on:
//!
//! * **Netlists** ([`Circuit`]) of resistors, capacitors, independent V/I
//!   sources with [waveforms](waveform::Waveform), smooth
//!   voltage-controlled switches, and arbitrary nonlinear compact models
//!   plugged in through [`element::NonlinearDevice`] (the 20 nm FinFET and
//!   the MTJ macromodel live in `nvpg-devices`).
//! * **DC operating point** ([`dc::operating_point`]) — damped Newton with
//!   nodesets for bistable circuits, plus gmin stepping and source
//!   stepping fallbacks.
//! * **DC sweeps** ([`dc::sweep`]) with warm starting.
//! * **Transient analysis** ([`transient::transient`]) — adaptive-step
//!   backward Euler with waveform breakpoint handling, recording node
//!   voltages, source currents and delivered power into a [`Trace`].
//! * **Measurements** ([`Trace`]) — interpolated values, trapezoidal
//!   integrals (energies), averages, extrema, threshold crossings.
//!
//! # Example: RC step response
//!
//! ```
//! use nvpg_circuit::{dc, transient, Circuit, TransientOptions, Waveform};
//!
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("vin");
//! let out = ckt.node("out");
//! ckt.vsource("v1", vin, Circuit::GROUND,
//!     Waveform::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]))?;
//! ckt.resistor("r1", vin, out, 1e3)?;
//! ckt.capacitor("c1", out, Circuit::GROUND, 1e-12)?;
//!
//! let op = dc::operating_point(&mut ckt, &Default::default())?;
//! let trace = transient::transient(&mut ckt, &TransientOptions::to(5e-9), &op)?.trace;
//! let v_at_rc = trace.value_at("v(out)", 1e-9)?;
//! assert!((v_at_rc - 0.632).abs() < 0.01);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

/// Cooperative cancellation tokens (re-exported from `nvpg-numeric` so the
/// analysis drivers and their callers share one token type). Install with
/// [`cancel::with_token`]; the Newton loop, the transient step loop, the DC
/// rescue ladder, and the sparse factorisation all poll it.
pub use nvpg_numeric::cancel;
pub mod circuit;
pub mod dc;
pub mod element;
mod engine;
pub mod error;
pub mod fault;
pub mod node;
pub mod parser;
pub mod registry;
pub mod rescue;
pub mod solution;
pub mod solver;
pub mod steptel;
pub mod trace;
pub mod transient;
pub mod waveform;

pub use cancel::CancelToken;
pub use circuit::Circuit;
pub use element::{DeviceStamp, NonlinearDevice};
pub use error::CircuitError;
pub use fault::{with_fault_plan, with_fault_plan_logged, FaultKind, FaultPlan};
pub use node::NodeId;
pub use registry::{registry, DeckSpec};
pub use rescue::RescueStats;
pub use solution::DcSolution;
pub use solver::{SolverChoice, SPARSE_THRESHOLD};
pub use steptel::StepStats;
pub use trace::Trace;
pub use transient::{TransientOptions, TransientResult};
pub use waveform::{Pulse, Waveform};
