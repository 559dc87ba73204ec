//! Physical quantities for circuit-level energy analysis.
//!
//! The `nvpg` workspace manipulates voltages, currents, energies and times
//! across six orders of magnitude within a single experiment (nanosecond
//! store pulses against millisecond shutdown intervals; femtojoule dynamic
//! energies against picowatt leakage). Bare `f64`s make it far too easy to
//! add a joule to a watt or pass a time where a voltage is expected, so this
//! crate provides zero-cost newtypes with the dimensional cross-products the
//! rest of the workspace actually needs:
//!
//! ```
//! use nvpg_units::{Volts, Amps, Seconds};
//!
//! let v = Volts(0.9);
//! let i = Amps(15.7e-6);
//! let p = v * i;                 // Watts
//! let e = p * Seconds(10e-9);    // Joules
//! assert!((e.0 - 1.413e-13).abs() < 1e-18);
//! ```
//!
//! In addition it provides [engineering-notation formatting](eng) (`15.7 µA`,
//! `141.3 fJ`) used by every experiment harness, and [`sweep`] helpers for
//! the linear and logarithmic parameter sweeps that drive the paper's
//! figures.

pub mod eng;
pub mod quantity;
pub mod sweep;

pub use eng::{format_eng, EngFormat};
pub use quantity::{
    Amps, AmpsPerSqMeter, Celsius, Coulombs, Farads, Hertz, Joules, Kelvin, Meters, Ohms, Seconds,
    SquareMeters, Volts, Watts,
};
pub use sweep::{linspace, logspace};
