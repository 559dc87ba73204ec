//! # nvpg-core — nonvolatile power-gating architecture analysis
//!
//! The primary contribution of the reproduced paper (Shuto, Yamamoto &
//! Sugahara, DATE 2015): a systematic comparison of the **NVPG**
//! (nonvolatile power-gating) and **NOF** (normally-off) architectures
//! for a FinFET NV-SRAM power domain, against the volatile **OSR**
//! baseline.
//!
//! Layering:
//!
//! * [`arch`] — the three architectures;
//! * [`domain`] — `N × M` power domains with row-serialised store/restore
//!   scheduling;
//! * [`energy`] — per-cell `E_cyc` composition over the Fig. 5 benchmark
//!   sequences, built from a simulated [`nvpg_cells`]
//!   characterisation;
//! * [`bet`] — break-even-time solvers (closed form + Brent iteration);
//! * [`sequence`] — cell-level transient execution of the benchmark
//!   sequences (Fig. 6 power traces, and ground truth for the
//!   composition);
//! * [`experiments`] — the registry mapping every table/figure of the
//!   paper to a data-producing function;
//! * [`variation`] — Monte-Carlo device-variation study (extension
//!   beyond the paper).
//!
//! # Example
//!
//! ```no_run
//! use nvpg_cells::design::CellDesign;
//! use nvpg_core::{Architecture, BenchmarkParams, Bet, Experiments};
//! use nvpg_core::bet::bet_closed_form;
//!
//! let exp = Experiments::new(CellDesign::table1())?;
//! let params = BenchmarkParams::fig7_default();
//! match bet_closed_form(exp.model(), Architecture::Nvpg, &params) {
//!     Bet::At(t) => println!("NVPG break-even time: {t}"),
//!     other => println!("{other:?}"),
//! }
//! # Ok::<(), nvpg_circuit::CircuitError>(())
//! ```

pub mod arch;
pub mod bet;
/// Cooperative cancellation tokens, shared across the whole solve stack
/// (re-exported from `nvpg-numeric`): install a [`cancel::CancelToken`]
/// with [`cancel::with_token`] and every Newton iteration, transient step,
/// rescue rung, and sparse factorisation under it becomes cancellable,
/// surfacing as `CircuitError::Cancelled` through the run-report taxonomy.
pub use nvpg_circuit::cancel;
pub mod canon;
pub mod corners;
pub mod domain;
pub mod energy;
pub mod experiments;
pub mod macroscale;
pub mod policy;
pub mod report;
pub mod sequence;
pub mod thermal;
pub mod validate;
pub mod variation;

pub use arch::Architecture;
pub use bet::{bet_closed_form, bet_design_scan, bet_iterative, Bet, BetScanPoint};
pub use cancel::CancelToken;
pub use corners::{corner_analysis, Corner, CornerResult};
pub use domain::PowerDomain;
pub use energy::{BenchmarkParams, EnergyBreakdown, EnergyModel};
pub use experiments::{
    Experiments, Figure, Series, BET_FIGURE_IDS, EXTENSION_IDS, FIGURE_IDS, MACRO_FIGURE_IDS,
};
pub use macroscale::{
    bet_macro_closed_form, bet_macro_scan, store_disturb_check, DisturbReport, MacroScanPoint,
    ShutdownPolicy,
};
pub use nvpg_macro::{Granularity, MacroSpec};
pub use policy::{IdleDistribution, PolicyModel};
pub use report::{PointRecord, PointStatus, RunReport};
pub use sequence::{run_sequence, SequenceParams, SequenceRun};
pub use thermal::{at_temperature, temperature_sweep, ThermalPoint};
pub use validate::{all_decks, MatrixConfig, Tolerance, ValidationReport};
pub use variation::{run_variation, run_variation_report, VariationOutcome, VariationSpec};
