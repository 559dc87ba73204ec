//! SRAM cell netlists, operations, and characterisation for the DATE 2015
//! NV-SRAM power-gating study.
//!
//! This crate builds the two cells the paper compares — the volatile
//! 6T-SRAM baseline and the PS-FinFET NV-SRAM of Fig. 2 — on top of the
//! `nvpg-circuit` simulator and the `nvpg-devices` compact models, and
//! packages the simulation flows that extract every electrical quantity
//! the architecture-level analysis needs:
//!
//! * [`design`] — the Table I design point (`CellDesign::table1()`);
//! * [`cell`] — netlist builders;
//! * [`mod@bench`] — phase-sequenced cell operation (read, write, sleep,
//!   two-step store, shutdown, restore) with per-phase energy accounting;
//! * [`mod@array`] — the array engine (cell and header stamps, phase runner,
//!   gating-group store/power-off/restore recipes) and [`domain`], the
//!   whole-domain array built on it;
//! * [`mod@characterize`] — figure-level extraction (leakage vs `V_CTRL`,
//!   store currents, `VV_DD` vs `N_FSW`, static power per mode, and the
//!   full [`characterize::CellCharacterization`]);
//! * [`snm`] — butterfly-curve static-noise-margin analysis.
//!
//! # Example: verify nonvolatile data survival end-to-end
//!
//! ```no_run
//! use nvpg_cells::bench::CellBench;
//! use nvpg_cells::cell::{CellKind, MtjConfig};
//! use nvpg_cells::design::CellDesign;
//!
//! let design = CellDesign::table1();
//! let mut bench = CellBench::new(design, CellKind::NvSram, true, MtjConfig::stored(false))?;
//! bench.store()?;                      // write Q = 1 into the MTJs
//! bench.shutdown_enter(true, 3e-9)?;   // power off (super cutoff)
//! bench.restore()?;                    // wake up
//! assert!(bench.data(), "Q = 1 must survive the power cycle");
//! # Ok::<(), nvpg_circuit::CircuitError>(())
//! ```

pub mod array;
pub mod bench;
pub mod cell;
pub mod characterize;
pub mod design;
pub mod domain;
pub mod nvff;
pub mod snm;
pub mod timing;

pub use array::{ArrayBuilder, ArrayPhase, CellArray};
pub use bench::{CellBench, Mode, PhaseResult};
pub use cell::{build_cell, CellKind, CellNodes, MtjConfig, NvNodes};
pub use characterize::{characterize, CellCharacterization, StaticPowerTable};
pub use design::{CellDesign, OperatingConditions, RetentionKind};
pub use domain::{DomainArray, DomainKind};
pub use nvff::{FlopPhase, NvFlipFlop};
pub use snm::{static_noise_margin, SnmCondition};
pub use timing::{timing, TimingReport};
