//! # nvpg-macro
//!
//! Parameterised NV-SRAM **macro** generator. Where `nvpg-cells` models a
//! single cell or a uniform power domain, this crate emits a full macro:
//! the cell array hung off per-group power-gating headers **plus** the
//! periphery the paper's energy numbers implicitly include — row
//! decoder/driver chains, distributed wordline and bitline RC, precharge
//! and equalise devices, column muxes, latch-type sense amplifiers, write
//! drivers and a replica-timing bitline.
//!
//! The retention technology is pluggable: the spec's
//! [`CellDesign`](nvpg_cells::CellDesign) carries a
//! [`RetentionKind`](nvpg_cells::RetentionKind) and every nonvolatile
//! element in the array is attached through the
//! [`RetentionDevice`](nvpg_devices::RetentionDevice) trait, so MTJ,
//! FeFET and NAND-SPIN macros share one netlist path.
//!
//! ```no_run
//! use nvpg_macro::{Granularity, MacroSpec, NvMacro};
//!
//! let spec = MacroSpec::new(16, 16, 4).with_granularity(Granularity::PerRow);
//! let mut m = NvMacro::new(spec, |r, c| (r + c) % 2 == 0)?;
//! m.store(&[0, 1, 2, 3])?;            // store four rows' banks
//! m.shutdown(&[0, 1, 2, 3], true)?;   // gate them off (super cutoff)
//! m.restore(&[0, 1, 2, 3])?;          // bring them back
//! assert!(m.data(0, 0));              // data survived
//! # Ok::<(), nvpg_circuit::CircuitError>(())
//! ```

pub mod build;
pub mod decks;
pub mod spec;

pub use build::{MacroBuilder, NvMacro};
pub use decks::macro_decks;
pub use spec::{Granularity, MacroSpec};
