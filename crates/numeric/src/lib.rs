//! Numerical kernels for the `nvpg` circuit simulator.
//!
//! This crate provides the small, dependency-free numerical core that the
//! SPICE-class engine in `nvpg-circuit` and the device models in
//! `nvpg-devices` are built on:
//!
//! * [`matrix`] — dense row-major matrices with LU factorisation (partial
//!   pivoting) and linear solves. Dense stays the default for cell-sized
//!   systems (a few dozen unknowns), where its simplicity and cache
//!   behaviour win.
//! * [`sparse`] — CSC matrices over a fixed structural pattern plus a
//!   left-looking sparse LU with fill-reducing ordering and cached symbolic
//!   analysis; this is what makes array-scale MNA systems (a 64×64 NV-SRAM
//!   array is ~17 000 unknowns) tractable. Engaged automatically above a
//!   node-count threshold.
//! * [`simd`] — runtime-dispatched AVX2/scalar kernels (axpy, dot, ∞-norm)
//!   shared by the dense and sparse hot loops; override with
//!   `NVPG_SIMD=scalar|avx2|auto`.
//! * [`newton`] — a damped Newton–Raphson driver with configurable
//!   convergence criteria, used for DC operating points and each implicit
//!   transient step; runs on either linear-solver backend.
//! * [`roots`] — Brent's method and bisection, used for break-even-time
//!   solving (intersection of `E_cyc(t_SD)` curves).
//! * [`ode`] — the adaptive RKF45 integrator, used by the optional
//!   macrospin (LLG) MTJ switching engine.
//! * [`cancel`] — cooperative cancellation tokens (deadline + reason +
//!   progress heartbeat) polled by the Newton and sparse-factorisation hot
//!   loops; zero cost when no token is installed.
//!
//! # Examples
//!
//! ```
//! use nvpg_numeric::matrix::DenseMatrix;
//!
//! let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
//! let x = a.lu().expect("nonsingular").solve(&[3.0, 5.0]);
//! assert!((x[0] - 0.8).abs() < 1e-12);
//! assert!((x[1] - 1.4).abs() < 1e-12);
//! ```

pub mod cancel;
pub mod matrix;
pub mod newton;
pub mod ode;
pub mod rng;
pub mod roots;
pub mod simd;
pub mod sparse;

pub use cancel::CancelToken;
pub use matrix::{DenseMatrix, LuFactors, LuWorkspace, SingularMatrixError};
pub use newton::{
    InvalidOptionsError, LinearSolver, NewtonOptions, NewtonOutcome, NewtonSolver, NonlinearSystem,
};
pub use ode::{Rkf45, Rkf45Options};
pub use rng::Rng64;
pub use roots::{bisect, brent, BracketError};
pub use simd::SimdLevel;
pub use sparse::{CscMatrix, PatternBuilder, SparseLu, SparsePattern};
