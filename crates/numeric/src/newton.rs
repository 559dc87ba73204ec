//! Damped Newton–Raphson for nonlinear algebraic systems.
//!
//! The circuit engine solves `F(x) = 0` where `x` is the MNA unknown vector
//! and `F` collects KCL residuals plus source branch equations. The driver
//! here is deliberately SPICE-flavoured:
//!
//! * convergence is judged per-unknown with combined absolute + relative
//!   tolerances (`reltol`/`abstol`), matching SPICE's `RELTOL`/`VNTOL`;
//! * the update can be damped (`max_step`) to keep exponential device
//!   models from overflowing, which is the textbook cure for the
//!   subthreshold-FET blow-up;
//! * the caller supplies a [`NonlinearSystem`] that evaluates the residual
//!   and Jacobian together (devices naturally produce both at once).

use std::fmt;

use crate::cancel;
use crate::matrix::{DenseMatrix, LuWorkspace, SingularMatrixError};
use crate::simd;
use crate::sparse::{CscMatrix, SparseLu, SparsePattern};

/// A solver option failed validation (non-finite tolerance, inverted
/// bounds, …). Produced by [`NewtonOptions::validate`] and by the
/// analysis-level option validators built on top of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidOptionsError {
    /// The offending field, e.g. `"reltol"`.
    pub field: &'static str,
    /// Why the value was rejected.
    pub reason: String,
}

impl fmt::Display for InvalidOptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid option `{}`: {}", self.field, self.reason)
    }
}

impl std::error::Error for InvalidOptionsError {}

/// A nonlinear system `F(x) = 0` with analytic Jacobian.
pub trait NonlinearSystem {
    /// Number of unknowns.
    fn dim(&self) -> usize;

    /// Evaluates the residual `F(x)` and Jacobian `J(x) = ∂F/∂x`.
    ///
    /// `residual` and `jacobian` arrive zeroed; implementations accumulate
    /// ("stamp") into them.
    fn eval(&mut self, x: &[f64], residual: &mut [f64], jacobian: &mut DenseMatrix);

    /// Evaluates only the residual `F(x)`, skipping Jacobian assembly.
    ///
    /// Returns `true` if the system supports the cheap path; the default
    /// returns `false`, which makes the solver fall back to a full
    /// [`eval`](NonlinearSystem::eval) plus refactorisation. Used by the
    /// modified-Newton iteration ([`NewtonOptions::reuse_jacobian`]) so
    /// that iterations running on a stale LU factorisation avoid both
    /// Jacobian assembly and factorisation.
    ///
    /// `residual` arrives zeroed; implementations accumulate into it.
    fn eval_residual_only(&mut self, _x: &[f64], _residual: &mut [f64]) -> bool {
        false
    }

    /// Evaluates the residual and stamps the Jacobian into a sparse matrix
    /// whose pattern was fixed up front (see [`SparsePattern`]).
    ///
    /// Returns `true` if the system supports sparse assembly; the default
    /// returns `false`. A [`NewtonSolver`] constructed with
    /// [`NewtonSolver::with_sparse`] requires this path — it panics if the
    /// system declines, because silently falling back to dense would defeat
    /// the entire point of choosing the sparse backend.
    ///
    /// `residual` and `jacobian` arrive zeroed; implementations accumulate
    /// into them.
    fn eval_sparse(
        &mut self,
        _x: &[f64],
        _residual: &mut [f64],
        _jacobian: &mut CscMatrix,
    ) -> bool {
        false
    }
}

/// Linear-solver backend for the Newton iteration: dense LU for cell-sized
/// systems (the default), sparse LU with cached symbolic analysis for
/// array-scale systems. Both preserve the zero-alloc steady state, the
/// modified-Newton stale-factorisation reuse, and NaN-safe pivoting.
// One `LinearSolver` lives per `NewtonSolver`, never in collections, so
// boxing the sparse workspace would buy nothing and cost an indirection
// on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum LinearSolver {
    /// Dense row-major Jacobian + partial-pivoting LU workspace.
    Dense {
        /// Assembled Jacobian.
        jacobian: DenseMatrix,
        /// Reusable factorisation workspace.
        lu: LuWorkspace,
    },
    /// Fixed-pattern CSC Jacobian + sparse LU with symbolic caching.
    Sparse {
        /// Assembled Jacobian over the analysed pattern.
        jacobian: CscMatrix,
        /// Reusable sparse factorisation workspace.
        lu: SparseLu,
    },
}

impl LinearSolver {
    /// Dense backend (storage grows on first use).
    pub fn dense() -> Self {
        LinearSolver::Dense {
            jacobian: DenseMatrix::zeros(0, 0),
            lu: LuWorkspace::new(),
        }
    }

    /// Sparse backend over a precomputed structural pattern.
    pub fn sparse(pattern: &SparsePattern) -> Self {
        LinearSolver::Sparse {
            jacobian: CscMatrix::from_pattern(pattern),
            lu: SparseLu::new(),
        }
    }

    /// `true` for the sparse backend.
    pub fn is_sparse(&self) -> bool {
        matches!(self, LinearSolver::Sparse { .. })
    }

    /// The sparse factorisation workspace, when this is the sparse backend
    /// (fill-in and refactorisation telemetry).
    pub fn sparse_lu(&self) -> Option<&SparseLu> {
        match self {
            LinearSolver::Dense { .. } => None,
            LinearSolver::Sparse { lu, .. } => Some(lu),
        }
    }

    fn ensure_dim(&mut self, n: usize) {
        match self {
            LinearSolver::Dense { jacobian, .. } => {
                if jacobian.rows() != n {
                    *jacobian = DenseMatrix::zeros(n, n);
                }
            }
            LinearSolver::Sparse { jacobian, .. } => {
                assert_eq!(
                    jacobian.dim(),
                    n,
                    "sparse pattern dimension must match the system dimension"
                );
            }
        }
    }

    /// Full residual + Jacobian assembly through the backend-appropriate
    /// [`NonlinearSystem`] entry point. `residual` must arrive zeroed.
    fn eval_full<S: NonlinearSystem>(&mut self, system: &mut S, x: &[f64], residual: &mut [f64]) {
        match self {
            LinearSolver::Dense { jacobian, .. } => {
                jacobian.clear();
                system.eval(x, residual, jacobian);
            }
            LinearSolver::Sparse { jacobian, .. } => {
                jacobian.clear();
                assert!(
                    system.eval_sparse(x, residual, jacobian),
                    "sparse Newton backend requires NonlinearSystem::eval_sparse support"
                );
            }
        }
    }

    fn factor(&mut self) -> Result<(), SingularMatrixError> {
        match self {
            LinearSolver::Dense { jacobian, lu } => lu.factor_from(jacobian),
            LinearSolver::Sparse { jacobian, lu } => lu.factor(jacobian),
        }
    }

    fn solve_neg_into(&mut self, residual: &[f64], delta: &mut [f64]) {
        match self {
            LinearSolver::Dense { lu, .. } => lu.solve_neg_into(residual, delta),
            LinearSolver::Sparse { lu, .. } => lu.solve_neg_into(residual, delta),
        }
    }
}

/// Tuning knobs for the Newton iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Relative tolerance on each unknown's update (SPICE `RELTOL`).
    pub reltol: f64,
    /// Absolute tolerance on each unknown's update (SPICE `VNTOL`).
    pub abstol: f64,
    /// Maximum residual ∞-norm accepted at convergence.
    pub residual_tol: f64,
    /// Iteration limit.
    pub max_iter: usize,
    /// Per-iteration cap on any unknown's update magnitude; `f64::INFINITY`
    /// disables damping.
    pub max_step: f64,
    /// Maximum residual-backtracking halvings per iteration (`0` disables
    /// the line search; the default). When enabled, a Newton step whose
    /// trial residual is worse than the current one is halved up to this
    /// many times — the middle rung of the convergence-rescue ladder.
    pub backtrack: u32,
    /// Modified-Newton mode: keep the previous LU factorisation across
    /// iterations *and* across `solve` calls, refreshing only when the
    /// step contraction rate degrades past
    /// [`reuse_contraction`](NewtonOptions::reuse_contraction) or the
    /// factorisation exceeds
    /// [`reuse_max_age`](NewtonOptions::reuse_max_age) stale iterations.
    /// Residuals are still evaluated genuinely every iteration, so a
    /// converged answer satisfies the same tolerances as full Newton.
    pub reuse_jacobian: bool,
    /// Contraction threshold for the stale-Jacobian monitor: a reused
    /// factorisation is kept while ‖δ_k‖ ≤ `reuse_contraction`·‖δ_{k-1}‖;
    /// when a stale iteration contracts slower than this, the next
    /// iteration refactorises. Must lie in `(0, 1)`.
    pub reuse_contraction: f64,
    /// Hard cap on consecutive stale iterations per factorisation (a
    /// safety net on top of the contraction monitor). Must be ≥ 1.
    pub reuse_max_age: usize,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            reltol: 1e-6,
            abstol: 1e-9,
            residual_tol: 1e-9,
            max_iter: 200,
            max_step: 0.5,
            backtrack: 0,
            reuse_jacobian: false,
            reuse_contraction: 0.5,
            reuse_max_age: 50,
        }
    }
}

impl NewtonOptions {
    /// Checks every field for sanity: tolerances must be positive and
    /// finite, the iteration limit nonzero, and `max_step` positive
    /// (infinity allowed — it disables damping).
    ///
    /// # Errors
    ///
    /// Returns the first offending field as an [`InvalidOptionsError`].
    pub fn validate(&self) -> Result<(), InvalidOptionsError> {
        let finite_positive = |field: &'static str, v: f64| {
            if !v.is_finite() || v <= 0.0 {
                Err(InvalidOptionsError {
                    field,
                    reason: format!("must be positive and finite, got {v}"),
                })
            } else {
                Ok(())
            }
        };
        finite_positive("reltol", self.reltol)?;
        finite_positive("abstol", self.abstol)?;
        finite_positive("residual_tol", self.residual_tol)?;
        if self.max_iter == 0 {
            return Err(InvalidOptionsError {
                field: "max_iter",
                reason: "must be at least 1".to_owned(),
            });
        }
        if self.max_step.is_nan() || self.max_step <= 0.0 {
            return Err(InvalidOptionsError {
                field: "max_step",
                reason: format!("must be positive (infinity allowed), got {}", self.max_step),
            });
        }
        if !self.reuse_contraction.is_finite()
            || self.reuse_contraction <= 0.0
            || self.reuse_contraction >= 1.0
        {
            return Err(InvalidOptionsError {
                field: "reuse_contraction",
                reason: format!(
                    "must lie strictly between 0 and 1, got {}",
                    self.reuse_contraction
                ),
            });
        }
        if self.reuse_max_age == 0 {
            return Err(InvalidOptionsError {
                field: "reuse_max_age",
                reason: "must be at least 1".to_owned(),
            });
        }
        Ok(())
    }
}

/// Result of a Newton solve.
#[derive(Debug, Clone, PartialEq)]
pub enum NewtonOutcome {
    /// Converged in the given number of iterations.
    Converged {
        /// Iterations taken.
        iterations: usize,
    },
    /// Iteration limit hit; the best iterate is left in the state vector.
    IterationLimit {
        /// Final update ∞-norm.
        last_delta: f64,
        /// Final residual ∞-norm.
        last_residual: f64,
        /// Index of the unknown with the largest final residual — the
        /// circuit layer maps this back to a node name for diagnostics.
        worst_index: usize,
    },
    /// The Jacobian went singular.
    SingularJacobian {
        /// Iteration at which it happened.
        iteration: usize,
        /// Original unknown index of the pivot column that failed — the
        /// circuit layer maps this back to a node or branch name. Identical
        /// semantics on the dense and sparse backends.
        column: usize,
    },
    /// The residual or the state vector went non-finite (NaN/∞); the
    /// iteration bails out immediately instead of spinning to the limit.
    NonFiniteState {
        /// Iteration at which the first non-finite value appeared.
        iteration: usize,
    },
    /// The thread's installed [`crate::cancel::CancelToken`] fired
    /// (explicit cancellation or deadline expiry). The retained Jacobian is
    /// invalidated before returning, so the same solver instance can run a
    /// fresh solve afterwards with no state carried over.
    Cancelled {
        /// Iteration at which the cancellation checkpoint fired.
        iteration: usize,
    },
}

impl NewtonOutcome {
    /// `true` if the solve converged.
    pub fn is_converged(&self) -> bool {
        matches!(self, NewtonOutcome::Converged { .. })
    }
}

/// Reusable Newton–Raphson workspace.
///
/// # Examples
///
/// Solving `x² = 4` written as a one-unknown system:
///
/// ```
/// use nvpg_numeric::{DenseMatrix, NewtonOptions, NewtonSolver, NonlinearSystem};
///
/// struct Square;
/// impl NonlinearSystem for Square {
///     fn dim(&self) -> usize { 1 }
///     fn eval(&mut self, x: &[f64], r: &mut [f64], j: &mut DenseMatrix) {
///         r[0] = x[0] * x[0] - 4.0;
///         j[(0, 0)] = 2.0 * x[0];
///     }
/// }
///
/// let mut solver = NewtonSolver::new(NewtonOptions { max_step: f64::INFINITY, ..Default::default() });
/// let mut x = vec![3.0];
/// let outcome = solver.solve(&mut Square, &mut x);
/// assert!(outcome.is_converged());
/// assert!((x[0] - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct NewtonSolver {
    options: NewtonOptions,
    residual: Vec<f64>,
    linear: LinearSolver,
    delta: Vec<f64>,
    /// Trial point for the backtracking line search.
    x_try: Vec<f64>,
    /// Whether `lu` holds a usable factorisation from an earlier iteration
    /// or solve (modified-Newton reuse).
    jac_valid: bool,
    /// Consecutive stale iterations served by the current factorisation.
    jac_age: usize,
    /// Refresh request latched by the contraction monitor: the next
    /// iteration must refactorise even if reuse is otherwise allowed.
    jac_refresh: bool,
    total_iterations: u64,
    total_solves: u64,
    total_backtracks: u64,
    total_refactorizations: u64,
    refactorizations_avoided: u64,
}

impl NewtonSolver {
    /// Creates a solver with the given options and the dense linear-solver
    /// backend (the right default for cell-sized systems).
    pub fn new(options: NewtonOptions) -> Self {
        NewtonSolver::with_linear_solver(options, LinearSolver::dense())
    }

    /// Creates a solver on the sparse backend over a precomputed structural
    /// pattern. The system must implement
    /// [`NonlinearSystem::eval_sparse`]; symbolic analysis happens on the
    /// first factorisation and is reused by all later ones.
    pub fn with_sparse(options: NewtonOptions, pattern: &SparsePattern) -> Self {
        NewtonSolver::with_linear_solver(options, LinearSolver::sparse(pattern))
    }

    /// Creates a solver with an explicit linear-solver backend.
    pub fn with_linear_solver(options: NewtonOptions, linear: LinearSolver) -> Self {
        NewtonSolver {
            options,
            residual: Vec::new(),
            linear,
            delta: Vec::new(),
            x_try: Vec::new(),
            jac_valid: false,
            jac_age: 0,
            jac_refresh: false,
            total_iterations: 0,
            total_solves: 0,
            total_backtracks: 0,
            total_refactorizations: 0,
            refactorizations_avoided: 0,
        }
    }

    /// The active options.
    pub fn options(&self) -> &NewtonOptions {
        &self.options
    }

    /// The linear-solver backend in use.
    pub fn linear_solver(&self) -> &LinearSolver {
        &self.linear
    }

    /// Newton iterations accumulated over every `solve` call on this
    /// workspace (convergence telemetry for benchmarks).
    pub fn total_iterations(&self) -> u64 {
        self.total_iterations
    }

    /// Number of `solve` calls on this workspace.
    pub fn total_solves(&self) -> u64 {
        self.total_solves
    }

    /// Backtracking half-steps taken across every `solve` call (zero
    /// unless [`NewtonOptions::backtrack`] is enabled).
    pub fn total_backtracks(&self) -> u64 {
        self.total_backtracks
    }

    /// LU refactorisations performed across every `solve` call.
    pub fn total_refactorizations(&self) -> u64 {
        self.total_refactorizations
    }

    /// Iterations served by a stale (reused) factorisation — each one
    /// skipped both Jacobian assembly and LU factorisation. Zero unless
    /// [`NewtonOptions::reuse_jacobian`] is enabled and the system
    /// implements [`NonlinearSystem::eval_residual_only`].
    pub fn refactorizations_avoided(&self) -> u64 {
        self.refactorizations_avoided
    }

    /// Discards the retained LU factorisation so the next iteration
    /// refactorises. Callers must invoke this whenever the system's
    /// Jacobian changes shape out from under the solver — e.g. the
    /// transient engine changes the time step, which rescales every
    /// companion-model `C/dt` term.
    pub fn invalidate_jacobian(&mut self) {
        self.jac_valid = false;
        self.jac_age = 0;
        self.jac_refresh = false;
    }

    /// Replaces the active options (used by the rescue ladder to retry a
    /// failed solve with stronger damping on the same warm workspace).
    pub fn set_options(&mut self, options: NewtonOptions) {
        self.options = options;
    }

    /// Runs Newton iteration on `system`, starting from and updating `x`.
    ///
    /// After the first iteration at a given dimension the loop performs
    /// no heap allocations: the Jacobian is factored in place in a
    /// reusable [`LuWorkspace`] and the update is solved directly into a
    /// persistent `delta` buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != system.dim()`.
    pub fn solve<S: NonlinearSystem>(&mut self, system: &mut S, x: &mut [f64]) -> NewtonOutcome {
        let n = system.dim();
        assert_eq!(x.len(), n, "state vector length must equal system dim");
        if self.residual.len() != n {
            self.residual = vec![0.0; n];
            self.linear.ensure_dim(n);
            self.delta = vec![0.0; n];
            self.x_try = vec![0.0; n];
            self.invalidate_jacobian();
        }
        self.total_solves += 1;

        let mut last_delta = f64::INFINITY;
        let mut last_residual = f64::INFINITY;
        let mut prev_delta = f64::INFINITY;
        let mut worst_index = 0usize;

        for iter in 0..self.options.max_iter {
            // Cooperative cancellation checkpoint: one thread-local read
            // when no token is installed. The early return invalidates the
            // retained Jacobian exactly like the other bail-outs, so a
            // cancelled solve leaves no poisoned state behind.
            if cancel::checkpoint() {
                self.invalidate_jacobian();
                return NewtonOutcome::Cancelled { iteration: iter };
            }
            // Modified-Newton fast path: when the retained factorisation is
            // still trusted, evaluate only the residual and skip Jacobian
            // assembly + LU entirely. The system may decline (returns
            // `false`), in which case this iteration is a full one.
            let mut stale = false;
            if self.options.reuse_jacobian
                && self.jac_valid
                && !self.jac_refresh
                && self.jac_age < self.options.reuse_max_age
            {
                self.residual.fill(0.0);
                if system.eval_residual_only(x, &mut self.residual) {
                    stale = true;
                    self.jac_age += 1;
                    self.refactorizations_avoided += 1;
                }
            }
            if !stale {
                self.residual.fill(0.0);
                self.linear.eval_full(system, x, &mut self.residual);
            }
            self.total_iterations += 1;

            // ∞-norm with explicit NaN detection: `f64::max` drops NaN
            // operands, so a folded max would silently mask a poisoned
            // residual and spin to the iteration limit.
            last_residual = 0.0;
            for (i, r) in self.residual.iter().enumerate() {
                if !r.is_finite() {
                    self.invalidate_jacobian();
                    return NewtonOutcome::NonFiniteState { iteration: iter };
                }
                if r.abs() > last_residual {
                    last_residual = r.abs();
                    worst_index = i;
                }
            }

            if !stale {
                if let Err(err) = self.linear.factor() {
                    self.invalidate_jacobian();
                    // The sparse backend bails out of a long factorisation
                    // when the token fires mid-factor; a cancelled token
                    // re-classifies the factor error as a cancellation.
                    if cancel::cancelled() {
                        return NewtonOutcome::Cancelled { iteration: iter };
                    }
                    return NewtonOutcome::SingularJacobian {
                        iteration: iter,
                        column: err.column,
                    };
                }
                self.jac_valid = true;
                self.jac_age = 0;
                self.jac_refresh = false;
                self.total_refactorizations += 1;
            }
            // Newton step: J·Δ = -F  ⇒  Δ = -J⁻¹F, solved without
            // materialising -F or allocating Δ.
            self.linear.solve_neg_into(&self.residual, &mut self.delta);

            // Damping: clip the whole step so no unknown moves more than
            // max_step (preserves direction scaling per component, which is
            // what SPICE's voltage limiting effectively does).
            if self.options.max_step.is_finite() {
                for d in &mut self.delta {
                    *d = d.clamp(-self.options.max_step, self.options.max_step);
                }
            }

            // Backtracking line search (rescue rung, off by default):
            // halve the step while the trial residual is worse than the
            // current one, up to `backtrack` times.
            let mut scale = 1.0_f64;
            if self.options.backtrack > 0 {
                for _ in 0..self.options.backtrack {
                    for ((t, xi), di) in self.x_try.iter_mut().zip(x.iter()).zip(&self.delta) {
                        *t = xi + scale * di;
                    }
                    // Trial points only need the residual norm; take the
                    // cheap path when the system offers one.
                    self.residual.fill(0.0);
                    if !system.eval_residual_only(&self.x_try, &mut self.residual) {
                        self.residual.fill(0.0);
                        self.linear
                            .eval_full(system, &self.x_try, &mut self.residual);
                    }
                    // SIMD ∞-norm; non-finite trial residuals propagate and
                    // fail the acceptance test below.
                    let trial_norm = simd::norm_inf(&self.residual);
                    if trial_norm.is_finite() && trial_norm < last_residual {
                        break;
                    }
                    scale *= 0.5;
                    self.total_backtracks += 1;
                }
            }

            let mut converged = true;
            last_delta = 0.0;
            for (xi, di) in x.iter_mut().zip(&self.delta) {
                let step = scale * di;
                *xi += step;
                if !xi.is_finite() {
                    self.invalidate_jacobian();
                    return NewtonOutcome::NonFiniteState { iteration: iter };
                }
                let tol = self.options.abstol + self.options.reltol * xi.abs();
                if step.abs() > tol {
                    converged = false;
                }
                last_delta = last_delta.max(step.abs());
            }

            if converged && last_residual <= self.options.residual_tol {
                return NewtonOutcome::Converged {
                    iterations: iter + 1,
                };
            }

            // Contraction monitor: a healthy (even stale) Newton iteration
            // shrinks the step geometrically. When a stale iteration stops
            // contracting fast enough, latch a refresh so the next
            // iteration rebuilds and refactorises the Jacobian.
            if stale && last_delta > self.options.reuse_contraction * prev_delta {
                self.jac_refresh = true;
            }
            prev_delta = last_delta;
        }

        self.invalidate_jacobian();
        NewtonOutcome::IterationLimit {
            last_delta,
            last_residual,
            worst_index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Poly;
    impl NonlinearSystem for Poly {
        fn dim(&self) -> usize {
            2
        }
        // F = [x² + y - 3, x + y² - 5]; root near (1.2088…, 1.5388…).
        fn eval(&mut self, x: &[f64], r: &mut [f64], j: &mut DenseMatrix) {
            r[0] = x[0] * x[0] + x[1] - 3.0;
            r[1] = x[0] + x[1] * x[1] - 5.0;
            j[(0, 0)] = 2.0 * x[0];
            j[(0, 1)] = 1.0;
            j[(1, 0)] = 1.0;
            j[(1, 1)] = 2.0 * x[1];
        }
    }

    #[test]
    fn converges_on_2d_polynomial_system() {
        let mut solver = NewtonSolver::new(NewtonOptions::default());
        let mut x = vec![1.0, 1.0];
        let outcome = solver.solve(&mut Poly, &mut x);
        assert!(outcome.is_converged(), "{outcome:?}");
        assert!((x[0] * x[0] + x[1] - 3.0).abs() < 1e-8);
        assert!((x[0] + x[1] * x[1] - 5.0).abs() < 1e-8);
    }

    struct Exponential;
    impl NonlinearSystem for Exponential {
        fn dim(&self) -> usize {
            1
        }
        // Diode-like: exp(40x) - 2 = 0, root at ln(2)/40 ≈ 0.0173.
        fn eval(&mut self, x: &[f64], r: &mut [f64], j: &mut DenseMatrix) {
            let e = (40.0 * x[0]).min(700.0).exp();
            r[0] = e - 2.0;
            j[(0, 0)] = 40.0 * e;
        }
    }

    #[test]
    fn damping_tames_exponential() {
        // From x = 1 the first undamped step would be astronomically wrong;
        // the damped iteration must still converge.
        let mut solver = NewtonSolver::new(NewtonOptions {
            max_step: 0.5,
            ..Default::default()
        });
        let mut x = vec![1.0];
        let outcome = solver.solve(&mut Exponential, &mut x);
        assert!(outcome.is_converged(), "{outcome:?}");
        assert!((x[0] - (2.0_f64).ln() / 40.0).abs() < 1e-8);
    }

    struct Singular;
    impl NonlinearSystem for Singular {
        fn dim(&self) -> usize {
            2
        }
        fn eval(&mut self, _x: &[f64], r: &mut [f64], _j: &mut DenseMatrix) {
            r[0] = 1.0;
            r[1] = 1.0;
            // Jacobian left all-zero: singular.
        }
    }

    #[test]
    fn singular_jacobian_reported() {
        let mut solver = NewtonSolver::new(NewtonOptions::default());
        let mut x = vec![0.0, 0.0];
        let outcome = solver.solve(&mut Singular, &mut x);
        assert_eq!(
            outcome,
            NewtonOutcome::SingularJacobian {
                iteration: 0,
                column: 0
            }
        );
        assert!(!outcome.is_converged());
    }

    struct NoRoot;
    impl NonlinearSystem for NoRoot {
        fn dim(&self) -> usize {
            1
        }
        // x² + 1 = 0 has no real root; the iteration must hit its limit.
        fn eval(&mut self, x: &[f64], r: &mut [f64], j: &mut DenseMatrix) {
            r[0] = x[0] * x[0] + 1.0;
            j[(0, 0)] = if x[0].abs() < 1e-12 { 1e-6 } else { 2.0 * x[0] };
        }
    }

    #[test]
    fn iteration_limit_reported() {
        let mut solver = NewtonSolver::new(NewtonOptions {
            max_iter: 20,
            ..Default::default()
        });
        let mut x = vec![1.0];
        match solver.solve(&mut NoRoot, &mut x) {
            NewtonOutcome::IterationLimit { last_residual, .. } => {
                assert!(last_residual >= 1.0);
            }
            other => panic!("expected iteration limit, got {other:?}"),
        }
    }

    #[test]
    fn linear_system_converges_in_one_iteration() {
        struct Linear;
        impl NonlinearSystem for Linear {
            fn dim(&self) -> usize {
                2
            }
            fn eval(&mut self, x: &[f64], r: &mut [f64], j: &mut DenseMatrix) {
                r[0] = 2.0 * x[0] + x[1] - 3.0;
                r[1] = x[0] + 3.0 * x[1] - 5.0;
                j[(0, 0)] = 2.0;
                j[(0, 1)] = 1.0;
                j[(1, 0)] = 1.0;
                j[(1, 1)] = 3.0;
            }
        }
        let mut solver = NewtonSolver::new(NewtonOptions {
            max_step: f64::INFINITY,
            ..Default::default()
        });
        let mut x = vec![0.0, 0.0];
        match solver.solve(&mut Linear, &mut x) {
            // One step to land exactly, a second to verify convergence.
            NewtonOutcome::Converged { iterations } => assert!(iterations <= 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn workspace_reuse_across_dimensions() {
        let mut solver = NewtonSolver::new(NewtonOptions::default());
        let mut x1 = vec![1.0];
        assert!(solver.solve(&mut Exponential, &mut x1).is_converged());
        let mut x2 = vec![1.0, 1.0];
        assert!(solver.solve(&mut Poly, &mut x2).is_converged());
        assert_eq!(solver.options().max_iter, 200);
    }

    /// Poly with a residual-only fast path and call counters, for
    /// exercising the modified-Newton reuse policy.
    struct CountingPoly {
        full_evals: u32,
        cheap_evals: u32,
        support_cheap: bool,
    }

    impl CountingPoly {
        fn new(support_cheap: bool) -> Self {
            CountingPoly {
                full_evals: 0,
                cheap_evals: 0,
                support_cheap,
            }
        }
    }

    impl NonlinearSystem for CountingPoly {
        fn dim(&self) -> usize {
            2
        }
        fn eval(&mut self, x: &[f64], r: &mut [f64], j: &mut DenseMatrix) {
            self.full_evals += 1;
            r[0] = x[0] * x[0] + x[1] - 3.0;
            r[1] = x[0] + x[1] * x[1] - 5.0;
            j[(0, 0)] = 2.0 * x[0];
            j[(0, 1)] = 1.0;
            j[(1, 0)] = 1.0;
            j[(1, 1)] = 2.0 * x[1];
        }
        fn eval_residual_only(&mut self, x: &[f64], r: &mut [f64]) -> bool {
            if !self.support_cheap {
                return false;
            }
            self.cheap_evals += 1;
            r[0] = x[0] * x[0] + x[1] - 3.0;
            r[1] = x[0] + x[1] * x[1] - 5.0;
            true
        }
    }

    #[test]
    fn modified_newton_reuses_factorisation_and_stays_accurate() {
        let mut solver = NewtonSolver::new(NewtonOptions {
            reuse_jacobian: true,
            ..Default::default()
        });
        let mut sys = CountingPoly::new(true);
        let mut x = vec![1.0, 1.0];
        assert!(solver.solve(&mut sys, &mut x).is_converged());
        // Stale iterations really happened and skipped full assembly.
        assert!(solver.refactorizations_avoided() > 0);
        assert!(sys.cheap_evals > 0);
        // The answer satisfies the same tolerances as full Newton.
        assert!((x[0] * x[0] + x[1] - 3.0).abs() < 1e-8);
        assert!((x[0] + x[1] * x[1] - 5.0).abs() < 1e-8);

        // A second solve from the same start reuses the retained LU across
        // the solve boundary: its first iteration is already stale.
        let avoided = solver.refactorizations_avoided();
        let mut x2 = vec![1.0, 1.0];
        assert!(solver.solve(&mut sys, &mut x2).is_converged());
        assert!(solver.refactorizations_avoided() > avoided);
    }

    #[test]
    fn reuse_declined_by_system_falls_back_to_full_newton() {
        let mut solver = NewtonSolver::new(NewtonOptions {
            reuse_jacobian: true,
            ..Default::default()
        });
        let mut sys = CountingPoly::new(false);
        let mut x = vec![1.0, 1.0];
        assert!(solver.solve(&mut sys, &mut x).is_converged());
        assert_eq!(solver.refactorizations_avoided(), 0);
        assert_eq!(sys.cheap_evals, 0);
        assert!(sys.full_evals > 0);
    }

    #[test]
    fn invalidate_jacobian_forces_refactorisation() {
        let mut solver = NewtonSolver::new(NewtonOptions {
            reuse_jacobian: true,
            ..Default::default()
        });
        let mut sys = CountingPoly::new(true);
        let mut x = vec![1.0, 1.0];
        assert!(solver.solve(&mut sys, &mut x).is_converged());
        solver.invalidate_jacobian();
        let refactors = solver.total_refactorizations();
        let mut x2 = vec![1.0, 1.0];
        assert!(solver.solve(&mut sys, &mut x2).is_converged());
        // First iteration after invalidation cannot run stale.
        assert!(solver.total_refactorizations() > refactors);
    }

    #[test]
    fn reuse_options_are_validated() {
        let bad_contraction = NewtonOptions {
            reuse_contraction: 1.0,
            ..Default::default()
        };
        assert_eq!(
            bad_contraction.validate().unwrap_err().field,
            "reuse_contraction"
        );
        let bad_age = NewtonOptions {
            reuse_max_age: 0,
            ..Default::default()
        };
        assert_eq!(bad_age.validate().unwrap_err().field, "reuse_max_age");
    }

    /// Poly that also supports sparse assembly over its full 2×2 pattern.
    struct SparsePoly;
    impl SparsePoly {
        fn pattern() -> SparsePattern {
            let mut b = crate::sparse::PatternBuilder::new(2);
            for r in 0..2 {
                for c in 0..2 {
                    b.add(r, c);
                }
            }
            b.build()
        }
    }
    impl NonlinearSystem for SparsePoly {
        fn dim(&self) -> usize {
            2
        }
        fn eval(&mut self, x: &[f64], r: &mut [f64], j: &mut DenseMatrix) {
            r[0] = x[0] * x[0] + x[1] - 3.0;
            r[1] = x[0] + x[1] * x[1] - 5.0;
            j[(0, 0)] = 2.0 * x[0];
            j[(0, 1)] = 1.0;
            j[(1, 0)] = 1.0;
            j[(1, 1)] = 2.0 * x[1];
        }
        fn eval_residual_only(&mut self, x: &[f64], r: &mut [f64]) -> bool {
            r[0] = x[0] * x[0] + x[1] - 3.0;
            r[1] = x[0] + x[1] * x[1] - 5.0;
            true
        }
        fn eval_sparse(&mut self, x: &[f64], r: &mut [f64], j: &mut CscMatrix) -> bool {
            r[0] = x[0] * x[0] + x[1] - 3.0;
            r[1] = x[0] + x[1] * x[1] - 5.0;
            j.add(0, 0, 2.0 * x[0]);
            j.add(0, 1, 1.0);
            j.add(1, 0, 1.0);
            j.add(1, 1, 2.0 * x[1]);
            true
        }
    }

    #[test]
    fn sparse_backend_matches_dense_root() {
        let mut dense = NewtonSolver::new(NewtonOptions::default());
        let mut xd = vec![1.0, 1.0];
        assert!(dense.solve(&mut Poly, &mut xd).is_converged());

        let mut sparse =
            NewtonSolver::with_sparse(NewtonOptions::default(), &SparsePoly::pattern());
        assert!(sparse.linear_solver().is_sparse());
        let mut xs = vec![1.0, 1.0];
        assert!(sparse.solve(&mut SparsePoly, &mut xs).is_converged());
        for i in 0..2 {
            assert!((xd[i] - xs[i]).abs() < 1e-9, "i={i} {xd:?} vs {xs:?}");
        }
    }

    #[test]
    fn sparse_backend_supports_modified_newton_reuse() {
        let mut solver = NewtonSolver::with_sparse(
            NewtonOptions {
                reuse_jacobian: true,
                ..Default::default()
            },
            &SparsePoly::pattern(),
        );
        let mut x = vec![1.0, 1.0];
        assert!(solver.solve(&mut SparsePoly, &mut x).is_converged());
        assert!(solver.refactorizations_avoided() > 0);
        // The symbolic analysis ran exactly once; everything after was a
        // fixed-pattern refactorisation.
        let lu = solver.linear_solver().sparse_lu().unwrap();
        assert_eq!(lu.full_factorizations(), 1);
        assert!(lu.refactorizations() >= 1);
    }

    #[test]
    fn sparse_backend_reports_singular_column() {
        struct SparseSingular;
        impl NonlinearSystem for SparseSingular {
            fn dim(&self) -> usize {
                2
            }
            fn eval(&mut self, _x: &[f64], _r: &mut [f64], _j: &mut DenseMatrix) {
                unreachable!("sparse path only");
            }
            fn eval_sparse(&mut self, _x: &[f64], r: &mut [f64], j: &mut CscMatrix) -> bool {
                r[0] = 1.0;
                r[1] = 1.0;
                // Column 1 left numerically zero: singular there.
                j.add(0, 0, 1.0);
                j.add(1, 0, 0.5);
                true
            }
        }
        let mut b = crate::sparse::PatternBuilder::new(2);
        b.add(0, 0);
        b.add(1, 0);
        b.add(1, 1);
        let mut solver = NewtonSolver::with_sparse(NewtonOptions::default(), &b.build());
        let mut x = vec![0.0, 0.0];
        match solver.solve(&mut SparseSingular, &mut x) {
            NewtonOutcome::SingularJacobian {
                iteration: 0,
                column,
            } => assert_eq!(column, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "eval_sparse support")]
    fn sparse_backend_panics_when_system_declines() {
        let mut solver =
            NewtonSolver::with_sparse(NewtonOptions::default(), &SparsePoly::pattern());
        let mut x = vec![1.0, 1.0];
        // `Poly` has no eval_sparse: must fail loudly, not silently degrade.
        solver.solve(&mut Poly, &mut x);
    }

    #[test]
    fn iteration_telemetry_accumulates() {
        let mut solver = NewtonSolver::new(NewtonOptions::default());
        assert_eq!(solver.total_iterations(), 0);
        assert_eq!(solver.total_solves(), 0);
        let mut x = vec![1.0, 1.0];
        let outcome = solver.solve(&mut Poly, &mut x);
        let NewtonOutcome::Converged { iterations } = outcome else {
            panic!("{outcome:?}");
        };
        assert_eq!(solver.total_iterations(), iterations as u64);
        assert_eq!(solver.total_solves(), 1);
        let mut x2 = vec![1.0, 1.0];
        solver.solve(&mut Poly, &mut x2);
        assert_eq!(solver.total_solves(), 2);
        assert!(solver.total_iterations() >= 2 * iterations as u64);
    }
}
